//! E.2 — Profiling correctness and emulation portability (Figs 5, 7).
//!
//! `examples/paper/e2.toml` profiles Gromacs on Thinkie and emulates
//! the profile on Thinkie, Stampede and Archer across the step sweep;
//! each figure is one machine's slice of the campaign's results.

use synapse_campaign::PointResult;

/// The `examples/paper/e2.toml` campaign's results, in grid order.
pub fn results() -> Vec<PointResult> {
    crate::campaign(include_str!("../../../examples/paper/e2.toml"))
}

/// One machine's points in step order: one figure's rows.
pub fn series<'a>(results: &'a [PointResult], machine: &str) -> Vec<&'a PointResult> {
    results
        .iter()
        .filter(|r| r.point.machine == machine)
        .collect()
}

fn render(title: &str, rows: &[&PointResult]) -> String {
    let mut out = format!("{title}\n\n");
    out.push_str(&format!(
        "{:>10} {:>14} {:>14} {:>10}\n",
        "tag_step", "execution (s)", "emulation (s)", "diff (%)"
    ));
    for r in rows {
        let (steps, app_tx, tx, diff) = (r.point.steps, r.app_tx, r.tx, r.error_pct());
        out.push_str(&format!(
            "{steps:>10} {app_tx:>14.2} {tx:>14.2} {diff:>+10.1}\n"
        ));
    }
    out
}

/// Fig. 5 — Emulation vs execution on the profiling host: agreement
/// once runtimes exceed the ~1 s emulator startup delay.
pub fn run_fig05() -> String {
    let mut out = render(
        "Fig 5 — Emulation vs Execution (thinkie): emulated runtimes agree with\n\
         application runtimes for runs longer than the Synapse startup delay (~1 s).",
        &series(&results(), "thinkie"),
    );
    out.push_str("\n(short runs show large relative diff: the fixed startup dominates)\n");
    out
}

/// Fig. 7 — Emulation vs execution on Stampede (top, converging
/// ~-40 %) and Archer (bottom, converging ~+33 %).
pub fn run_fig07() -> String {
    let results = results();
    let mut out = String::new();
    for (name, note) in [
        (
            "stampede",
            "consistently faster; difference converges to ~-40 %",
        ),
        (
            "archer",
            "consistently slower; difference converges to ~+33 %",
        ),
    ] {
        out.push_str(&render(
            &format!("Fig 7 — Emulation vs Execution ({name}): emulation {note}."),
            &series(&results, name),
        ));
        out.push('\n');
    }
    out
}
