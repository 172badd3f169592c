//! E.3 — Emulating with different kernels (Figs 8–11).
//!
//! `examples/paper/e3.toml` directs the Gromacs profile's cycles at the
//! C and ASM kernels on Comet and Supermic, compute atom only (memory
//! and I/O emulation off, as the paper states). The application's side
//! of each figure comes from the same point: its cycles are the
//! profile's `directed_cycles`, and its instruction rate is the
//! machine's `Application` kernel IPC. Fig 9's second table is the
//! steady-state Tx, [`PointResult::steady_tx`]; its signed error is
//! [`PointResult::steady_error_pct`], the one definition the paper
//! claims test.

use synapse_campaign::PointResult;
use synapse_model::stats::error_pct;
use synapse_sim::{machine_ref, KernelClass};

/// The `examples/paper/e3.toml` campaign's results, in grid order.
pub fn results() -> Vec<PointResult> {
    crate::campaign(include_str!("../../../examples/paper/e3.toml"))
}

/// A quantity the figures plot, read off one point for the
/// application and for its emulation.
#[derive(Debug, Clone, Copy)]
pub enum Metric {
    /// Used cycles (Fig 8).
    Cycles,
    /// Execution time Tx, the emulator's startup included (Fig 9).
    Tx,
    /// Tx minus the emulator's fixed startup (Fig 9's plotted error):
    /// [`PointResult::steady_tx`], whose error is
    /// [`PointResult::steady_error_pct`].
    SteadyTx,
    /// Retired instructions (Fig 10).
    Instructions,
    /// Instructions per cycle (Fig 11).
    Ipc,
}

impl Metric {
    /// The application's value at `r`'s machine and step count.
    pub fn application(self, r: &PointResult) -> f64 {
        let ipc = || {
            machine_ref(&r.point.machine)
                .expect("catalog machine")
                .kernel(KernelClass::Application)
                .ipc
        };
        match self {
            Metric::Cycles => r.directed_cycles as f64,
            Metric::Tx | Metric::SteadyTx => r.app_tx,
            Metric::Instructions => r.directed_cycles as f64 * ipc(),
            Metric::Ipc => ipc(),
        }
    }

    /// The emulation's value at `r`.
    pub fn emulated(self, r: &PointResult) -> f64 {
        match self {
            Metric::Cycles => r.consumed_cycles as f64,
            Metric::Tx => r.tx,
            Metric::SteadyTx => r.steady_tx(),
            Metric::Instructions => r.instructions as f64,
            Metric::Ipc => r.instructions as f64 / r.consumed_cycles as f64,
        }
    }
}

/// One figure row: a metric for the application and for each kernel's
/// emulation at one step count.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Step count.
    pub steps: u64,
    /// The application.
    pub app: f64,
    /// Emulation with the C kernel.
    pub c: f64,
    /// Emulation with the ASM kernel.
    pub asm: f64,
}

impl Row {
    /// |error| of the C kernel's emulation, in percent.
    pub fn err_c(&self) -> f64 {
        error_pct(self.c, self.app).unwrap_or(f64::NAN)
    }

    /// |error| of the ASM kernel's emulation, in percent.
    pub fn err_asm(&self) -> f64 {
        error_pct(self.asm, self.app).unwrap_or(f64::NAN)
    }
}

/// One machine's (C, ASM) point pairs, in step order.
pub fn pairs<'a>(
    results: &'a [PointResult],
    machine: &'a str,
) -> impl Iterator<Item = (&'a PointResult, &'a PointResult)> {
    let kernel = move |name: &'static str| {
        results
            .iter()
            .filter(move |r| r.point.machine == machine && r.point.kernel == name)
    };
    kernel("c").zip(kernel("asm"))
}

/// One machine's rows of `metric`, in step order.
pub fn rows(results: &[PointResult], machine: &str, metric: Metric) -> Vec<Row> {
    pairs(results, machine)
        .map(|(c, asm)| Row {
            steps: c.point.steps,
            app: metric.application(c),
            c: metric.emulated(c),
            asm: metric.emulated(asm),
        })
        .collect()
}

const MACHINES: [&str; 2] = ["comet", "supermic"];

fn render_metric(title: &str, results: &[PointResult], metric: Metric) -> String {
    let mut out = format!("{title}\n");
    for name in MACHINES {
        out.push_str(&format!(
            "\n[{name}]\n{:>9} {:>14} {:>14} {:>14} {:>9} {:>9}\n",
            "steps", "application", "C kernel", "ASM kernel", "err C %", "err ASM %"
        ));
        for r in rows(results, name, metric) {
            let (steps, app, c, asm) = (r.steps, r.app, r.c, r.asm);
            out.push_str(&format!(
                "{steps:>9} {app:>14.4e} {c:>14.4e} {asm:>14.4e} {:>9.1} {:>9.1}\n",
                r.err_c(),
                r.err_asm(),
            ));
        }
    }
    out
}

/// Fig. 8 — cycles used by application and emulations.
pub fn run_fig08() -> String {
    render_metric(
        "Fig 8 — Cycles used by Gromacs and its emulations (C vs ASM kernels).\n\
         Paper: err converges to ~3.5 %/14.5 % (Comet), ~4.0 %/26.5 % (Supermic).",
        &results(),
        Metric::Cycles,
    )
}

/// Fig. 9 — Tx of application and emulations, raw and without the
/// emulator's fixed startup.
pub fn run_fig09() -> String {
    let results = results();
    let mut out = render_metric(
        "Fig 9 — Tx of Gromacs and its emulations. Error tracks the cycle error\n\
         (compute-bound workload, consistent clock speeds). Raw Tx, the\n\
         emulator's fixed startup included:",
        &results,
        Metric::Tx,
    );
    out.push('\n');
    out.push_str(&render_metric(
        "Emulation Tx minus the emulator's startup (sim_startup_seconds):",
        &results,
        Metric::SteadyTx,
    ));
    out
}

/// Fig. 10 — instructions executed.
pub fn run_fig10() -> String {
    render_metric(
        "Fig 10 — Instructions executed. The C kernel's instruction count error\n\
         stays below the ASM kernel's on both machines.",
        &results(),
        Metric::Instructions,
    )
}

/// Fig. 11 — instructions per cycle.
pub fn run_fig11() -> String {
    let results = results();
    let mut out = String::from(
        "Fig 11 — Instruction rate (instructions/cycle).\n\
         Paper: Comet app ~2.17, C ~2.80, ASM ~3.30; Supermic app ~2.04, C ~2.53, ASM ~2.86.\n",
    );
    for name in MACHINES {
        out.push_str(&format!(
            "\n[{name}]\n{:>9} {:>12} {:>12} {:>12}\n",
            "steps", "application", "C kernel", "ASM kernel"
        ));
        for Row { steps, app, c, asm } in rows(&results, name, Metric::Ipc) {
            out.push_str(&format!("{steps:>9} {app:>12.2} {c:>12.2} {asm:>12.2}\n"));
        }
    }
    out
}
