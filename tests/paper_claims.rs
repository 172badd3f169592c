//! The paper's emulation claims (E.2–E.4, Figs 5 and 7–14), asserted
//! over the campaign engine's results for the specs under
//! `examples/paper/`: the projections `cargo run -p bench` renders,
//! over the `simulate_point` every served request runs. A simulator
//! change that breaks a paper number fails here.

use bench::e3::{pairs, rows, Metric};
use bench::{e2, e3, e4};
use synapse_campaign::runner::emulation_plan;
use synapse_campaign::PointResult;
use synapse_sim::machine_ref;
use synapse_workloads::AppModel;

// ---- E.2 — Figs 5 and 7 ------------------------------------------------

#[test]
fn fig05_error_falls_strictly_to_agreement_on_the_profiling_host() {
    // Short runs are startup-dominated; long runs agree.
    let results = e2::results();
    let rows = e2::series(&results, "thinkie");
    for w in rows.windows(2) {
        let steps = w[1].point.steps;
        assert!(w[1].error_pct().abs() < w[0].error_pct().abs(), "{steps}");
    }
    assert!(rows.last().unwrap().error_pct().abs() < 5.0);
}

#[test]
fn fig07_portability_offsets_and_directions() {
    let results = e2::results();
    let home = e2::series(&results, "thinkie");
    // (machine, range the diff converges into, emulation faster).
    for (machine, lo, hi, faster) in [
        ("stampede", -50.0, -30.0, true),
        ("archer", 25.0, 45.0, false),
    ] {
        let rows = e2::series(&results, machine);
        let last = rows.last().unwrap().error_pct();
        assert!(lo < last && last < hi, "{machine} converged at {last:+.1}%");
        // From 5e5 steps on, startup no longer dominates: one direction
        // on every row, and a larger error than on the profiling host.
        for (r, h) in rows.iter().zip(&home).skip(3) {
            let steps = r.point.steps;
            assert_eq!(r.tx < r.app_tx, faster, "{machine} {steps}");
            assert!(
                r.error_pct().abs() > h.error_pct().abs(),
                "{machine} {steps}"
            );
        }
    }
    // The directions at 5e6 steps: parity at home, faster on
    // Stampede, slower on Archer.
    let at_5e6 = |machine| e2::series(&results, machine)[5].error_pct();
    assert!(at_5e6("thinkie").abs() < 5.0);
    assert!(at_5e6("stampede") < -30.0);
    assert!(at_5e6("archer") > 25.0);
}

#[test]
fn scaling_trend_is_captured_everywhere() {
    // "the Tx of the application and its emulation resemble the
    // essential application's execution characteristics".
    let results = e2::results();
    for machine in ["thinkie", "stampede", "archer"] {
        let rows = e2::series(&results, machine);
        assert_eq!(rows.len(), 7, "{machine}: the whole step sweep");
        for w in rows.windows(2) {
            assert!(w[0].app_tx < w[1].app_tx && w[0].tx < w[1].tx, "{machine}");
        }
    }
}

// ---- E.3 — Figs 8–11 ---------------------------------------------------

#[test]
fn fig08_cycle_errors_match_the_paper() {
    let results = e3::results();
    // (machine, paper's C error, tolerance, paper's ASM error, tolerance).
    for (machine, c, c_tol, asm, asm_tol) in [
        ("comet", 3.5, 2.0, 14.5, 4.0),
        ("supermic", 4.0, 2.0, 26.5, 5.0),
    ] {
        for r in rows(&results, machine, Metric::Cycles) {
            assert!((r.err_c() - c).abs() < c_tol, "{machine} {r:?}");
            assert!((r.err_asm() - asm).abs() < asm_tol, "{machine} {r:?}");
        }
    }
}

#[test]
fn c_kernel_beats_asm_on_every_metric_and_machine() {
    let results = e3::results();
    for machine in ["comet", "supermic"] {
        use Metric::*;
        for metric in [Cycles, Tx, SteadyTx, Instructions] {
            let rows = rows(&results, machine, metric);
            assert_eq!(rows.len(), 7, "{machine}: the whole step sweep");
            for r in rows {
                assert!(r.err_c() <= r.err_asm(), "{machine} {metric:?} {r:?}");
            }
        }
        // The signed error the report slices, smallest step count
        // included.
        for (c, asm) in pairs(&results, machine) {
            assert!(asm.error_pct() >= c.error_pct(), "{machine} {c:?}");
        }
    }
}

#[test]
fn kernel_choice_changes_fidelity_not_volume() {
    // Both kernels are directed every cycle of the profile; both
    // overshoot, C less, and the IPC ordering carries into
    // instruction counts.
    let results = e3::results();
    for machine in ["comet", "supermic"] {
        for (c, asm) in pairs(&results, machine) {
            let directed = AppModel::gromacs().cycles(c.point.steps);
            assert_eq!([c.directed_cycles, asm.directed_cycles], [directed; 2]);
            assert!(directed < c.consumed_cycles, "{machine} {c:?}");
            assert!(c.consumed_cycles < asm.consumed_cycles, "{machine} {c:?}");
            assert!(c.instructions < asm.instructions, "{machine} {c:?}");
        }
    }
}

#[test]
fn tx_error_decreases_with_problem_size() {
    // The emulator's fixed startup dominates short runs; the Tx error
    // converges from above (Fig 9).
    let results = e3::results();
    for machine in ["comet", "supermic"] {
        for w in rows(&results, machine, Metric::Tx).windows(2) {
            assert!(w[1].err_c() < w[0].err_c(), "{machine} {w:?}");
            assert!(w[1].err_asm() < w[0].err_asm(), "{machine} {w:?}");
        }
    }
}

#[test]
fn fig11_ipc_matches_paper() {
    let results = e3::results();
    for (machine, app, c, asm) in [("comet", 2.17, 2.80, 3.30), ("supermic", 2.04, 2.53, 2.86)] {
        let r = *rows(&results, machine, Metric::Ipc).last().unwrap();
        let near = |got: f64, paper: f64| (got - paper).abs() < 0.15;
        assert!(
            near(r.app, app) && near(r.c, c) && near(r.asm, asm),
            "{r:?}"
        );
        assert!(r.app < r.c && r.c < r.asm, "{machine}: app < C < ASM");
    }
}

// ---- E.4 — Figs 12–14 --------------------------------------------------

/// Emulated Tx at one width, from the Fig 12 projection.
fn tx(results: &[PointResult], machine: &str, mode: &str, threads: u32) -> f64 {
    let curve = e4::scaling(results, machine, mode);
    let point = curve.iter().find(|r| r.point.threads == threads);
    point.expect("width plotted").tx
}

#[test]
fn scaling_improves_with_diminishing_returns() {
    let results = e4::results();
    for (machine, widths) in [
        ("titan", &[1, 2, 4, 8, 16][..]),
        ("supermic", &[1, 2, 4, 8, 16, 20]),
    ] {
        let ncores = machine_ref(machine).unwrap().cpu.ncores;
        for mode in ["openmp", "mpi"] {
            let curve = e4::scaling(&results, machine, mode);
            let plotted: Vec<u32> = curve.iter().map(|r| r.point.threads).collect();
            assert_eq!(plotted, widths, "{machine}: widths up to the core count");
            let [t1, t4, tn] = [1, 4, ncores].map(|n| tx(&results, machine, mode, n));
            assert!(tn < t4 && t4 < t1, "{machine} {mode}");
            assert!(t1 / tn < ncores as f64, "{machine} {mode}: sublinear");
        }
    }
}

#[test]
fn openmp_wins_on_titan_mpi_wins_on_supermic() {
    let results = e4::results();
    let tx = |machine, mode, threads| tx(&results, machine, mode, threads);
    assert!(tx("titan", "openmp", 16) < tx("titan", "mpi", 16));
    assert!(tx("supermic", "mpi", 20) < tx("supermic", "openmp", 20));
    // "Supermic executes the tasks faster than Titan".
    assert!(tx("supermic", "openmp", 1) < tx("titan", "openmp", 1));
}

#[test]
fn emulated_scaling_resembles_application_scaling() {
    // Figs 12 vs 13: the application and its emulation both improve
    // monotonically with width on Titan/OpenMP.
    let results = e4::results();
    for w in e4::scaling(&results, "titan", "openmp").windows(2) {
        assert!(w[1].app_tx <= w[0].app_tx && w[1].tx <= w[0].tx, "{w:?}");
    }
}

#[test]
fn figures_render() {
    let (f7, f12) = (e2::run_fig07(), e4::run_fig12());
    assert!(e2::run_fig05().contains("tag_step"));
    assert!(f7.contains("stampede") && f7.contains("archer"));
    assert!(e3::run_fig08().contains("comet"));
    assert!(e3::run_fig09().contains("sim_startup_seconds"));
    assert!(e3::run_fig10().contains("err"));
    assert!(e3::run_fig11().contains("ASM kernel"));
    assert!(f12.contains("titan") && f12.contains("supermic"));
    assert!(e4::run_fig13().contains("OpenMP"));
    assert!(e4::run_fig14().contains("OpenMPI"));
}

// ---- Steady-state fidelity ---------------------------------------------

/// The cross-resource sweep's results, in grid order.
fn campaign() -> Vec<PointResult> {
    bench::campaign(include_str!("../examples/campaign.toml"))
}

/// Mean |steady error| of the results `keep` picks.
fn mean_steady_error(results: &[PointResult], keep: impl Fn(&PointResult) -> bool) -> f64 {
    let errors: Vec<f64> = results
        .iter()
        .filter(|r| keep(r))
        .map(|r| r.steady_error_pct().abs())
        .collect();
    assert!(!errors.is_empty(), "no point picked");
    errors.iter().sum::<f64>() / errors.len() as f64
}

/// Each machine's mean |steady error|, in order of first appearance.
fn steady_error_by_machine(results: &[PointResult]) -> Vec<(&str, f64)> {
    let mut machines: Vec<&str> = Vec::new();
    for r in results {
        if !machines.contains(&&*r.point.machine) {
            machines.push(&r.point.machine);
        }
    }
    machines
        .into_iter()
        .map(|m| (m, mean_steady_error(results, |r| r.point.machine == m)))
        .collect()
}

#[test]
fn steady_error_is_raw_error_less_the_startup() {
    for results in [campaign(), e2::results(), e3::results(), e4::results()] {
        for r in &results {
            let startup = emulation_plan(&r.point).unwrap().sim_startup_seconds;
            let offset = 100.0 * startup / r.app_tx;
            let gap = r.error_pct() - r.steady_error_pct();
            assert!((gap - offset).abs() <= 1e-9 * offset.abs(), "{r:?}");
        }
    }
}

#[test]
fn steady_error_is_small_on_the_profiling_resource_and_grows_off_it() {
    // Fig 7: a profile emulated off the resource it was profiled on
    // errs more than on it. The bound is on the mean: single points
    // on the profiling host err by up to ~6 %.
    for (spec, results) in [("campaign", campaign()), ("e2", e2::results())] {
        let home = |r: &PointResult| r.point.machine == r.point.profile_machine;
        let same = mean_steady_error(&results, home);
        assert!(same <= 5.0, "{spec}: {same:.3} on the profiling resource");
        for (machine, error) in steady_error_by_machine(&results) {
            assert!(error >= same, "{spec}: {machine} {error:.3} < {same:.3}");
        }
    }
}

#[test]
fn steady_error_stays_under_per_machine_ceilings() {
    // Absolute ceilings (today's value + 1.0) on the cross-resource
    // sweep: `sim_error_pct`'s relative bound, over a raw error near
    // 68 %, would let the steady error grow by a third unnoticed.
    const CEILINGS: [(&str, f64); 6] = [
        ("thinkie", 3.39),
        ("titan", 5.28),
        ("comet", 7.41),
        ("supermic", 13.24),
        ("archer", 17.40),
        ("stampede", 29.30),
    ];
    const ALL_POINTS: f64 = 12.67;
    let results = campaign();
    let by_machine = steady_error_by_machine(&results);
    assert_eq!(by_machine.len(), CEILINGS.len());
    for (machine, ceiling) in CEILINGS {
        let (_, error) = by_machine.iter().find(|m| m.0 == machine).unwrap();
        assert!(*error <= ceiling, "{machine}: {error:.3} > {ceiling}");
    }
    let all = mean_steady_error(&results, |_| true);
    assert!(all <= ALL_POINTS, "all points: {all:.3} > {ALL_POINTS}");
}
