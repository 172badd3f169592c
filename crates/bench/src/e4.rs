//! E.4 — Emulating parallel execution (Figs 12–14).
//!
//! `examples/paper/e4.toml` emulates a profile obtained from a
//! *single-threaded* application run with thread (OpenMP) or process
//! (MPI) parallelism — a dimension the profiled run never had
//! (requirement E.3, malleability). Scaling shows good returns at
//! small core counts and diminishing returns toward the full node;
//! OpenMP wins on Titan, MPI wins on Supermic. Figs 13–14 show the
//! *actual* application scaling on Titan for comparison: each point's
//! `app_tx`, the application's own run at that width.

use synapse_campaign::PointResult;
use synapse_sim::machine_ref;

/// The `examples/paper/e4.toml` campaign's results, in grid order.
pub fn results() -> Vec<PointResult> {
    crate::campaign(include_str!("../../../examples/paper/e4.toml"))
}

/// `machine`'s points under `mode` (`openmp` | `mpi`) by worker count,
/// up to the machine's core count: one scaling curve.
pub fn scaling<'a>(results: &'a [PointResult], machine: &str, mode: &str) -> Vec<&'a PointResult> {
    let ncores = machine_ref(machine).expect("catalog machine").cpu.ncores;
    results
        .iter()
        .filter(|r| r.point.machine == machine && r.point.mode == mode && r.point.threads <= ncores)
        .collect()
}

/// Fig. 12 — emulated OpenMP vs MPI scaling on Titan and Supermic.
pub fn run_fig12() -> String {
    let results = results();
    let mut out = String::from(
        "Fig 12 — Application concurrency: thread (OpenMP) and process (OpenMPI)\n\
         parallelism applied to a single-threaded profile. Good scaling at small\n\
         core counts, diminishing returns near the full node; OpenMP wins on\n\
         Titan, OpenMPI on Supermic.\n",
    );
    for name in ["titan", "supermic"] {
        let ncores = machine_ref(name).expect("catalog machine").cpu.ncores;
        out.push_str(&format!(
            "\n[{name} — {ncores} cores]\n{:>7} {:>16} {:>16}\n",
            "cores", "OpenMP Tx (s)", "OpenMPI Tx (s)"
        ));
        let openmp = scaling(&results, name, "openmp");
        let mpi = scaling(&results, name, "mpi");
        for (omp, mpi) in openmp.iter().zip(&mpi) {
            out.push_str(&format!(
                "{:>7} {:>16.2} {:>16.2}\n",
                omp.point.threads, omp.tx, mpi.tx
            ));
        }
    }
    out
}

/// Actual application scaling on Titan for one mode (Figs 13–14).
fn gromacs_scaling(figure: u32, label: &str, mode: &str) -> String {
    let results = results();
    let curve = scaling(&results, "titan", mode);
    let base = curve[0].app_tx;
    let mut out = format!(
        "Fig {figure} — Gromacs scaling on Titan with {label} (application execution).\n\n\
         {:>7} {:>14} {:>10}\n",
        "cores", "Tx (s)", "speedup"
    );
    for r in curve {
        let (threads, tx) = (r.point.threads, r.app_tx);
        out.push_str(&format!("{threads:>7} {tx:>14.2} {:>10.2}\n", base / tx));
    }
    out
}

/// Fig. 13 — actual Gromacs scaling on Titan with OpenMP.
pub fn run_fig13() -> String {
    gromacs_scaling(13, "OpenMP", "openmp")
}

/// Fig. 14 — actual Gromacs scaling on Titan with OpenMPI.
pub fn run_fig14() -> String {
    gromacs_scaling(14, "OpenMPI", "mpi")
}
