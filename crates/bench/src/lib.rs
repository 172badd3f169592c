#![forbid(unsafe_code)]
//! Experiment harness regenerating every table and figure of the
//! paper's evaluation (§5).
//!
//! Each module implements one experiment and exposes `run() ->
//! String`, printing the same rows/series the paper plots; the one
//! binary (`cargo run -p bench [-- <name>]`) walks
//! [`all_experiments`], regenerating everything for EXPERIMENTS.md
//! or just the named experiment. All experiments run on the machine
//! models (substitution documented in DESIGN.md), are deterministic
//! (seeded noise) and complete in seconds.
//!
//! | module    | paper artifact |
//! |-----------|----------------|
//! | `table1`  | Table 1 — metric usage matrix |
//! | `sampling`| Figs 2–3 — sampling effects & sample portability |
//! | `e1`      | Fig 4 — profiling overhead; Fig 6 — consistency |
//! | `e2`      | Fig 5 — emulation on the profiling host; Fig 7 — portability |
//! | `e3`      | Figs 8–11 — kernel fidelity (cycles, Tx, instructions, IPC) |
//! | `e4`      | Fig 12 — parallel emulation; Figs 13–14 — Gromacs scaling |
//! | `e5`      | Fig 15 — I/O granularity across filesystems |

pub mod e1;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod sampling;
pub mod table1;
pub mod util;

/// An experiment runner: renders one table/figure as text.
pub type ExperimentFn = fn() -> String;

/// All experiments, in paper order: (name, runner).
pub fn all_experiments() -> Vec<(&'static str, ExperimentFn)> {
    vec![
        ("table1_metrics", table1::run as ExperimentFn),
        ("fig02_sampling_effects", sampling::run_fig02),
        ("fig03_sample_portability", sampling::run_fig03),
        ("fig04_profiling_overhead", e1::run_fig04),
        ("fig05_emulation_same_resource", e2::run_fig05),
        ("fig06_profiling_consistency", e1::run_fig06),
        ("fig07_emulation_portability", e2::run_fig07),
        ("fig08_kernel_cycles", e3::run_fig08),
        ("fig09_kernel_tx", e3::run_fig09),
        ("fig10_kernel_instructions", e3::run_fig10),
        ("fig11_kernel_ipc", e3::run_fig11),
        ("fig12_parallel_emulation", e4::run_fig12),
        ("fig13_gromacs_openmp", e4::run_fig13),
        ("fig14_gromacs_mpi", e4::run_fig14),
        ("fig15_io_granularity", e5::run_fig15),
    ]
}
