#![forbid(unsafe_code)]
//! Experiment harness regenerating every table and figure of the
//! paper's evaluation (§5).
//!
//! Each module renders its figures as `run_figNN() -> String`, the
//! rows/series the paper plots; Table 1 is [`render_table1`]. The one
//! binary (`cargo run -p bench [-- <name>]`) walks
//! [`all_experiments`]. All experiments run on the machine models,
//! are deterministic and complete in seconds.
//!
//! E.2–E.4 (Figs 5, 7–14) are campaign specs under `examples/paper/`:
//! `e2`, `e3` and `e4` run their spec through the [`CampaignEngine`]
//! that serves every sweep and project the [`PointResult`]s it lands;
//! the root package's `tests/paper_claims.rs` asserts the paper's
//! claims over the same projections. The sampling figures (2–3), E.1
//! (Figs 4, 6) and E.5 (Fig 15) call the models directly. The README's
//! "Paper experiments" section maps every figure to its source and
//! describes the machine-model substitution.

use synapse_campaign::{
    expand, CampaignEngine, CampaignSpec, CancelToken, PointResult, ResultCache, RunConfig,
};
use synapse_model::metrics::render_table1;

pub mod e1;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod sampling;

/// An experiment runner: renders one table/figure as text.
pub type ExperimentFn = fn() -> String;

/// All experiments, in paper order: (name, runner).
pub fn all_experiments() -> Vec<(&'static str, ExperimentFn)> {
    vec![
        ("table1_metrics", render_table1 as ExperimentFn),
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

/// Run a campaign spec (TOML) through the campaign engine over a fresh
/// in-memory cache; the results come back in grid order. Panics on a
/// spec or point error: the specs are the committed
/// `examples/paper/*.toml`.
pub fn campaign(spec: &str) -> Vec<PointResult> {
    let spec = CampaignSpec::from_toml(spec).expect("paper spec parses");
    let points = expand(&spec);
    let cache = ResultCache::in_memory();
    CampaignEngine::new(&points, &cache, &RunConfig::default())
        .run(&|_| {}, &CancelToken::new())
        .expect("paper campaign runs")
        .0
}
