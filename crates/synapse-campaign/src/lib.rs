#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! `synapse-campaign` — a parallel scenario-sweep engine over the
//! Synapse simulator.
//!
//! The paper's promise is *cheap exploration*: profile an application
//! once, then ask "how would it behave on machine M with kernel K,
//! parallel mode P, I/O block B?" without owning machine M. One-shot
//! questions go through [`synapse::Emulator::simulate`]; this crate
//! scales that to **campaigns** — declarative sweeps over the
//! cartesian product of those axes, run in parallel, memoized, and
//! summarized:
//!
//! * [`spec`] — [`CampaignSpec`], deserializable from TOML (subset,
//!   see [`toml`]) or JSON, declaring the axes;
//! * [`grid`] — cartesian expansion into [`ScenarioPoint`]s with
//!   deterministic per-point seeds;
//! * [`runner`] — a worker pool driving the simulator in virtual time;
//! * [`cache`] — fingerprint-keyed memoization persisted through
//!   `synapse-store`'s sharded store (256 shard files by fingerprint
//!   prefix, dirty-shard-only saves), so re-running a grown campaign
//!   only simulates new points and only rewrites the shards it adds;
//! * [`aggregate`] — mean/p50/p95/p99 per axis slice plus
//!   relative-error-vs-reference-machine views;
//! * [`report`] — deterministic JSON/CSV reports (identical spec +
//!   seed ⇒ byte-identical JSON);
//! * [`partition`](mod@partition) — deterministic grid partitioning and the lease
//!   table backing distributed fan-out across cooperating serve
//!   processes (`synapse-cluster`).
//!
//! ```
//! use synapse_campaign::{run_campaign_on, CampaignSpec, CancelToken, ResultCache, RunConfig};
//!
//! let spec = CampaignSpec::from_toml(r#"
//!     name = "quick"
//!     machines = ["thinkie", "comet"]
//!     kernels = ["asm", "c"]
//!
//!     [[workloads]]
//!     app = "gromacs"
//!     steps = [10000]
//! "#).unwrap();
//! let outcome = run_campaign_on(
//!     &spec,
//!     &RunConfig::default(),
//!     &ResultCache::in_memory(),
//!     &|_| {},
//!     &CancelToken::new(),
//! )
//! .unwrap();
//! assert_eq!(outcome.report.points, 4);
//! println!("{}", outcome.report.render_summary());
//! ```

pub mod aggregate;
pub mod cache;
pub mod engine;
pub mod error;
pub mod grid;
pub mod live;
mod metrics;
pub mod partition;
pub mod report;
pub mod runner;
pub mod spec;
pub mod toml;

pub use aggregate::{AxisSlice, Percentiles, ReferenceError};
pub use cache::{
    campaign_trace_id, fingerprint, Fingerprint, Probe, ResultCache, ResultText, ENGINE_VERSION,
};
pub use engine::{CampaignEngine, CancelToken, PointEvent, PointForm};
pub use error::CampaignError;
pub use grid::{
    atoms_by_name, expand, expand_range, fs_by_name, sample_order_by_name, AtomSet, ScenarioPoint,
};
pub use live::{AggregateMetrics, LiveAggregates, Overall, Slice, View, AGGREGATES_VERSION};
pub use metrics::point_latency;
pub use partition::{
    partition, partition_weighted, plan_leases, Lease, LeaseState, LeaseTable, MAX_PROBE_POINTS,
};
pub use report::{CampaignReport, PilotSummary, PointRow};
pub use runner::{simulate_point, PointResult, RunConfig, RunStats};
pub use spec::{CampaignSpec, PilotSpec, WorkloadSpec};

/// A finished campaign: the deterministic report plus this run's
/// execution counters.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Deterministic aggregate report.
    pub report: CampaignReport,
    /// This run's counters (simulated vs. cached, wall time).
    pub stats: RunStats,
}

/// Expand, execute and summarize a campaign against a caller-owned
/// cache handle, observing every [`PointEvent`] and honoring a
/// [`CancelToken`].
///
/// With a persistent `cache`, a re-run (or a grown campaign) only
/// simulates points whose fingerprints are missing. Long-running
/// frontends share one process-wide [`ResultCache`] across concurrent
/// campaigns, with per-point progress streamed out as it happens.
/// Mutated shards are persisted before returning (also on
/// cancellation, so landed points survive).
///
/// The in-process form of [`run_campaign_live`]: each landed point is
/// recorded into a fresh view before `observer` sees it.
pub fn run_campaign_on(
    spec: &CampaignSpec,
    config: &RunConfig,
    cache: &ResultCache,
    observer: &(dyn Fn(PointEvent) + Sync),
    cancel: &CancelToken,
) -> Result<CampaignOutcome, CampaignError> {
    let live = LiveAggregates::new();
    let recording = |event: PointEvent| {
        if let PointEvent::PointDone { result, .. } = &event {
            live.record(result);
        }
        observer(event);
    };
    run_campaign_live(spec, config, cache, &recording, &live, cancel)
}

/// [`run_campaign_on`] for a caller that keeps the campaign's live
/// view: `observer` records every landed point into `live`, once, and
/// the report reads its slices from it
/// ([`CampaignReport::assemble_from_view`]) — one fold per campaign,
/// so a finished view equals its report's slices by construction.
pub fn run_campaign_live(
    spec: &CampaignSpec,
    config: &RunConfig,
    cache: &ResultCache,
    observer: &(dyn Fn(PointEvent) + Sync),
    live: &LiveAggregates,
    cancel: &CancelToken,
) -> Result<CampaignOutcome, CampaignError> {
    let engine_metrics = crate::metrics::EngineMetrics::get();
    let run_started = std::time::Instant::now();
    let points = expand(spec);
    let expand_secs = run_started.elapsed().as_secs_f64();
    engine_metrics.stage_expansion.observe(expand_secs);
    let swept = CampaignEngine::new(&points, cache, config).run(observer, cancel);
    let aggregate_started = std::time::Instant::now();
    cache.persist()?;
    let (results, mut stats) = swept?;
    let report = CampaignReport::assemble_from_view(spec, &results, live)?;
    stats.expand_secs = expand_secs;
    stats.aggregate_secs = aggregate_started.elapsed().as_secs_f64();
    stats.wall_secs = run_started.elapsed().as_secs_f64();
    engine_metrics
        .stage_aggregation
        .observe(stats.aggregate_secs);
    engine_metrics.campaigns.inc();
    Ok(CampaignOutcome { report, stats })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CampaignSpec {
        CampaignSpec::from_toml(
            r#"
            name = "integration"
            seed = 99
            machines = ["thinkie", "supermic", "titan"]
            kernels = ["asm", "c"]
            modes = ["openmp", "mpi"]

            [[workloads]]
            app = "gromacs"
            steps = [10000, 100000]

            [[workloads]]
            app = "amber"
            steps = [50000]
            "#,
        )
        .unwrap()
    }

    fn run(spec: &CampaignSpec, workers: usize, cache: &ResultCache) -> CampaignOutcome {
        let config = RunConfig { workers };
        run_campaign_on(spec, &config, cache, &|_| {}, &CancelToken::new()).unwrap()
    }

    #[test]
    fn end_to_end_run_produces_full_report() {
        let s = spec();
        let outcome = run(&s, 0, &ResultCache::in_memory());
        assert_eq!(outcome.report.points, 3 * 3 * 2 * 2);
        assert_eq!(outcome.stats.simulated, outcome.report.points);
        assert_eq!(outcome.stats.cache_hits, 0);
        assert!(outcome.stats.points_per_sec() > 0.0);
    }

    #[test]
    fn determinism_same_spec_same_seed_byte_identical_json() {
        let s = spec();
        let a = run(&s, 1, &ResultCache::in_memory());
        let b = run(&s, 8, &ResultCache::in_memory());
        assert_eq!(
            a.report.to_json().unwrap(),
            b.report.to_json().unwrap(),
            "worker count must not leak into the report"
        );
        let mut reseeded = s.clone();
        reseeded.seed = 100;
        let c = run(&reseeded, 0, &ResultCache::in_memory());
        assert_ne!(a.report.to_json().unwrap(), c.report.to_json().unwrap());
    }

    #[test]
    fn a_view_that_misses_a_point_is_refused() {
        let (s, live) = (spec(), LiveAggregates::new());
        let skipping = |event: PointEvent| match event {
            PointEvent::PointDone { result, done, .. } if done != 2 => live.record(&result),
            _ => {}
        };
        let (cache, config) = (ResultCache::in_memory(), RunConfig { workers: 2 });
        let err = run_campaign_live(&s, &config, &cache, &skipping, &live, &CancelToken::new())
            .unwrap_err();
        let n = s.point_count();
        assert_eq!(
            err.to_string(),
            format!(
                "the live view recorded {} points but the sweep landed {n}: no report",
                n - 1
            )
        );
    }

    #[test]
    fn persistent_cache_across_invocations() {
        let dir = std::env::temp_dir().join(format!("synapse-campaign-e2e-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = spec();
        let first = run(&s, 0, &ResultCache::open(&dir).unwrap());
        assert_eq!(first.stats.simulated, s.point_count());
        let second = run(&s, 0, &ResultCache::open(&dir).unwrap());
        assert_eq!(second.stats.simulated, 0);
        assert_eq!(second.stats.cache_hits, s.point_count());
        assert_eq!(
            first.report.to_json().unwrap(),
            second.report.to_json().unwrap(),
            "cached replay reproduces the report byte-for-byte"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn equivalent_spellings_share_fingerprints_and_reports() {
        // Case and aliases are accepted by every catalog lookup, so
        // they must not reach fingerprints, seeds or report slices.
        let toml = |[thinkie, comet, kernel, openmp, mpi, app, policy]: [&str; 7]| {
            format!(
                "name = \"spelling\"\nseed = 5\nprofile_machine = \"{thinkie}\"\n\
                 reference_machine = \"{thinkie}\"\nmachines = [\"thinkie\", \"{comet}\"]\n\
                 kernels = [\"{kernel}\"]\nmodes = [\"{openmp}\", \"{mpi}\"]\n\
                 [[workloads]]\napp = \"{app}\"\nsteps = [10000]\n\
                 [pilot]\npolicy = \"{policy}\"\n"
            )
        };
        let canonical = [
            "thinkie", "comet", "asm", "openmp", "mpi", "gromacs", "backfill",
        ];
        let shouted = [
            "Thinkie", "Comet", "ASM", "omp", "OpenMPI", "Gromacs", "BackFill",
        ];
        let a = CampaignSpec::from_toml(&toml(canonical)).unwrap();
        let b = CampaignSpec::from_toml(&toml(shouted)).unwrap();
        let fingerprints = |s: &CampaignSpec| expand(s).iter().map(fingerprint).collect::<Vec<_>>();
        assert_eq!(fingerprints(&a), fingerprints(&b));
        assert_eq!(
            run(&a, 1, &ResultCache::in_memory())
                .report
                .to_json()
                .unwrap(),
            run(&b, 1, &ResultCache::in_memory())
                .report
                .to_json()
                .unwrap(),
        );
    }
}
