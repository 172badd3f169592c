//! Per-point simulation.
//!
//! Scenario points are independent, so sweeps fan them out over a pool
//! of worker threads pulling indices from a shared atomic counter —
//! that pool lives in [`crate::engine::CampaignEngine`]; this module
//! holds the per-point physics ([`simulate_point`]). Every simulation
//! runs in *virtual* time (the machine models' clock), which is what makes
//! thousand-point sweeps complete in seconds of wall time. Results
//! land back in grid order, so the outcome is deterministic regardless
//! of thread interleaving.

use serde::{Deserialize, Serialize};
use synapse::emulator::{EmulationPlan, Emulator};
use synapse_sim::Noise;

use crate::cache::Fingerprint;
use crate::error::CampaignError;
use crate::grid::{
    app_by_name, atoms_by_name, fnv1a, fs_by_name, kernel_by_name, mode_by_name,
    sample_order_by_name, sample_order_preserves, ScenarioPoint,
};

/// Outcome of simulating one scenario point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointResult {
    /// The scenario this result belongs to.
    pub point: ScenarioPoint,
    /// Content fingerprint the result is cached under.
    pub fingerprint: Fingerprint,
    /// Emulated execution time Tx on the target machine (virtual
    /// seconds).
    pub tx: f64,
    /// Modelled *application* execution time on the same machine — the
    /// baseline the paper measures emulation fidelity against.
    pub app_tx: f64,
    /// Samples replayed.
    pub samples: usize,
    /// Cycles the profile directed.
    pub directed_cycles: u64,
    /// Cycles the kernel actually consumed (≥ directed).
    pub consumed_cycles: u64,
    /// Instructions retired (consumed × kernel IPC).
    pub instructions: u64,
    /// Bytes the storage atom wrote.
    pub bytes_written: u64,
}

impl PointResult {
    /// Whether both times are finite and non-negative, as every
    /// simulated result's are. Result bytes that come from outside
    /// the process (a worker's batch frame, a cache file) are checked
    /// with this before anything sums or sorts them.
    pub fn times_are_valid(&self) -> bool {
        [self.tx, self.app_tx]
            .iter()
            .all(|t| t.is_finite() && *t >= 0.0)
    }

    /// Relative emulation error vs. the application baseline, in
    /// percent (positive ⇒ emulation slower).
    pub fn error_pct(&self) -> f64 {
        self.error_pct_of(self.tx)
    }

    /// Emulated Tx without the emulator's fixed startup: `tx` minus
    /// the point's plan's `sim_startup_seconds`. The startup dominates
    /// short runs (Fig 5); this is the steady-state time the model
    /// predicts.
    pub fn steady_tx(&self) -> f64 {
        let plan = emulation_plan(&self.point).expect("a result names catalog entries");
        self.tx - plan.sim_startup_seconds
    }

    /// [`error_pct`](PointResult::error_pct) of
    /// [`steady_tx`](PointResult::steady_tx): the emulation's
    /// steady-state error, in percent (positive ⇒ emulation slower).
    pub fn steady_error_pct(&self) -> f64 {
        self.error_pct_of(self.steady_tx())
    }

    /// The signed error of an emulated time `tx` against `app_tx`.
    fn error_pct_of(&self, tx: f64) -> f64 {
        if self.app_tx <= 0.0 {
            return 0.0;
        }
        (tx - self.app_tx) / self.app_tx * 100.0
    }

    /// Cycle overshoot fraction (kernel quantization + overhead).
    pub fn overshoot_frac(&self) -> f64 {
        if self.directed_cycles == 0 {
            return 0.0;
        }
        self.consumed_cycles as f64 / self.directed_cycles as f64 - 1.0
    }
}

/// How to execute a campaign.
#[derive(Debug, Clone, Default)]
pub struct RunConfig {
    /// Worker threads (0 ⇒ one per available core, capped at 16).
    pub workers: usize,
}

impl RunConfig {
    pub(crate) fn effective_workers(&self, points: usize) -> usize {
        let auto = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(16);
        let configured = if self.workers == 0 {
            auto
        } else {
            self.workers
        };
        configured.clamp(1, points.max(1))
    }
}

/// Execution counters for one campaign run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunStats {
    /// Total scenario points.
    pub points: usize,
    /// Points actually simulated this run.
    pub simulated: usize,
    /// Points served from the result cache.
    pub cache_hits: usize,
    /// Wall-clock duration of the whole run (all stages).
    pub wall_secs: f64,
    /// Wall time spent expanding the spec into the scenario grid.
    pub expand_secs: f64,
    /// Wall time spent in the sweep (simulate/cache worker pool).
    pub sweep_secs: f64,
    /// Wall time spent persisting the cache and assembling the report.
    pub aggregate_secs: f64,
}

impl RunStats {
    /// The per-stage timing block every surface reports in the same
    /// shape: `campaign run --summary-json`, the server's terminal
    /// `completed` event, and the bench harness.
    pub fn timings_json(&self) -> serde_json::Value {
        serde_json::json!({
            "expansion_secs": self.expand_secs,
            "sweep_secs": self.sweep_secs,
            "aggregation_secs": self.aggregate_secs,
            "wall_secs": self.wall_secs,
        })
    }

    /// The run-summary block (`points` … `timings`) every surface
    /// reports in the same shape: `campaign run --summary-json` and
    /// the server's terminal `completed` events. Callers insert what
    /// is theirs alone (`event`, `id`, `name`, `lease`, …).
    pub fn summary_json(&self) -> serde_json::Map<String, serde_json::Value> {
        use serde_json::json;
        let entries = [
            ("points", json!(self.points)),
            ("simulated", json!(self.simulated)),
            ("cache_hits", json!(self.cache_hits)),
            ("cache_hit_rate", json!(self.hit_rate())),
            ("wall_secs", json!(self.wall_secs)),
            ("timings", self.timings_json()),
        ];
        serde_json::Map::from(entries.map(|(key, value)| (key.to_string(), value)))
    }

    /// Sweep throughput (points per wall-clock second).
    pub fn points_per_sec(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            return 0.0;
        }
        self.points as f64 / self.wall_secs
    }

    /// Fraction of points served from cache.
    pub fn hit_rate(&self) -> f64 {
        if self.points == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / self.points as f64
    }
}

/// Resolve a point's axis values into the emulation plan it
/// prescribes — the one place for the axis→`EmulationPlan` mapping.
pub fn emulation_plan(point: &ScenarioPoint) -> Result<EmulationPlan, CampaignError> {
    let kernel = kernel_by_name(&point.kernel)
        .ok_or_else(|| CampaignError::UnknownKernel(point.kernel.to_string()))?;
    let mode = mode_by_name(&point.mode)
        .ok_or_else(|| CampaignError::UnknownMode(point.mode.to_string()))?;
    let target_fs = fs_by_name(&point.fs)
        .ok_or_else(|| CampaignError::UnknownFilesystem(point.fs.to_string()))?;
    let atoms = atoms_by_name(&point.atoms)
        .ok_or_else(|| CampaignError::UnknownAtomSet(point.atoms.to_string()))?;
    let order = sample_order_by_name(&point.sample_order)
        .ok_or_else(|| CampaignError::UnknownSampleOrder(point.sample_order.to_string()))?;
    Ok(EmulationPlan {
        kernel,
        threads: point.threads,
        mode,
        io_write_block: point.io_block,
        io_read_block: point.io_block,
        target_fs,
        emulate_compute: atoms.compute,
        emulate_memory: atoms.memory,
        emulate_storage: atoms.storage,
        emulate_network: atoms.network,
        preserve_sample_order: sample_order_preserves(order),
        ..Default::default()
    })
}

/// Simulate one scenario point (no cache involved).
///
/// The pipeline per point mirrors the paper's workflow — profile the
/// workload on the profiling machine at the requested sample rate,
/// replay the profile through the emulator on the target machine with
/// the requested kernel/parallelism/I/O plan — as one streaming pass:
/// each sample's demands are synthesized and priced in collection
/// order and then dropped, so no profile is ever materialized. The
/// application's own modelled runtime on the target machine is
/// computed alongside as the fidelity baseline.
pub fn simulate_point(point: &ScenarioPoint) -> Result<PointResult, CampaignError> {
    simulate_point_keyed(point, Fingerprint::of(point))
}

/// [`simulate_point`] for a caller that already holds the point's
/// [`Fingerprint`] (the engine computes it for the cache probe).
pub(crate) fn simulate_point_keyed(
    point: &ScenarioPoint,
    fingerprint: Fingerprint,
) -> Result<PointResult, CampaignError> {
    let app = app_by_name(&point.workload)
        .ok_or_else(|| CampaignError::UnknownWorkload(point.workload.to_string()))?;
    let profile_machine = synapse_sim::machine_ref(&point.profile_machine)
        .ok_or_else(|| CampaignError::UnknownMachine(point.profile_machine.to_string()))?;
    let machine = synapse_sim::machine_ref(&point.machine)
        .ok_or_else(|| CampaignError::UnknownMachine(point.machine.to_string()))?;
    let plan = emulation_plan(point)?;
    let mode = plan.mode;

    let mut profile_noise = Noise::new(point.seed, point.noise_cv);
    let samples = app.profile_samples(
        profile_machine,
        point.steps,
        point.sample_rate,
        &mut profile_noise,
    );
    let report = Emulator::new(plan).price(samples.demands(), machine);

    // Application baseline on the target machine, with its own noise
    // stream (decorrelated from the profiling noise).
    let mut app_noise = Noise::new(fnv1a(b"app-baseline", point.seed), point.noise_cv);
    let app_run = if point.threads > 1 {
        app.execute_parallel(machine, point.steps, point.threads, mode, &mut app_noise)
    } else {
        app.execute(machine, point.steps, &mut app_noise)
    };

    Ok(PointResult {
        fingerprint,
        point: *point,
        tx: report.tx,
        app_tx: app_run.tx,
        samples: report.samples,
        directed_cycles: report.consumed.directed_cycles,
        consumed_cycles: report.consumed.cycles,
        instructions: report.consumed.instructions,
        bytes_written: report.consumed.bytes_written,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ResultCache;
    use crate::engine::{CampaignEngine, CancelToken};
    use crate::grid::expand;
    use crate::spec::CampaignSpec;

    fn sweep(
        points: &[ScenarioPoint],
        cache: &ResultCache,
        config: &RunConfig,
    ) -> Result<(Vec<PointResult>, RunStats), CampaignError> {
        CampaignEngine::new(points, cache, config).run(&|_| {}, &CancelToken::new())
    }

    fn small_spec() -> CampaignSpec {
        CampaignSpec::from_toml(
            r#"
            name = "runner"
            seed = 11
            machines = ["thinkie", "comet", "titan"]
            kernels = ["asm", "c"]

            [[workloads]]
            app = "gromacs"
            steps = [10000, 50000]
            "#,
        )
        .unwrap()
    }

    #[test]
    fn simulate_point_produces_consistent_physics() {
        let points = expand(&small_spec());
        let r = simulate_point(&points[0]).unwrap();
        assert!(r.tx > 1.0, "startup second accounted: {}", r.tx);
        assert!(r.app_tx > 0.0);
        assert!(r.samples > 0);
        assert!(r.consumed_cycles >= r.directed_cycles);
        assert!(r.instructions > 0);
        assert!(r.overshoot_frac() >= 0.0);
    }

    #[test]
    fn simulation_is_deterministic() {
        let points = expand(&small_spec());
        let a = simulate_point(&points[3]).unwrap();
        let b = simulate_point(&points[3]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_run_matches_grid_order_and_counts() {
        let points = expand(&small_spec());
        let cache = ResultCache::in_memory();
        let (results, stats) = sweep(&points, &cache, &RunConfig { workers: 4 }).unwrap();
        assert_eq!(results.len(), points.len());
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.point.index, i, "grid order preserved");
        }
        assert_eq!(stats.points, points.len());
        assert_eq!(stats.simulated, points.len());
        assert_eq!(stats.cache_hits, 0);
        assert!(stats.points_per_sec() > 0.0);
    }

    #[test]
    fn second_run_is_all_cache_hits_and_skips_simulation() {
        let points = expand(&small_spec());
        let cache = ResultCache::in_memory();
        let config = RunConfig { workers: 3 };
        let (first, s1) = sweep(&points, &cache, &config).unwrap();
        assert_eq!(s1.simulated, points.len());
        let (second, s2) = sweep(&points, &cache, &config).unwrap();
        assert_eq!(s2.simulated, 0, "cache must satisfy every point");
        assert_eq!(s2.cache_hits, points.len());
        assert_eq!(s2.hit_rate(), 1.0);
        assert_eq!(first, second, "cached results identical");
    }

    #[test]
    fn grown_campaign_only_simulates_new_points() {
        let spec = small_spec();
        let cache = ResultCache::in_memory();
        let config = RunConfig::default();
        let (_, s1) = sweep(&expand(&spec), &cache, &config).unwrap();
        assert_eq!(s1.simulated, spec.point_count());

        let mut grown = spec.clone();
        grown.machines.push("stampede".into());
        let grown_points = expand(&grown);
        let (results, s2) = sweep(&grown_points, &cache, &config).unwrap();
        let new_points = grown.point_count() - spec.point_count();
        assert_eq!(s2.simulated, new_points, "only the new machine simulates");
        assert_eq!(s2.cache_hits, spec.point_count());
        assert_eq!(results.len(), grown.point_count());
        for (i, r) in results.iter().enumerate() {
            assert_eq!(
                r.point.index, i,
                "cache hits must be rebound to the grown grid's indices"
            );
        }
    }

    #[test]
    fn workers_dont_change_results() {
        let points = expand(&small_spec());
        let serial = sweep(
            &points,
            &ResultCache::in_memory(),
            &RunConfig { workers: 1 },
        )
        .unwrap()
        .0;
        let parallel = sweep(
            &points,
            &ResultCache::in_memory(),
            &RunConfig { workers: 8 },
        )
        .unwrap()
        .0;
        assert_eq!(serial, parallel);
    }

    #[test]
    fn fs_and_atom_axes_change_the_simulation() {
        let points = expand(&small_spec());
        let base = &points[0];

        // Compute-only ablation drops storage/memory/network time.
        let mut compute_only = *base;
        compute_only.atoms = "compute".into();
        let full = simulate_point(base).unwrap();
        let ablated = simulate_point(&compute_only).unwrap();
        assert!(ablated.tx <= full.tx, "{} > {}", ablated.tx, full.tx);
        assert_eq!(ablated.bytes_written, 0, "storage atom disabled");
        assert!(full.bytes_written > 0);

        // A no-compute ablation consumes no cycles.
        let mut no_compute = *base;
        no_compute.atoms = "no-compute".into();
        let nc = simulate_point(&no_compute).unwrap();
        assert_eq!(nc.consumed_cycles, 0);

        // Retargeting the filesystem changes the I/O pricing (Titan
        // models both Lustre — its default — and node-local disk).
        // Storage-only ablation makes the I/O time the sample time, so
        // the repricing is visible in tx even when compute would
        // otherwise dominate the per-sample max.
        let mut titan = *points
            .iter()
            .find(|p| p.machine == "titan")
            .expect("titan on the axis");
        titan.atoms = "storage".into();
        let on_lustre = simulate_point(&titan).unwrap();
        let mut local = titan;
        local.fs = "local".into();
        let on_local = simulate_point(&local).unwrap();
        assert_ne!(on_local.tx, on_lustre.tx, "fs retarget reprices I/O");
    }

    #[test]
    fn sample_order_axis_changes_the_replay() {
        // The shuffle ablation merges the profile into one
        // all-concurrent sample: same resource totals, different
        // concurrency structure, so Tx moves (Fig. 2's point).
        let points = expand(&small_spec());
        let base = &points[0];
        let preserved = simulate_point(base).unwrap();
        let mut shuffled_point = *base;
        shuffled_point.sample_order = "shuffle".into();
        let shuffled = simulate_point(&shuffled_point).unwrap();
        assert_eq!(
            preserved.directed_cycles, shuffled.directed_cycles,
            "ablation reorders, it does not change the directed work"
        );
        assert_ne!(
            preserved.tx, shuffled.tx,
            "merged replay prices concurrency differently"
        );
        assert_eq!(shuffled.samples, 1, "whole profile merged into one sample");
    }

    #[test]
    fn faster_reference_machines_emulate_faster() {
        // Physics sanity through the whole campaign path: the same
        // workload finishes sooner on Stampede than on the laptop.
        let mut spec = small_spec();
        spec.machines = vec!["thinkie".into(), "stampede".into()];
        spec.kernels = vec!["asm".into()];
        let points = expand(&spec);
        let (results, _) =
            sweep(&points, &ResultCache::in_memory(), &RunConfig::default()).unwrap();
        let tx_of = |machine: &str, steps: u64| {
            results
                .iter()
                .find(|r| r.point.machine == machine && r.point.steps == steps)
                .unwrap()
                .tx
        };
        assert!(tx_of("stampede", 50000) < tx_of("thinkie", 50000));
    }
}
