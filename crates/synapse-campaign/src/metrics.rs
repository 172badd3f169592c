//! The engine's handles into the process-wide telemetry registry.
//!
//! Resolved once (behind a `OnceLock`) and then updated through plain
//! atomics, so the sweep hot loop never touches the registry lock.
//! Series follow the workspace naming scheme
//! (`synapse_engine_<name>`, base units, `_total` on counters); the
//! full catalog lives in the README's Observability section.

use std::sync::{Arc, OnceLock};

use synapse_telemetry::{global, Counter, Histogram, DURATION_BUCKETS};

/// Per-stage wall-time histograms plus the per-point latency series.
pub(crate) struct EngineMetrics {
    /// Latency of `simulate_point` for points that missed the cache.
    pub simulate_seconds: Arc<Histogram>,
    /// Latency of the result-cache probe (hit or miss).
    pub cache_lookup_seconds: Arc<Histogram>,
    /// Points served from the result cache.
    pub cache_hits: Arc<Counter>,
    /// Points that missed the cache and were simulated.
    pub cache_misses: Arc<Counter>,
    /// Profile samples replayed by the simulated points: with
    /// `simulate_seconds`' sum, the ns per sample that tells a sweep of
    /// long profiles from a slow pricing loop.
    pub samples_replayed: Arc<Counter>,
    /// Points executed (hits + misses), across all campaigns.
    pub points: Arc<Counter>,
    /// Campaigns run to completion in this process.
    pub campaigns: Arc<Counter>,
    /// Grid-expansion wall time per campaign.
    pub stage_expansion: Arc<Histogram>,
    /// Sweep (simulate/lookup pool) wall time per campaign.
    pub stage_sweep: Arc<Histogram>,
    /// Aggregation (persist + report assembly) wall time per campaign.
    pub stage_aggregation: Arc<Histogram>,
}

impl EngineMetrics {
    /// The process-wide handles (registering the series on first use).
    pub fn get() -> &'static EngineMetrics {
        static METRICS: OnceLock<EngineMetrics> = OnceLock::new();
        METRICS.get_or_init(|| {
            let r = global();
            let stage = |name: &str| {
                r.histogram_with(
                    "synapse_engine_stage_seconds",
                    "Wall time of one campaign stage (expansion, sweep, aggregation), per campaign run.",
                    DURATION_BUCKETS,
                    &[("stage", name)],
                )
            };
            EngineMetrics {
                simulate_seconds: r.histogram(
                    "synapse_engine_simulate_seconds",
                    "Per-point simulation latency (cache misses only).",
                    DURATION_BUCKETS,
                ),
                cache_lookup_seconds: r.histogram(
                    "synapse_engine_cache_lookup_seconds",
                    "Per-point result-cache probe latency.",
                    DURATION_BUCKETS,
                ),
                cache_hits: r.counter(
                    "synapse_engine_cache_hits_total",
                    "Points served from the result cache.",
                ),
                cache_misses: r.counter(
                    "synapse_engine_cache_misses_total",
                    "Points that missed the cache and were simulated.",
                ),
                samples_replayed: r.counter(
                    "synapse_engine_samples_replayed_total",
                    "Profile samples replayed by simulated points (cache misses only); synapse_engine_simulate_seconds_sum over this is seconds per sample.",
                ),
                points: r.counter(
                    "synapse_engine_points_total",
                    "Scenario points executed (cache hits included).",
                ),
                campaigns: r.counter(
                    "synapse_engine_campaigns_total",
                    "Campaigns run to completion by this process.",
                ),
                stage_expansion: stage("expansion"),
                stage_sweep: stage("sweep"),
                stage_aggregation: stage("aggregation"),
            }
        })
    }
}

/// The engine's per-point latency histograms, as `/metrics` exposes
/// them: `("simulate", …)` over cache misses, `("cache lookup", …)`
/// over every probe.
pub fn point_latency() -> [(&'static str, &'static Histogram); 2] {
    let metrics = EngineMetrics::get();
    [
        ("simulate", &metrics.simulate_seconds),
        ("cache lookup", &metrics.cache_lookup_seconds),
    ]
}
