//! The coordinator's handles into the process-wide telemetry registry
//! (`synapse_cluster_<name>` series; the README catalog is rendered
//! from the registry).

use std::sync::{Arc, OnceLock};

use synapse_telemetry::{exponential_buckets, global, Counter, Gauge, Histogram, DURATION_BUCKETS};

/// Lease-lifecycle counters, worker gauges, and probe latency.
pub(crate) struct ClusterMetrics {
    /// Leases handed to a driver (first claims and reclaims alike).
    pub leases_assigned: Arc<Counter>,
    /// Leases whose every point arrived.
    pub leases_completed: Arc<Counter>,
    /// Lease runs that ended in failure (transport, worker error).
    pub leases_failed: Arc<Counter>,
    /// Assignments of a lease that had been claimed before — the
    /// work-stealing / failure-recovery signal.
    pub leases_reassigned: Arc<Counter>,
    /// Leases the coordinator swept itself after fan-out.
    pub leases_local_fallback: Arc<Counter>,
    /// Straggler tails speculatively re-offered as brand-new leases
    /// by an idle driver.
    pub leases_split: Arc<Counter>,
    /// Points per merged `batch` frame — the transport-efficiency
    /// signal (a warm cluster should sit near `DEFAULT_BATCH_POINTS`;
    /// a cold one is spread by landing jitter).
    pub batch_points: Arc<Histogram>,
    /// Liveness-probe (`GET /healthz`) latency against workers.
    pub probe_seconds: Arc<Histogram>,
}

impl ClusterMetrics {
    /// The process-wide handles (registering the series on first use).
    pub fn get() -> &'static ClusterMetrics {
        static METRICS: OnceLock<ClusterMetrics> = OnceLock::new();
        METRICS.get_or_init(|| {
            let r = global();
            ClusterMetrics {
                leases_assigned: r.counter(
                    "synapse_cluster_leases_assigned_total",
                    "Leases assigned to worker drivers (reassignments included).",
                ),
                leases_completed: r.counter(
                    "synapse_cluster_leases_completed_total",
                    "Leases fully streamed back from a worker.",
                ),
                leases_failed: r.counter(
                    "synapse_cluster_leases_failed_total",
                    "Lease runs that failed and were released for retry.",
                ),
                leases_reassigned: r.counter(
                    "synapse_cluster_leases_reassigned_total",
                    "Leases claimed again after an earlier claim released them.",
                ),
                leases_local_fallback: r.counter(
                    "synapse_cluster_leases_local_fallback_total",
                    "Leases the coordinator swept through its own engine.",
                ),
                leases_split: r.counter(
                    "synapse_cluster_leases_split_total",
                    "Straggler lease tails re-offered as new speculative leases.",
                ),
                batch_points: r.histogram(
                    "synapse_cluster_batch_points",
                    "Points per merged lease batch frame.",
                    &exponential_buckets(1.0, 2.0, 12),
                ),
                probe_seconds: r.histogram(
                    "synapse_cluster_probe_seconds",
                    "Worker liveness-probe latency.",
                    DURATION_BUCKETS,
                ),
            }
        })
    }

    /// The labeled per-worker throughput gauge, refreshed after every
    /// completed lease (points of the lease / wall seconds it took).
    pub fn worker_throughput(worker: &str) -> Arc<Gauge> {
        global().gauge_with(
            "synapse_cluster_worker_points_per_sec",
            "Most recent per-lease throughput of one worker; weights the next plan's lease sizes.",
            &[("worker", worker)],
        )
    }
}
