//! The workload and metric catalog: names, units, directions, bounds.
//! `BENCHMARK.json` and the README repeat it; a test keeps
//! `BENCHMARK.json` in step.

use crate::specgen::Grid;
use crate::verify::Source;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Never-seen specs against fresh in-memory servers.
    ServeCold,
    /// One pre-warmed spec resubmitted to one server.
    ServeWarm,
    /// The pre-warmed spec fanned out over a coordinator and 2 workers.
    ClusterWarm,
    /// In-process sweeps of the long-profile grid.
    SweepLong,
    /// Cold sweep into a fresh cache directory, then a rerun from it.
    DiskRerun,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::ServeCold,
        Workload::ServeWarm,
        Workload::ClusterWarm,
        Workload::SweepLong,
        Workload::DiskRerun,
    ];

    /// Whether `BENCHMARK.json` lists the workload, so that a later
    /// change is gated on it. `disk_rerun` is measured by `run` but not gated: its
    /// scratch directory has to stay inside the checkout, and on the
    /// sandbox's ext4 disk its throughput moves by half between
    /// identical runs, more than any bound may allow.
    pub fn gated(self) -> bool {
        self != Workload::DiskRerun
    }

    /// The name used on the command line and in result files.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeCold => "serve_cold",
            Workload::ServeWarm => "serve_warm",
            Workload::ClusterWarm => "cluster_warm",
            Workload::SweepLong => "sweep_long",
            Workload::DiskRerun => "disk_rerun",
        }
    }

    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark.
    pub fn why(self) -> &'static str {
        match self {
            Workload::ServeCold => {
                "never-seen specs on fresh servers: simulate, cache.put and the stream path share the time"
            }
            Workload::ServeWarm => {
                "one cached spec resubmitted: fingerprint, cache.get, event ring, chunking, socket and client parse only"
            }
            Workload::ClusterWarm => {
                "cached spec over a coordinator and 2 workers: lease planning, batch frames, collector and digest merge"
            }
            Workload::SweepLong => {
                "in-process sweeps of 750-1500-sample profiles: the simulator's per-sample loops are over 90% of the time"
            }
            Workload::DiskRerun => {
                "cold sweep into a fresh cache directory then a rerun from it: the sharded store's save and open paths"
            }
        }
    }

    /// The grid the workload's jobs sweep.
    pub fn grid(self) -> Grid {
        match self {
            Workload::SweepLong => Grid::Long,
            _ => Grid::Short,
        }
    }

    /// Where the points of a timed job must come from (for
    /// `disk_rerun`, those of the second half; the first is simulated).
    pub fn source(self) -> Source {
        match self {
            Workload::ServeCold | Workload::SweepLong => Source::Simulated,
            Workload::ServeWarm | Workload::ClusterWarm | Workload::DiskRerun => Source::Cached,
        }
    }

    /// Whether jobs travel through a server.
    pub fn served(self) -> bool {
        matches!(
            self,
            Workload::ServeCold | Workload::ServeWarm | Workload::ClusterWarm
        )
    }

    /// Points a timed job accounts for: `disk_rerun` sweeps its grid
    /// twice per iteration.
    pub fn points_per_job(self) -> usize {
        match self {
            Workload::DiskRerun => 2 * self.grid().points(),
            _ => self.grid().points(),
        }
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses (`run` prints it beside each
    /// per-layer number).
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: the same name on every workload.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the baseline by which it may worsen before the change
    /// counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics. `failed_frac` is not among them: the result
/// line carries it as `failed` over `attempted`, and a metric that is
/// always 0 cannot have a relative bound. The timing bounds are the
/// widest the contract allows: on the shared sandbox, identical runs
/// spread by 5-17% (see the README), so a tighter bound would reject
/// the benchmark itself.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "points_per_s",
        unit: "points/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "first_point_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_point",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_error_pct",
        unit: "%",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric of the traced pass.
pub struct PerLayer {
    /// Metric name (`<layer>.<what>`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// The per-layer metrics, grouped by layer. A layer a workload does
/// not execute reports 0 there. The README's interaction table says
/// which end-to-end metric each one should move, and where.
pub const PER_LAYER: [PerLayer; 51] = [
    layer("spec.parse_us", "us", Lower),
    layer("grid.expand_us_per_point", "us", Lower),
    layer("grid.points", "count", Higher),
    layer("cache.fingerprint_us", "us", Lower),
    layer("cache.get_hit_us", "us", Lower),
    layer("cache.get_miss_us", "us", Lower),
    layer("cache.put_us", "us", Lower),
    layer("cache.hit_ratio", "ratio", Higher),
    layer("cache.put_us_at_100k", "us", Lower),
    layer("cache.rss_kb_per_result", "kB", Lower),
    layer("runner.resolve_us", "us", Lower),
    layer("runner.simulate_point_us", "us", Lower),
    layer("workloads.profile_synth_us", "us", Lower),
    layer("workloads.app_baseline_us", "us", Lower),
    layer("workloads.samples_per_point", "count", Lower),
    layer("emulator.simulate_us", "us", Lower),
    layer("emulator.ns_per_sample", "ns", Lower),
    layer("live.record_us", "us", Lower),
    layer("live.render_us", "us", Lower),
    layer("report.assemble_us_per_point", "us", Lower),
    layer("report.to_json_us_per_point", "us", Lower),
    layer("aggregate.axis_slices_us_per_point", "us", Lower),
    layer("store.save_ms", "ms", Lower),
    layer("store.open_ms", "ms", Lower),
    layer("store.save_bytes", "bytes", Lower),
    layer("store.dirty_shards", "count", Lower),
    layer("store.upsert_us", "us", Lower),
    layer("store.get_us", "us", Lower),
    layer("http.parse_request_us", "us", Lower),
    layer("http.chunk_us_per_kb", "us", Lower),
    layer("server.submit_ack_ms", "ms", Lower),
    layer("server.stream_us_per_point", "us", Lower),
    layer("server.wire_bytes_per_point", "bytes", Lower),
    layer("server.job_ms_p95", "ms", Lower),
    layer("server.healthz_rtt_ms", "ms", Lower),
    layer("server.metrics_render_ms", "ms", Lower),
    layer("server.residual_us_per_point", "us", Lower),
    layer("server.poll_passes_per_job", "count", Lower),
    layer("server.wake_batch_mean", "count", Higher),
    layer("cluster.plan_leases_us", "us", Lower),
    layer("cluster.lease_request_us", "us", Lower),
    layer("cluster.batch_decode_us_per_point", "us", Lower),
    layer("cluster.collector_us_per_point", "us", Lower),
    layer("cluster.digest_merge_us", "us", Lower),
    layer("cluster.leases_per_job", "count", Lower),
    layer("cluster.points_per_batch", "count", Higher),
    layer("cluster.reassigned", "count", Lower),
    layer("cluster.splits", "count", Lower),
    layer("budget.coverage", "ratio", Higher),
    layer("trace.overhead_frac", "ratio", Lower),
    layer("host.spin_ms", "ms", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` spells every workload and metric exactly as
    /// the catalog does, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc[key]
                .as_array()
                .unwrap()
                .iter()
                .map(|m| m["name"].as_str().unwrap().to_string())
                .collect()
        };
        let gated: Vec<Workload> = Workload::ALL.into_iter().filter(|w| w.gated()).collect();
        let workloads: Vec<&str> = gated.iter().map(|w| w.name()).collect();
        assert_eq!(names("workloads"), workloads);
        for (entry, workload) in doc["workloads"].as_array().unwrap().iter().zip(gated) {
            assert_eq!(entry["why"].as_str(), Some(workload.why()));
        }
        let end_to_end = doc["end_to_end"].as_array().unwrap();
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (entry, metric) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(entry["name"].as_str(), Some(metric.name));
            assert_eq!(entry["unit"].as_str(), Some(metric.unit));
            assert_eq!(entry["better"].as_str(), Some(metric.better.word()));
            assert_eq!(entry["bound"].as_f64(), Some(metric.bound));
        }
        let per_layer = doc["per_layer"].as_array().unwrap();
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (entry, metric) in per_layer.iter().zip(&PER_LAYER) {
            assert_eq!(entry["name"].as_str(), Some(metric.name));
            assert_eq!(entry["unit"].as_str(), Some(metric.unit));
            assert_eq!(entry["better"].as_str(), Some(metric.better.word()));
        }
        assert_eq!(doc["paths"], serde_json::json!(["benchmark"]));
    }
}
