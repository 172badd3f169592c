//! The per-layer replay of a traced job: the job's spec is run again
//! in-process, one pass per layer over all of its points, each pass a
//! span around calls into that layer's public functions.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use synapse::emulator::Emulator;
use synapse_campaign::grid::{app_by_name, fnv1a};
use synapse_campaign::runner::emulation_plan;
use synapse_campaign::{
    aggregate, expand, fingerprint, plan_leases, simulate_point, CampaignReport, CampaignSpec,
    LiveAggregates, PointResult, ResultCache, ScenarioPoint,
};
use synapse_cluster::protocol::{lease_request_json, parse_event, WorkerEvent};
use synapse_cluster::Collector;
use synapse_server::http::{append_chunk, RequestParser};
use synapse_server::{lease_batch_line, DEFAULT_BATCH_POINTS};
use synapse_sim::{machine_by_name, Noise};
use synapse_store::{Document, ShardedDb, DEFAULT_DOC_LIMIT};

use crate::catalog::Workload;
use crate::trace::Tracer;

/// Span names whose self times add up to the in-process cost of a job.
/// The passes left out re-measure a part of one of these (the pieces
/// of `runner.simulate_point`, `aggregate.axis_slices` inside
/// `report.assemble`, the store calls under `cache.put`/`cache.get`),
/// so adding them would count that time twice.
pub const BUDGET_LAYERS: [&str; 24] = [
    "spec.parse",
    "grid.expand",
    "cache.fingerprint",
    "cache.get_hit",
    "cache.get_miss",
    "cache.put",
    "runner.simulate_point",
    "live.record",
    "live.render",
    "report.assemble",
    "report.to_json",
    "store.open_empty",
    "store.save",
    "store.open",
    "store.save_clean",
    "http.parse_request",
    "http.chunk",
    "cluster.plan_leases",
    "cluster.lease_request",
    "cluster.batch_encode",
    "cluster.batch_decode",
    "cluster.collector",
    "cluster.digest",
    "cluster.digest_merge",
];

/// Leases a coordinator plans per job with two workers
/// (`ClusterConfig::default().leases_per_worker` each).
const LEASES_PER_JOB: usize = 8;

/// What one replay learned beyond its spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayCounts {
    /// Profile samples replayed by the emulator, over all points.
    pub samples: u64,
    /// Bytes the store wrote for the job's results.
    pub save_bytes: u64,
    /// Shard files the save rewrote.
    pub dirty_shards: u64,
}

/// The simulator's own pieces, in the order `simulate_point` calls
/// them. Each point's profile is synthesized, replayed and dropped
/// before the next, as in the real call (a pass per piece would hold
/// every profile at once and time page faults, not the pieces), so the
/// pieces are clocked per point, summed, and laid end to end inside
/// the `runner.pieces` span: their lengths are measured, their
/// positions are not. Returns the samples replayed.
fn replay_simulator(t: &mut Tracer, parent: usize, job: u64, points: &[ScenarioPoint]) -> u64 {
    let mut samples = 0;
    let mut spent = [Duration::ZERO; 4];
    let pass = t.open("runner.pieces", Some(parent), job);
    for p in points {
        let t0 = Instant::now();
        let app = app_by_name(&p.workload).expect("catalog app");
        let profile_machine = machine_by_name(&p.profile_machine).expect("catalog machine");
        let machine = machine_by_name(&p.machine).expect("catalog machine");
        let plan = emulation_plan(p).expect("valid plan");
        let mode = plan.mode;
        let t1 = Instant::now();
        let mut noise = Noise::new(p.seed, p.noise_cv);
        let profile = app.simulate_profile(&profile_machine, p.steps, p.sample_rate, &mut noise);
        let t2 = Instant::now();
        samples += Emulator::new(plan).simulate(&profile, &machine).samples as u64;
        let t3 = Instant::now();
        let mut noise = Noise::new(fnv1a(b"app-baseline", p.seed), p.noise_cv);
        let run = if p.threads > 1 {
            app.execute_parallel(&machine, p.steps, p.threads, mode, &mut noise)
        } else {
            app.execute(&machine, p.steps, &mut noise)
        };
        std::hint::black_box(run);
        let t4 = Instant::now();
        for (total, (from, to)) in spent
            .iter_mut()
            .zip([(t0, t1), (t1, t2), (t2, t3), (t3, t4)])
        {
            *total += to.duration_since(from);
        }
    }
    t.close(pass);
    let names = [
        "runner.resolve",
        "workloads.profile_synth",
        "emulator.simulate",
        "workloads.app_baseline",
    ];
    t.pack(pass, points.len() as u64, names.into_iter().zip(spent));
    samples
}

/// The coordinator's and the workers' share of one distributed job.
fn replay_cluster(
    t: &mut Tracer,
    parent: usize,
    job: u64,
    spec: &CampaignSpec,
    results: &[PointResult],
    worker_live: &LiveAggregates,
) {
    let n = results.len() as u64;
    let leases = t.time("cluster.plan_leases", Some(parent), job, 1, || {
        plan_leases(results.len(), LEASES_PER_JOB, 0, &[1.0, 1.0])
    });
    t.time(
        "cluster.lease_request",
        Some(parent),
        job,
        leases.len() as u64,
        || {
            for lease in &leases {
                std::hint::black_box(lease_request_json(spec, lease));
            }
        },
    );
    let shared: Vec<(Arc<PointResult>, bool)> = results
        .iter()
        .map(|r| (Arc::new(r.clone()), true))
        .collect();
    let lines = t.time("cluster.batch_encode", Some(parent), job, n, || {
        shared
            .chunks(DEFAULT_BATCH_POINTS)
            .map(|batch| lease_batch_line(batch, None))
            .collect::<Vec<_>>()
    });
    let batches = t.time("cluster.batch_decode", Some(parent), job, n, || {
        lines
            .iter()
            .map(|line| match parse_event(line) {
                Some(WorkerEvent::Batch(points)) => points,
                other => panic!("batch line decoded as {other:?}"),
            })
            .collect::<Vec<_>>()
    });
    let collector = Collector::new(results.len());
    t.time("cluster.collector", Some(parent), job, n, || {
        for batch in batches {
            collector.record_batch(batch, &|_| {});
        }
    });
    assert!(collector.is_complete(), "replayed batches cover the grid");
    let digest = t.time("cluster.digest", Some(parent), job, 1, || {
        worker_live.digest()
    });
    let merged = LiveAggregates::new();
    t.time("cluster.digest_merge", Some(parent), job, 1, || {
        merged.merge_digest(&digest).expect("own digest merges")
    });
}

/// One half of a `disk_rerun` iteration against `dir`: open, probe,
/// (simulate and put when cold,) save. Returns the results. The cold
/// half's open finds an empty directory and the warm half's save has
/// nothing to write; they are spans of their own so that `store.open`
/// and `store.save` time the load and the write only.
fn replay_disk_half(
    t: &mut Tracer,
    parent: usize,
    job: u64,
    dir: &Path,
    points: &[ScenarioPoint],
    prints: &[String],
    counts: &mut ReplayCounts,
) -> Vec<PointResult> {
    let n = points.len() as u64;
    let cold = !dir.exists();
    let (open, save) = if cold {
        ("store.open_empty", "store.save")
    } else {
        ("store.open", "store.save_clean")
    };
    let cache = t.time(open, Some(parent), job, 1, || {
        ResultCache::open_with_workers(dir, 1).expect("cache dir opens")
    });
    let results = if cold {
        probe_misses(t, parent, job, &cache, prints);
        let results = simulate_all(t, parent, job, points);
        put_all(t, parent, job, &cache, prints, &results);
        results
    } else {
        probe_hits(t, parent, job, &cache, prints)
    };
    let saved = t.time(save, Some(parent), job, 1, || {
        cache.persist().expect("cache persists")
    });
    if cold {
        counts.dirty_shards = saved.data_files_written as u64;
        counts.save_bytes = cache.stats().bytes_on_disk;
        // The raw store calls underneath `cache.put` / `cache.get`,
        // on a store of the same size (in memory: nothing to clean up).
        let docs: Vec<Document> = prints
            .iter()
            .zip(&results)
            .map(|(print, result)| Document::new(print.as_str(), result).expect("result encodes"))
            .collect();
        let db = ShardedDb::in_memory_with_limit(DEFAULT_DOC_LIMIT);
        t.time("store.upsert", Some(parent), job, n, || {
            for doc in docs {
                db.upsert(doc).expect("upsert");
            }
        });
        t.time("store.get", Some(parent), job, n, || {
            for print in prints {
                std::hint::black_box(db.get(print));
            }
        });
    }
    results
}

fn probe_misses(t: &mut Tracer, parent: usize, job: u64, cache: &ResultCache, prints: &[String]) {
    t.time(
        "cache.get_miss",
        Some(parent),
        job,
        prints.len() as u64,
        || {
            for print in prints {
                assert!(cache.get(print).is_none(), "cold cache holds {print}");
            }
        },
    );
}

fn probe_hits(
    t: &mut Tracer,
    parent: usize,
    job: u64,
    cache: &ResultCache,
    prints: &[String],
) -> Vec<PointResult> {
    t.time(
        "cache.get_hit",
        Some(parent),
        job,
        prints.len() as u64,
        || {
            prints
                .iter()
                .map(|print| cache.get(print).expect("warm cache holds every point"))
                .collect()
        },
    )
}

fn simulate_all(
    t: &mut Tracer,
    parent: usize,
    job: u64,
    points: &[ScenarioPoint],
) -> Vec<PointResult> {
    t.time(
        "runner.simulate_point",
        Some(parent),
        job,
        points.len() as u64,
        || {
            points
                .iter()
                .map(|p| simulate_point(p).expect("point simulates"))
                .collect()
        },
    )
}

fn put_all(
    t: &mut Tracer,
    parent: usize,
    job: u64,
    cache: &ResultCache,
    prints: &[String],
    results: &[PointResult],
) {
    t.time("cache.put", Some(parent), job, results.len() as u64, || {
        for (print, result) in prints.iter().zip(results) {
            cache.put(print, result).expect("cache put");
        }
    });
}

/// Replay `spec_text` the way `workload` executes it, under a `replay`
/// span of job `job`. `warm` is a cache already holding the spec's
/// results (the warm workloads probe it); `dir` is a fresh scratch
/// directory for `disk_rerun`.
pub fn replay(
    t: &mut Tracer,
    workload: Workload,
    job: u64,
    spec_text: &str,
    warm: Option<&ResultCache>,
    dir: &Path,
) -> ReplayCounts {
    let mut counts = ReplayCounts::default();
    let root = t.open("replay", None, job);
    let spec = t.time("spec.parse", Some(root), job, 1, || {
        CampaignSpec::from_json(spec_text).expect("generated spec parses")
    });
    let n = spec.point_count() as u64;
    let points = t.time("grid.expand", Some(root), job, n, || expand(&spec));
    let prints: Vec<String> = t.time("cache.fingerprint", Some(root), job, n, || {
        points.iter().map(fingerprint).collect()
    });

    let results = match workload {
        Workload::ServeCold | Workload::SweepLong => {
            let cache = ResultCache::in_memory();
            probe_misses(t, root, job, &cache, &prints);
            counts.samples = replay_simulator(t, root, job, &points);
            let results = simulate_all(t, root, job, &points);
            put_all(t, root, job, &cache, &prints, &results);
            results
        }
        Workload::ServeWarm | Workload::ClusterWarm => {
            let warm = warm.expect("warm workloads carry a filled cache");
            probe_hits(t, root, job, warm, &prints)
        }
        Workload::DiskRerun => {
            let cold = replay_disk_half(t, root, job, dir, &points, &prints, &mut counts);
            // The rerun expands and fingerprints the same spec again.
            let points = t.time("grid.expand", Some(root), job, n, || expand(&spec));
            let prints: Vec<String> = t.time("cache.fingerprint", Some(root), job, n, || {
                points.iter().map(fingerprint).collect()
            });
            let warm = replay_disk_half(t, root, job, dir, &points, &prints, &mut counts);
            assert_eq!(cold.len(), warm.len());
            let _ = std::fs::remove_dir_all(dir);
            warm
        }
    };

    // Served jobs fold every point into the live view and emit one
    // terminal snapshot of it; on a cluster the workers do the folding
    // and ship digests.
    let live = LiveAggregates::new();
    if workload.served() {
        t.time("live.record", Some(root), job, n, || {
            for result in &results {
                live.record(result);
            }
        });
    }
    match workload {
        Workload::ServeCold | Workload::ServeWarm => {
            t.time("live.render", Some(root), job, 1, || {
                let (slices, _) = live.delta_since(0);
                serde_json::to_string(&slices).expect("snapshot serializes")
            });
        }
        Workload::ClusterWarm => replay_cluster(t, root, job, &spec, &results, &live),
        Workload::SweepLong | Workload::DiskRerun => {}
    }

    // Every path ends by assembling the report; only the in-process
    // paths render it inside the job (`disk_rerun` once per half).
    let halves = if workload == Workload::DiskRerun {
        2
    } else {
        1
    };
    for _ in 0..halves {
        t.time("aggregate.axis_slices", Some(root), job, n, || {
            aggregate::axis_slices(&results)
        });
        let report = t.time("report.assemble", Some(root), job, n, || {
            CampaignReport::assemble(&spec, &results).expect("report assembles")
        });
        if !workload.served() {
            t.time("report.to_json", Some(root), job, n, || {
                report.to_json().expect("report renders")
            });
        }
    }
    t.close(root);
    counts
}

/// One `POST /campaigns?watch=1` request fed to the incremental parser
/// in socket-sized pieces, and the job's point lines framed as chunks:
/// the two `http` calls the reactor makes per job.
pub fn replay_http(t: &mut Tracer, job: u64, spec_text: &str, point_bytes: usize) {
    let request = format!(
        "POST /campaigns?watch=1 HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{spec_text}",
        spec_text.len()
    );
    t.time("http.parse_request", None, job, 1, || {
        let mut parser = RequestParser::new();
        let mut parsed = None;
        for piece in request.as_bytes().chunks(4096) {
            parsed = parser.feed(piece).expect("request parses");
        }
        parsed.expect("request completes")
    });
    // The reactor frames whatever the ring holds per wake; 16 KiB
    // pieces stand in for that.
    let payload = vec![b'x'; point_bytes];
    let kib = (point_bytes as u64).div_ceil(1024);
    t.time("http.chunk", None, job, kib, || {
        let mut out = Vec::with_capacity(point_bytes + point_bytes / 256 + 64);
        for piece in payload.chunks(16 * 1024) {
            append_chunk(&mut out, piece);
        }
        out
    });
}

/// Working-set sensitivity of the in-memory cache: `put` on a cache
/// already holding 100k results, and the resident memory one result
/// costs. Returns (`put` µs at 100k, RSS kB per result).
pub fn cache_at_100k(sample: &PointResult) -> (f64, f64) {
    const FILL: usize = 100_000;
    const PROBE: usize = 2_000;
    let rss_kb =
        || synapse_proc::read_pid_status(std::process::id() as i32).map_or(0, |s| s.vm_rss) / 1024;
    // Hashed keys spread over the store's 256 shards the way real
    // fingerprints do; made before the clock starts.
    let keys: Vec<String> = (0..FILL + PROBE)
        .map(|i| format!("{:016x}", fnv1a(&i.to_le_bytes(), 0)))
        .collect();
    let (fill, probe) = keys.split_at(FILL);
    let cache = ResultCache::in_memory();
    let before_kb = rss_kb();
    for key in fill {
        cache.put(key, sample).expect("cache fill put");
    }
    let per_result_kb = rss_kb().saturating_sub(before_kb) as f64 / FILL as f64;
    let started = Instant::now();
    for key in probe {
        cache.put(key, sample).expect("cache probe put");
    }
    let put_us = started.elapsed().as_secs_f64() * 1e6 / PROBE as f64;
    (put_us, per_result_kb)
}
