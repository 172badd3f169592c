//! Campaign throughput benchmark (ROADMAP "Campaign throughput
//! benchmark" item).
//!
//! Measures `synapse-campaign` points/sec for the four pipeline stages
//! separately, so later PRs can grow the sweep engine against a
//! number:
//!
//! * **expansion** — cartesian spec → `ScenarioPoint` grid;
//! * **cache_lookup** — a fully-warm sweep (every point a cache hit);
//! * **simulation** — cold sweep through the virtual-time simulator;
//! * **aggregation** — results → `CampaignReport` (axis slices,
//!   percentiles, reference errors);
//! * **serve_throughput** — the same warm sweep submitted to an
//!   in-process `synapse serve` over real sockets and consumed from
//!   its NDJSON event stream, so the HTTP + queue + streaming overhead
//!   is tracked against the direct `cache_lookup` rate from day one;
//! * **cluster_throughput** — the same warm sweep submitted
//!   `?cluster=1` to a coordinator fanning leases out over two local
//!   worker servers, so the lease/merge overhead of distributed
//!   execution is tracked against `serve_throughput`;
//! * **serve_concurrency** — the warm serve path again, but with 256
//!   watcher connections holding open event streams on a live sweep:
//!   the reactor front must keep its throughput while juggling
//!   hundreds of idle watchers on one thread;
//! * **connection_churn** — complete request round trips (connect,
//!   parse, handle, respond, close) per second under that same
//!   watcher load;
//! * **watcher_aggregate** — a completed job's event stream replayed
//!   in aggregate mode (`?aggregates=1`): lifecycle + snapshot deltas,
//!   no per-point lines. The document also records the byte sizes of
//!   one raw and one aggregate replay of the same job, so CI can
//!   assert the aggregate stream is O(slices), not O(points);
//! * **trace_replay** — strict-mode validation of a recorded flight
//!   trace (parse + causal verify), the operation the CI determinism
//!   gate runs instead of re-simulating: its rate floor is a large
//!   multiple of `simulation`.
//!
//! Each stage repeats until a minimum wall-clock budget is consumed,
//! so a single fast iteration cannot produce a garbage rate. `run()`
//! renders the rates as the JSON document CI uploads as
//! `BENCH_campaign.json`.

use std::time::Instant;

use synapse_campaign::{
    expand, CampaignEngine, CampaignReport, CampaignSpec, CancelToken, ResultCache, RunConfig,
};

/// Minimum wall-clock seconds each stage is measured over.
const MIN_STAGE_SECS: f64 = 0.25;

/// Throughput of one pipeline stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRate {
    /// Stage name (`expansion` | `cache_lookup` | `simulation` |
    /// `aggregation` | `serve_throughput`).
    pub stage: &'static str,
    /// Points processed across all timed iterations.
    pub points: usize,
    /// Wall-clock seconds consumed.
    pub secs: f64,
}

impl StageRate {
    /// Stage throughput in points per second.
    pub fn points_per_sec(&self) -> f64 {
        if self.secs <= 0.0 {
            return 0.0;
        }
        self.points as f64 / self.secs
    }
}

/// Repeat `stage_once` (which returns points processed) until the
/// minimum measurement budget is spent.
fn measure(stage: &'static str, mut stage_once: impl FnMut() -> usize) -> StageRate {
    let started = Instant::now();
    let mut points = 0;
    loop {
        points += stage_once();
        if started.elapsed().as_secs_f64() >= MIN_STAGE_SECS {
            break;
        }
    }
    StageRate {
        stage,
        points,
        secs: started.elapsed().as_secs_f64(),
    }
}

/// A wide spec exercising every axis: ~10k points per expansion.
fn expansion_spec() -> CampaignSpec {
    let steps: Vec<String> = (1..=24).map(|i| (i * 5_000).to_string()).collect();
    let steps = steps.join(", ");
    CampaignSpec::from_toml(&format!(
        r#"
        name = "bench-expansion"
        seed = 2016
        machines = ["thinkie", "stampede", "archer", "supermic", "comet", "titan"]
        kernels = ["asm", "c", "spin"]
        modes = ["openmp", "mpi"]
        threads = [1, 4, 8]
        io_blocks = [65536, 1048576]

        [[workloads]]
        app = "gromacs"
        steps = [{steps}]

        [[workloads]]
        app = "amber"
        steps = [{steps}]
        "#
    ))
    .expect("expansion bench spec parses")
}

/// A small-but-real spec the simulation stages run end to end.
fn simulation_spec() -> CampaignSpec {
    CampaignSpec::from_toml(
        r#"
        name = "bench-simulation"
        seed = 2016
        machines = ["thinkie", "stampede", "comet", "titan"]
        kernels = ["asm", "c"]
        modes = ["openmp", "mpi"]
        threads = [1, 8]

        [[workloads]]
        app = "gromacs"
        steps = [10000, 100000]

        [[workloads]]
        app = "amber"
        steps = [100000]
        "#,
    )
    .expect("simulation bench spec parses")
}

/// Byte sizes of one raw and one aggregate-mode replay of the same
/// completed job — the O(points) vs O(slices) contrast.
#[derive(Debug, Clone, Copy)]
pub struct WatcherBytes {
    /// Payload bytes of a full raw replay (per-point lines included).
    pub raw: usize,
    /// Payload bytes of an aggregate-mode replay of the same job.
    pub aggregate: usize,
}

/// Run all stages and return their rates, in pipeline order.
pub fn stage_rates() -> Vec<StageRate> {
    stage_rates_with_bytes().0
}

/// [`stage_rates`] plus the watcher-stream byte contrast.
pub fn stage_rates_with_bytes() -> (Vec<StageRate>, WatcherBytes) {
    let expansion = {
        let spec = expansion_spec();
        measure("expansion", || expand(&spec).len())
    };

    let sim_spec = simulation_spec();
    let sim_points = expand(&sim_spec);
    let config = RunConfig::default();

    let simulation = measure("simulation", || {
        // A fresh cache every iteration keeps this stage cold.
        let cache = ResultCache::in_memory();
        let (_, stats) = CampaignEngine::new(&sim_points, &cache, &config)
            .run(&|_| {}, &CancelToken::new())
            .expect("bench sweep");
        assert_eq!(stats.simulated, sim_points.len());
        stats.points
    });

    let warm = ResultCache::in_memory();
    let (results, _) = CampaignEngine::new(&sim_points, &warm, &config)
        .run(&|_| {}, &CancelToken::new())
        .expect("warm-up sweep");
    let cache_lookup = measure("cache_lookup", || {
        let (_, stats) = CampaignEngine::new(&sim_points, &warm, &config)
            .run(&|_| {}, &CancelToken::new())
            .expect("warm sweep");
        assert_eq!(stats.cache_hits, sim_points.len());
        stats.points
    });

    let aggregation = measure("aggregation", || {
        let report = CampaignReport::assemble(&sim_spec, &results).expect("bench report");
        report.points
    });

    let serve_throughput = measure_serve(&sim_spec);
    let cluster_throughput = measure_cluster(&sim_spec);
    let concurrency = measure_serve_concurrency(&sim_spec);
    let (watcher_aggregate, watcher_bytes) = measure_watcher_aggregate(&sim_spec);
    let trace_replay = measure_trace_replay(&sim_spec);

    let mut stages = vec![
        expansion,
        cache_lookup,
        simulation,
        aggregation,
        serve_throughput,
        cluster_throughput,
    ];
    stages.extend(concurrency);
    stages.push(watcher_aggregate);
    stages.push(trace_replay);
    (stages, watcher_bytes)
}

/// The aggregate-watcher path: one job swept to completion, then its
/// stream replayed in aggregate mode repeatedly. Also measures the
/// byte sizes of one raw and one aggregate replay of that same job —
/// the raw replay carries every per-point line, the aggregate one only
/// lifecycle events and snapshot deltas.
fn measure_watcher_aggregate(spec: &CampaignSpec) -> (StageRate, WatcherBytes) {
    let server = synapse_server::Server::bind(synapse_server::ServerConfig {
        addr: "127.0.0.1:0".into(),
        handler_threads: 1,
        ..Default::default()
    })
    .expect("bind watcher bench server");
    let addr = server.local_addr().expect("server addr").to_string();
    let handle = server.handle().expect("server handle");
    let join = std::thread::spawn(move || server.run().expect("watcher bench server run"));
    let client = synapse_server::Client::new(addr);
    let spec_json = serde_json::to_string(spec).expect("bench spec serializes");

    let (ack, summary) = client
        .submit_watch(&spec_json, |_| true)
        .expect("bench watcher submit");
    assert_eq!(summary["event"].as_str(), Some("completed"));
    let id = ack["id"].as_str().expect("job id").to_string();

    let mut raw = 0usize;
    client
        .watch(&id, |line| {
            raw += line.len() + 1;
            true
        })
        .expect("bench raw replay");
    let mut aggregate = 0usize;
    client
        .watch_aggregates(&id, |line| {
            aggregate += line.len() + 1;
            true
        })
        .expect("bench aggregate replay");

    let rate = measure("watcher_aggregate", || {
        let summary = client
            .watch_aggregates(&id, |_| true)
            .expect("bench aggregate watch");
        summary["points"].as_u64().expect("points") as usize
    });

    handle.shutdown();
    join.join().expect("watcher bench server thread");
    (rate, WatcherBytes { raw, aggregate })
}

/// Strict replay validation of a recorded trace: the sweep is recorded
/// once (untimed), then each iteration parses the document and runs
/// the strict causal verify — exactly what the CI determinism gate
/// does instead of re-simulating the campaign.
fn measure_trace_replay(spec: &CampaignSpec) -> StageRate {
    let recorder = synapse_trace::TraceRecorder::new(spec);
    let cache = ResultCache::in_memory();
    let outcome = synapse_campaign::run_campaign_on(
        spec,
        &RunConfig::default(),
        &cache,
        &|event| recorder.observe(&event),
        &synapse_campaign::CancelToken::new(),
    )
    .expect("bench recording sweep");
    recorder.record_stats(&outcome.stats);
    let text = recorder.render();
    measure("trace_replay", || {
        let trace = synapse_trace::Trace::parse(&text).expect("bench trace parses");
        let summary = trace
            .verify(synapse_trace::ReplayMode::Strict)
            .expect("bench trace replays strictly");
        assert!(summary.is_clean());
        summary.points
    })
}

/// One warm submission drained through its event stream (single
/// `?watch=1` round trip); returns the completed point count.
fn submit_and_drain(client: &synapse_server::Client, spec_json: &str) -> usize {
    let (_ack, summary) = client
        .submit_watch(spec_json, |_| true)
        .expect("bench submit+watch");
    assert_eq!(summary["event"].as_str(), Some("completed"));
    summary["points"].as_u64().expect("points") as usize
}

/// Submitted-points/sec through the full HTTP + queue + stream path:
/// an in-process server with a pre-warmed cache, the bench spec
/// submitted repeatedly and every event stream drained to completion.
/// Comparing against `cache_lookup` isolates the server overhead.
fn measure_serve(spec: &CampaignSpec) -> StageRate {
    let server = synapse_server::Server::bind(synapse_server::ServerConfig {
        addr: "127.0.0.1:0".into(),
        handler_threads: 1,
        ..Default::default()
    })
    .expect("bind bench server");
    let addr = server.local_addr().expect("bench server addr").to_string();
    let handle = server.handle().expect("bench server handle");
    let join = std::thread::spawn(move || server.run().expect("bench server run"));
    let client = synapse_server::Client::new(addr);
    let spec_json = serde_json::to_string(spec).expect("bench spec serializes");

    // Warm-up submission: populates the shared cache (untimed), so the
    // measured iterations compare against the warm `cache_lookup`
    // stage.
    submit_and_drain(&client, &spec_json);
    let rate = measure("serve_throughput", || submit_and_drain(&client, &spec_json));

    handle.shutdown();
    join.join().expect("bench server thread");
    rate
}

/// The reactor-front scale stages: warm submitted-points/sec while 256
/// watcher connections hold open event streams on a live sweep
/// (`serve_concurrency`), plus one-shot request round trips per second
/// through the same front (`connection_churn`). Before the epoll
/// reactor each watcher pinned a thread; now they pin file
/// descriptors, and this stage keeps that property honest.
fn measure_serve_concurrency(spec: &CampaignSpec) -> Vec<StageRate> {
    use std::io::Write as _;

    const WATCHERS: usize = 256;
    let server = synapse_server::Server::bind(synapse_server::ServerConfig {
        addr: "127.0.0.1:0".into(),
        queue_workers: 2,
        job_workers: 1,
        max_connections: WATCHERS + 64,
        ..Default::default()
    })
    .expect("bind concurrency server");
    let addr = server.local_addr().expect("server addr");
    let handle = server.handle().expect("server handle");
    let join = std::thread::spawn(move || server.run().expect("concurrency server run"));
    let client = synapse_server::Client::new(addr.to_string());
    let spec_json = serde_json::to_string(spec).expect("bench spec serializes");
    submit_and_drain(&client, &spec_json); // warm the cache (untimed)

    // A slow cold sweep occupies one queue worker for the duration:
    // big-step points land at a trickle, so the watchers attached to
    // its stream sit essentially idle while still being real, open,
    // reactor-owned connections.
    let hog_spec = CampaignSpec::from_toml(
        r#"
        name = "bench-hog"
        seed = 99
        machines = ["thinkie", "stampede", "archer", "supermic", "comet", "titan"]
        kernels = ["asm", "c", "spin"]
        modes = ["openmp", "mpi"]

        [[workloads]]
        app = "gromacs"
        steps = [1000000, 2000000]

        [[workloads]]
        app = "amber"
        steps = [1000000, 2000000]
        "#,
    )
    .expect("hog spec parses");
    let hog_json = serde_json::to_string(&hog_spec).expect("hog serializes");
    let hog = client.submit(&hog_json).expect("hog submit")["id"]
        .as_str()
        .expect("hog id")
        .to_string();

    let mut watchers = Vec::with_capacity(WATCHERS);
    for _ in 0..WATCHERS {
        let mut stream = std::net::TcpStream::connect(addr).expect("watcher connect");
        write!(
            stream,
            "GET /campaigns/{hog}/events HTTP/1.1\r\nHost: bench\r\n\r\n"
        )
        .expect("watcher request");
        watchers.push(stream);
    }

    // Warm submissions through the loaded front (the other queue
    // worker is free; the reactor is juggling 256 open streams).
    let rate = measure("serve_concurrency", || {
        submit_and_drain(&client, &spec_json)
    });
    // Connection churn: complete accept→parse→handle→respond→close
    // round trips per second under the same load.
    let churn = measure("connection_churn", || {
        client.healthz().expect("bench healthz");
        1
    });

    let _ = client.cancel(&hog);
    drop(watchers);
    handle.shutdown();
    join.join().expect("concurrency server thread");
    vec![rate, churn]
}

/// Submitted-points/sec through the distributed path: a coordinator
/// plus two local worker servers, the bench spec submitted
/// `?cluster=1`, leases fanned out over real sockets and the merged
/// stream drained to completion. Workers pre-warm on the full spec so
/// the measured iterations isolate lease/merge overhead (compare
/// against `serve_throughput`, whose single process skips the
/// fan-out).
fn measure_cluster(spec: &synapse_campaign::CampaignSpec) -> StageRate {
    let spec_json = serde_json::to_string(spec).expect("bench spec serializes");
    let mut workers = Vec::new();
    let mut worker_addrs = Vec::new();
    for _ in 0..2 {
        let server = synapse_server::Server::bind(synapse_server::ServerConfig {
            addr: "127.0.0.1:0".into(),
            ..Default::default()
        })
        .expect("bind bench worker");
        let addr = server.local_addr().expect("bench worker addr").to_string();
        let handle = server.handle().expect("bench worker handle");
        let join = std::thread::spawn(move || server.run().expect("bench worker run"));
        // Pre-warm: every lease is a cache hit no matter which worker
        // claims it.
        let client = synapse_server::Client::new(addr.clone());
        let reply = client.submit(&spec_json).expect("bench warm submit");
        let id = reply["id"].as_str().expect("job id").to_string();
        client.watch(&id, |_| true).expect("bench warm watch");
        worker_addrs.push(addr);
        workers.push((handle, join));
    }

    let coordinator = std::sync::Arc::new(synapse_cluster::Coordinator::new(
        synapse_cluster::ClusterConfig::default(),
    ));
    for addr in &worker_addrs {
        coordinator.registry().register(addr);
    }
    let server = synapse_server::Server::bind(synapse_server::ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..Default::default()
    })
    .expect("bind bench coordinator")
    .with_cluster(coordinator);
    let addr = server
        .local_addr()
        .expect("bench coordinator addr")
        .to_string();
    let handle = server.handle().expect("bench coordinator handle");
    let join = std::thread::spawn(move || server.run().expect("bench coordinator run"));
    let client = synapse_server::Client::new(addr);

    let submit_and_drain = || {
        let reply = client
            .submit_distributed(&spec_json)
            .expect("bench cluster submit");
        let id = reply["id"].as_str().expect("job id").to_string();
        let summary = client.watch(&id, |_| true).expect("bench cluster watch");
        assert_eq!(summary["event"].as_str(), Some("completed"));
        summary["points"].as_u64().expect("points") as usize
    };
    submit_and_drain(); // untimed warm-up of the distributed path
    let rate = measure("cluster_throughput", submit_and_drain);

    handle.shutdown();
    join.join().expect("bench coordinator thread");
    for (handle, join) in workers {
        handle.shutdown();
        join.join().expect("bench worker thread");
    }
    rate
}

/// Render the benchmark as the `BENCH_campaign.json` document.
pub fn run() -> String {
    let (rates, watcher_bytes) = stage_rates_with_bytes();
    let stages: Vec<serde_json::Value> = rates
        .iter()
        .map(|r| {
            serde_json::json!({
                "stage": r.stage,
                "points": r.points,
                "secs": r.secs,
                "points_per_sec": r.points_per_sec(),
            })
        })
        .collect();
    let doc = serde_json::json!({
        "bench": "campaign_throughput",
        "unit": "points_per_sec",
        "stages": stages,
        // One raw vs one aggregate replay of the same completed job:
        // the aggregate stream must stay O(slices), not O(points).
        "watcher_stream_bytes": {
            "aggregate": watcher_bytes.aggregate,
            "raw": watcher_bytes.raw,
        },
    });
    serde_json::to_string_pretty(&doc).expect("bench document serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_rate_math() {
        let r = StageRate {
            stage: "expansion",
            points: 500,
            secs: 0.25,
        };
        assert_eq!(r.points_per_sec(), 2000.0);
        let zero = StageRate {
            stage: "expansion",
            points: 0,
            secs: 0.0,
        };
        assert_eq!(zero.points_per_sec(), 0.0);
    }

    #[test]
    fn expansion_spec_is_wide() {
        assert!(expansion_spec().point_count() >= 10_000);
    }

    #[test]
    fn bench_document_has_all_ten_nonzero_stages() {
        let doc: serde_json::Value = serde_json::from_str(&run()).unwrap();
        let stages = doc["stages"].as_array().unwrap();
        let names: Vec<&str> = stages
            .iter()
            .map(|s| s["stage"].as_str().unwrap())
            .collect();
        assert_eq!(
            names,
            vec![
                "expansion",
                "cache_lookup",
                "simulation",
                "aggregation",
                "serve_throughput",
                "cluster_throughput",
                "serve_concurrency",
                "connection_churn",
                "watcher_aggregate",
                "trace_replay",
            ]
        );
        for s in stages {
            assert!(
                s["points_per_sec"].as_f64().unwrap() > 0.0,
                "stage {s:?} must report a nonzero rate"
            );
        }
        let rate = |name: &str| {
            stages
                .iter()
                .find(|s| s["stage"].as_str() == Some(name))
                .and_then(|s| s["points_per_sec"].as_f64())
                .unwrap()
        };
        // The CI floor: replaying a recorded trace must beat
        // re-simulating by a wide margin, or recording is pointless.
        // The margin is a ratio against `simulation`, and the
        // simulator is allowed to speed up: 10× still proves nothing
        // is recomputed without failing a faster simulator.
        assert!(
            rate("trace_replay") >= 10.0 * rate("simulation"),
            "trace_replay {} vs simulation {}",
            rate("trace_replay"),
            rate("simulation"),
        );
        // The aggregate-mode replay drops every per-point line, so it
        // must be materially smaller than the raw replay of the same
        // job — the O(slices) vs O(points) contract.
        let bytes = &doc["watcher_stream_bytes"];
        let aggregate = bytes["aggregate"].as_u64().unwrap();
        let raw = bytes["raw"].as_u64().unwrap();
        assert!(aggregate > 0);
        assert!(
            2 * aggregate < raw,
            "aggregate replay {aggregate}B vs raw {raw}B"
        );
    }
}
