//! End-to-end cluster tests: real coordinator + worker servers on
//! ephemeral ports, leases over real sockets, worker death mid-sweep.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serde_json::Value;
use synapse_cluster::{ClusterConfig, Coordinator};
use synapse_server::{Client, Server, ServerConfig, ServerHandle};

/// Boot a plain worker server; returns its address, client, handle.
fn boot_worker(
    config: ServerConfig,
) -> (String, Client, ServerHandle, std::thread::JoinHandle<()>) {
    let mut config = config;
    config.addr = "127.0.0.1:0".into();
    let server = Server::bind(config).expect("bind worker");
    let handle = server.handle().expect("worker handle");
    let addr = server.local_addr().expect("worker addr").to_string();
    let join = std::thread::spawn(move || server.run().expect("worker run"));
    (addr.clone(), Client::new(addr), handle, join)
}

/// Boot a coordinator with the given workers pre-registered.
fn boot_coordinator(
    worker_addrs: &[&str],
    config: ServerConfig,
) -> (Client, ServerHandle, std::thread::JoinHandle<()>) {
    let coordinator = Arc::new(Coordinator::new(ClusterConfig::default()));
    for addr in worker_addrs {
        coordinator.registry().register(addr);
    }
    let mut config = config;
    config.addr = "127.0.0.1:0".into();
    let server = Server::bind(config)
        .expect("bind coordinator")
        .with_cluster(coordinator);
    let handle = server.handle().expect("coordinator handle");
    let addr = server.local_addr().expect("coordinator addr").to_string();
    let join = std::thread::spawn(move || server.run().expect("coordinator run"));
    (Client::new(addr), handle, join)
}

/// 16 points: partitions across 8 leases on a 2-worker cluster.
fn medium_spec() -> &'static str {
    r#"
    name = "cluster-medium"
    seed = 27
    machines = ["thinkie", "comet"]
    kernels = ["asm", "c"]
    modes = ["openmp", "mpi"]

    [[workloads]]
    app = "gromacs"
    steps = [10000, 50000]
    "#
}

/// A wide grid that takes a while on single-threaded workers — long
/// enough to kill a worker mid-sweep.
fn wide_spec() -> &'static str {
    r#"
    name = "cluster-wide"
    seed = 31
    machines = ["thinkie", "stampede", "archer", "supermic", "comet", "titan"]
    kernels = ["asm", "c", "spin"]
    modes = ["openmp", "mpi"]
    threads = [1, 4]

    [[workloads]]
    app = "gromacs"
    steps = [10000, 50000, 100000]

    [[workloads]]
    app = "amber"
    steps = [10000, 50000, 100000]
    "#
}

fn await_terminal(client: &Client, id: &str) -> Value {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let status = client.status(id).expect("status");
        let state = status["status"]
            .as_str()
            .expect("status string")
            .to_string();
        if ["completed", "cancelled", "failed"].contains(&state.as_str()) {
            return status;
        }
        assert!(Instant::now() < deadline, "job {id} stuck in {state}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Submit a spec plainly (no cluster) and return its compact report
/// text — the single-process baseline for byte-stability checks —
/// plus its final `/aggregates` document (the live-view baseline).
fn single_process_report(spec: &str) -> (String, Value) {
    let (_, client, handle, join) = boot_worker(ServerConfig::default());
    let id = client.submit(spec).unwrap()["id"]
        .as_str()
        .unwrap()
        .to_string();
    let summary = client.watch(&id, |_| true).unwrap();
    assert_eq!(summary["event"].as_str(), Some("completed"));
    let report = client.report(&id).unwrap();
    let aggregates = client.aggregates(&id, None, None).unwrap();
    handle.shutdown();
    join.join().unwrap();
    (serde_json::to_string(&report).unwrap(), aggregates)
}

/// Assert two aggregate stats objects agree as `docs/PROTOCOL.md`
/// §5 promises: count, extrema and sketch quantiles exactly, the mean
/// up to f64 regrouping (points fold in landing order, which differs
/// between runs).
fn assert_stats_close(cluster: &Value, local: &Value, what: &str) {
    for key in ["n", "min", "max", "p50", "p95", "p99"] {
        assert_eq!(cluster[key], local[key], "{what}: {key}");
    }
    if cluster["n"].as_u64() == Some(0) {
        return;
    }
    let c = cluster["mean"].as_f64().unwrap();
    let l = local["mean"].as_f64().unwrap();
    assert!(
        (c - l).abs() <= 1e-12 * l.abs(),
        "{what}: mean diverged: cluster {c} vs local {l}"
    );
}

/// Frame one NDJSON line as an HTTP/1.1 chunk.
fn chunk(line: &str) -> Vec<u8> {
    let payload = format!("{line}\n");
    format!("{:x}\r\n{payload}\r\n", payload.len()).into_bytes()
}

/// The response head a worker opens a chunked event stream with.
const STREAM_HEAD: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
    Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n";

/// Serve a scripted worker on an ephemeral port and return its
/// address. `handle` answers each request on its own thread, so
/// liveness probes and DELETEs are answered while a lease stream is
/// held open.
fn fake_worker(
    handle: impl Fn(synapse_server::http::Request, std::net::TcpStream) + Send + Sync + 'static,
) -> String {
    use std::io::BufReader;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let handle = Arc::new(handle);
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(stream) = conn else { break };
            let handle = handle.clone();
            std::thread::spawn(move || {
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                if let Ok(request) = synapse_server::http::read_request(&mut reader) {
                    handle(request, stream);
                }
            });
        }
    });
    addr
}

/// Write a JSON reply on a fake worker's connection.
fn respond(mut out: std::net::TcpStream, status: u16, reason: &str, body: &Value) {
    use std::io::Write;
    let _ = out.write_all(&synapse_server::http::json_bytes(status, reason, body));
}

#[test]
fn distributed_run_merges_streams_and_reports_byte_stably() {
    let (addr1, _c1, h1, j1) = boot_worker(ServerConfig::default());
    let (addr2, _c2, h2, j2) = boot_worker(ServerConfig::default());
    let (client, handle, join) = boot_coordinator(&[&addr1, &addr2], ServerConfig::default());

    let reply = client.submit_distributed(medium_spec()).unwrap();
    assert_eq!(reply["distributed"].as_bool(), Some(true));
    assert_eq!(reply["points"].as_u64(), Some(16));
    let id = reply["id"].as_str().unwrap().to_string();

    // The merged stream has the same contract as a local sweep: one
    // point event per grid index, `done` monotone 1..=N, one terminal.
    let lines = Mutex::new(Vec::<Value>::new());
    let summary = client
        .watch(&id, |line| {
            lines
                .lock()
                .unwrap()
                .push(serde_json::from_str(line).unwrap());
            true
        })
        .unwrap();
    assert_eq!(summary["event"].as_str(), Some("completed"));
    assert_eq!(summary["points"].as_u64(), Some(16));
    let lines = lines.into_inner().unwrap();
    let points: Vec<&Value> = lines
        .iter()
        .filter(|l| l["event"].as_str() == Some("point"))
        .collect();
    assert_eq!(points.len(), 16);
    let dones: Vec<u64> = points.iter().map(|p| p["done"].as_u64().unwrap()).collect();
    assert_eq!(dones, (1..=16).collect::<Vec<u64>>(), "globally monotone");
    let mut indices: Vec<u64> = points
        .iter()
        .map(|p| p["index"].as_u64().unwrap())
        .collect();
    indices.sort_unstable();
    assert_eq!(indices, (0..16).collect::<Vec<u64>>(), "each index once");

    // Byte-stable merge: the distributed report equals the
    // single-process baseline exactly.
    let merged = serde_json::to_string(&client.report(&id).unwrap()).unwrap();
    let (baseline_report, baseline_aggregates) = single_process_report(medium_spec());
    assert_eq!(merged, baseline_report);

    // The live aggregate view, folded from the merged point stream,
    // agrees with the single-process one: same points, same slice
    // keys, same stats.
    let aggregates = client.aggregates(&id, None, None).unwrap();
    assert_eq!(aggregates["points"].as_u64(), Some(16));
    assert_stats_close(
        &aggregates["overall"]["metrics"]["error_pct"],
        &baseline_aggregates["overall"]["metrics"]["error_pct"],
        "overall error_pct",
    );
    let slice_key = |s: &Value| {
        (
            s["axis"].as_str().unwrap().to_string(),
            s["value"].as_str().unwrap().to_string(),
        )
    };
    let cluster_slices = aggregates["slices"].as_array().unwrap();
    let local_slices = baseline_aggregates["slices"].as_array().unwrap();
    assert_eq!(
        cluster_slices.iter().map(slice_key).collect::<Vec<_>>(),
        local_slices.iter().map(slice_key).collect::<Vec<_>>(),
        "identical slice keys"
    );
    for (c, l) in cluster_slices.iter().zip(local_slices) {
        let (axis, value) = slice_key(c);
        for metric in ["error_pct", "tx"] {
            assert_stats_close(
                &c["metrics"][metric],
                &l["metrics"][metric],
                &format!("{axis}={value} {metric}"),
            );
        }
    }

    // Both workers carried leases.
    let status = client.cluster_status().unwrap();
    assert_eq!(status["live"].as_u64(), Some(2));
    let carried: u64 = status["workers"]
        .as_array()
        .unwrap()
        .iter()
        .map(|w| w["leases_completed"].as_u64().unwrap())
        .sum();
    assert_eq!(carried, 8, "all 8 leases ran remotely: {status:?}");

    // The coordinator's /metrics scrape carries every subsystem the
    // process touched: cluster lease lifecycle (and the liveness
    // probes the status call above just ran), the serve front, and
    // the store's lock counters behind the shared cache.
    let metrics = client.metrics().unwrap();
    let value = |name: &str| -> f64 {
        metrics
            .lines()
            .filter_map(|l| l.split_once(' '))
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or_else(|| panic!("series {name} missing from coordinator scrape"))
    };
    assert!(value("synapse_cluster_leases_assigned_total") >= 8.0);
    assert!(value("synapse_cluster_leases_completed_total") >= 8.0);
    assert!(value("synapse_cluster_probe_seconds_count") >= 1.0);
    // Lease streams are batched: every point of this run arrived
    // inside a batch frame (one per lease at the default cap).
    assert!(value("synapse_cluster_batch_points_count") >= 8.0);
    assert!(value("synapse_cluster_batch_points_sum") >= 16.0);
    assert!(value("synapse_cluster_leases_split_total") >= 0.0);
    assert!(value("synapse_server_connections_accepted_total") >= 1.0);
    assert!(value("synapse_store_lock_acquisitions_total") >= 0.0);
    assert!(
        metrics.contains("synapse_cluster_worker_points_per_sec{worker="),
        "per-worker throughput gauge missing"
    );

    handle.shutdown();
    join.join().unwrap();
    h1.shutdown();
    j1.join().unwrap();
    h2.shutdown();
    j2.join().unwrap();
}

#[test]
fn worker_death_mid_sweep_reassigns_leases_and_completes() {
    // Single-threaded workers make the wide grid slow enough to kill
    // one mid-sweep.
    let worker_config = || ServerConfig {
        job_workers: 1,
        ..Default::default()
    };
    let (addr1, _c1, h1, j1) = boot_worker(worker_config());
    let (addr2, _c2, h2, j2) = boot_worker(worker_config());
    let (client, handle, join) = boot_coordinator(&[&addr1, &addr2], ServerConfig::default());

    let reply = client.submit_distributed(wide_spec()).unwrap();
    let total = reply["points"].as_u64().unwrap();
    assert_eq!(total, 6 * 3 * 2 * 2 * 6);
    let id = reply["id"].as_str().unwrap().to_string();

    // Wait until the sweep is visibly running, then kill worker 2.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let status = client.status(&id).unwrap();
        if status["done"].as_u64().unwrap() >= 8 {
            break;
        }
        assert!(Instant::now() < deadline, "distributed sweep never started");
        std::thread::sleep(Duration::from_millis(10));
    }
    h2.shutdown();
    j2.join().unwrap();

    // The grid still completes: worker 2's leases reassign to worker 1
    // (or the coordinator's local fallback).
    let status = await_terminal(&client, &id);
    assert_eq!(status["status"].as_str(), Some("completed"), "{status:?}");
    assert_eq!(status["done"].as_u64(), Some(total));

    // The merged report is still byte-identical to a single-process
    // run — lease replay and reassignment leave no trace.
    let merged = serde_json::to_string(&client.report(&id).unwrap()).unwrap();
    assert_eq!(merged, single_process_report(wide_spec()).0);

    // The registry knows worker 2 is gone.
    let cluster = client.cluster_status().unwrap();
    assert_eq!(cluster["live"].as_u64(), Some(1), "{cluster:?}");

    handle.shutdown();
    join.join().unwrap();
    h1.shutdown();
    j1.join().unwrap();
}

#[test]
fn coordinator_without_workers_falls_back_to_local_execution() {
    let (client, handle, join) = boot_coordinator(&[], ServerConfig::default());
    let reply = client.submit_distributed(medium_spec()).unwrap();
    let id = reply["id"].as_str().unwrap().to_string();
    let summary = client.watch(&id, |_| true).unwrap();
    assert_eq!(summary["event"].as_str(), Some("completed"));
    assert_eq!(summary["points"].as_u64(), Some(16));
    let merged = serde_json::to_string(&client.report(&id).unwrap()).unwrap();
    assert_eq!(merged, single_process_report(medium_spec()).0);
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn distributed_jobs_cancel_cooperatively() {
    use std::io::Write;
    use std::sync::Condvar;

    // A fake worker that streams `started` and the first point of its
    // lease, then holds the stream open — heartbeating, as a real
    // worker does on a quiet stream — until the coordinator's DELETE
    // for that lease arrives. The sweep is mid-flight for as long as
    // the test needs, with no timing assumption.
    let deleted: Arc<(Mutex<Option<String>>, Condvar)> = Arc::default();
    let lease: Mutex<Option<synapse_campaign::ScenarioPoint>> = Mutex::new(None);
    let addr = fake_worker({
        let deleted = deleted.clone();
        move |request, mut out| match (request.method.as_str(), request.path()) {
            ("POST", "/leases") => {
                let body = String::from_utf8(request.body.clone()).expect("utf8 body");
                let request: synapse_server::LeaseRequest =
                    serde_json::from_str(&body).expect("lease body");
                *lease.lock().unwrap() =
                    Some(synapse_campaign::expand(&request.spec)[request.start].clone());
                respond(
                    out,
                    202,
                    "Accepted",
                    &serde_json::json!({"id": "c1", "status": "queued"}),
                );
            }
            ("GET", "/campaigns/c1/events") => {
                let point = lease.lock().unwrap().clone().expect("lease posted first");
                let result = synapse_campaign::simulate_point(&point).expect("simulate point");
                let line = synapse_server::lease_batch_line(&[(Arc::new(result), false)], None);
                let _ = out.write_all(STREAM_HEAD);
                let _ = out.write_all(&chunk("{\"event\":\"started\"}"));
                let _ = out.write_all(&chunk(&line));
                let (path, arrived) = &*deleted;
                let mut path = path.lock().unwrap();
                while path.is_none() {
                    path = arrived
                        .wait_timeout(path, Duration::from_millis(10))
                        .unwrap()
                        .0;
                    if path.is_none() && out.write_all(&chunk("{\"event\":\"heartbeat\"}")).is_err()
                    {
                        return;
                    }
                }
                let _ = out.write_all(&chunk("{\"event\":\"cancelled\"}"));
                let _ = out.write_all(b"0\r\n\r\n");
            }
            ("DELETE", p) => {
                *deleted.0.lock().unwrap() = Some(p.to_string());
                deleted.1.notify_all();
                respond(out, 200, "OK", &serde_json::json!({"status": "cancelled"}));
            }
            _ => respond(out, 200, "OK", &serde_json::json!({"status": "ok"})),
        }
    });
    let (client, handle, join) = boot_coordinator(&[&addr], ServerConfig::default());

    let reply = client.submit_distributed(medium_spec()).unwrap();
    let total = reply["points"].as_u64().unwrap();
    let id = reply["id"].as_str().unwrap().to_string();

    // On the first merged point, the coordinator's live view already
    // holds it: cluster aggregates advance point by point, not when a
    // lease completes. Then cancel while the lease is still open.
    let mut mid_sweep: Option<(u64, Value)> = None;
    let summary = client
        .watch(&id, |line| {
            let event: Value = serde_json::from_str(line).unwrap();
            if mid_sweep.is_none() && event["event"].as_str() == Some("point") {
                let aggregates = client.aggregates(&id, None, None).unwrap();
                mid_sweep = Some((event["done"].as_u64().unwrap(), aggregates));
                client.cancel(&id).unwrap();
            }
            true
        })
        .unwrap();
    let (done, aggregates) = mid_sweep.expect("no point event before the terminal");
    assert_eq!(done, 1);
    assert_eq!(
        aggregates["points"].as_u64(),
        Some(done),
        "mid-sweep aggregates: {aggregates:?}"
    );
    assert_eq!(
        aggregates["overall"]["metrics"]["tx"]["n"].as_u64(),
        Some(done)
    );

    assert_eq!(summary["event"].as_str(), Some("cancelled"), "{summary:?}");
    assert!(summary["done"].as_u64().unwrap() < total, "{summary:?}");
    let status = client.status(&id).unwrap();
    assert_eq!(status["status"].as_str(), Some("cancelled"), "{status:?}");
    // The coordinator stopped the worker-side sweep of its open lease.
    assert_eq!(
        deleted.0.lock().unwrap().as_deref(),
        Some("/campaigns/c1"),
        "the fake worker never received the lease DELETE"
    );

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn workers_sharing_one_cache_dir_assemble_the_full_grid() {
    // Two workers persist into ONE lock-aware sharded directory; after
    // a distributed sweep the union holds every point, which a third
    // process then serves entirely from cache.
    let dir = std::env::temp_dir().join(format!("synapse-cluster-shared-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let shared = || ServerConfig {
        cache_dir: Some(dir.clone()),
        ..Default::default()
    };
    let (addr1, c1, h1, j1) = boot_worker(shared());
    let (addr2, _c2, h2, j2) = boot_worker(shared());
    let (client, handle, join) = boot_coordinator(&[&addr1, &addr2], ServerConfig::default());

    let id = client.submit_distributed(medium_spec()).unwrap()["id"]
        .as_str()
        .unwrap()
        .to_string();
    let summary = client.watch(&id, |_| true).unwrap();
    assert_eq!(summary["event"].as_str(), Some("completed"));
    assert_eq!(summary["cache_hit_rate"].as_f64(), Some(0.0), "cold run");

    // Lock-aware persistence is observable through the worker's store
    // stats.
    let stats = c1.store_stats().unwrap();
    assert!(
        stats["lock_acquisitions"].as_u64().unwrap() >= 1,
        "{stats:?}"
    );

    h1.shutdown();
    j1.join().unwrap();
    h2.shutdown();
    j2.join().unwrap();
    handle.shutdown();
    join.join().unwrap();

    // A fresh process over the same directory sees the whole grid.
    let (_, c3, h3, j3) = boot_worker(shared());
    let id = c3.submit(medium_spec()).unwrap()["id"]
        .as_str()
        .unwrap()
        .to_string();
    let summary = c3.watch(&id, |_| true).unwrap();
    assert_eq!(
        summary["cache_hit_rate"].as_f64(),
        Some(1.0),
        "no worker's results were lost to the shared directory: {summary:?}"
    );
    h3.shutdown();
    j3.join().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn frozen_worker_stream_fails_fast_and_reassigns() {
    use std::io::{BufReader, Write};
    use std::sync::atomic::{AtomicBool, Ordering};

    // A fake worker that accepts a lease, establishes its event
    // stream, then freezes — no events, no heartbeats, socket held
    // open. From the coordinator's side this is a hung or partitioned
    // worker, the case a flat 60 s socket timeout used to sit on.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let frozen = Arc::new(AtomicBool::new(false));
    let fake = {
        let frozen = frozen.clone();
        std::thread::spawn(move || {
            let mut held_open = Vec::new();
            for conn in listener.incoming() {
                let Ok(stream) = conn else { break };
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let Ok(request) = synapse_server::http::read_request(&mut reader) else {
                    continue;
                };
                let mut out = stream;
                match (request.method.as_str(), request.path()) {
                    // Healthy until the freeze: registration and the
                    // first post-failure probe must see it alive or
                    // dead respectively.
                    ("GET", "/healthz") => {
                        if frozen.load(Ordering::SeqCst) {
                            break; // stop answering entirely: worker is gone
                        }
                        respond(out, 200, "OK", &serde_json::json!({"status": "ok"}));
                    }
                    ("POST", "/leases") => respond(
                        out,
                        202,
                        "Accepted",
                        &serde_json::json!({"id": "j1", "status": "queued"}),
                    ),
                    (_, path) if path.ends_with("/events") => {
                        // Stream head + one started event, then
                        // silence with the socket held open.
                        let _ = out.write_all(STREAM_HEAD);
                        let _ = out.write_all(&chunk("{\"event\":\"started\"}"));
                        frozen.store(true, Ordering::SeqCst);
                        held_open.push(out);
                    }
                    _ => respond(out, 200, "OK", &serde_json::json!({})),
                }
            }
        })
    };

    // A coordinator with an aggressive silence threshold (the default
    // is 2× the 10 s heartbeat interval; tests cannot wait that long).
    let coordinator = Arc::new(Coordinator::new(ClusterConfig {
        stream_silence: Duration::from_millis(400),
    }));
    coordinator.registry().register(&addr);
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..Default::default()
    };
    let server = Server::bind(config)
        .expect("bind coordinator")
        .with_cluster(coordinator);
    let handle = server.handle().expect("handle");
    let coord_addr = server.local_addr().expect("addr").to_string();
    let join = std::thread::spawn(move || server.run().expect("run"));
    let client = Client::new(coord_addr);

    // The distributed job must complete despite the frozen worker: the
    // stalled stream surfaces as a retriable disconnect well inside
    // the old 60 s socket timeout, the worker probe fails, and the
    // lease reassigns to the coordinator's local fallback.
    let started = Instant::now();
    let reply = client.submit_distributed(medium_spec()).unwrap();
    let id = reply["id"].as_str().unwrap().to_string();
    let status = await_terminal(&client, &id);
    assert_eq!(status["status"].as_str(), Some("completed"), "{status:?}");
    assert_eq!(status["done"].as_u64(), Some(16));
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "freeze detected promptly, not after a flat socket timeout: {:?}",
        started.elapsed()
    );

    // The merged report is still byte-identical to a single-process
    // run — the aborted lease left no trace.
    let merged = serde_json::to_string(&client.report(&id).unwrap()).unwrap();
    assert_eq!(merged, single_process_report(medium_spec()).0);

    // The registry observed the death.
    let cluster = client.cluster_status().unwrap();
    assert_eq!(cluster["live"].as_u64(), Some(0), "{cluster:?}");

    handle.shutdown();
    join.join().unwrap();
    // The fake's accept loop ends when its listener errors (process
    // teardown) or the frozen healthz probe breaks it out.
    drop(fake);
}

#[test]
fn straggling_lease_tail_splits_and_fast_workers_set_the_makespan() {
    use std::collections::HashMap;
    use std::io::Write;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    // 64 points across 2 workers: 8 main leases of ~8 points (plus a
    // 1-point probe per unmeasured worker) — big enough tails for the
    // MIN_SPLIT_POINTS=4 splitting floor.
    let spec_text = r#"
    name = "cluster-straggler"
    seed = 41
    machines = ["thinkie", "comet", "stampede", "titan"]
    kernels = ["asm", "c"]
    modes = ["openmp", "mpi"]

    [[workloads]]
    app = "gromacs"
    steps = [10000, 20000, 50000, 100000]
    "#;

    // A fake worker that serves CORRECT lease results but crawls: on
    // any multi-point lease it sleeps ~3 s before each point, so a
    // full 8-point lease would take ~24 s on its own. Probe leases
    // (1 point) run at full speed so this worker measures healthy and
    // promptly claims a big main lease.
    let cancelled = Arc::new(AtomicBool::new(false));
    let leases: Mutex<HashMap<String, Vec<synapse_campaign::ScenarioPoint>>> =
        Mutex::new(HashMap::new());
    let next_id = AtomicUsize::new(0);
    let addr = fake_worker({
        let cancelled = cancelled.clone();
        move |request, mut out| match (request.method.as_str(), request.path()) {
            ("POST", "/leases") => {
                let body = String::from_utf8(request.body.clone()).expect("utf8 body");
                let lease: synapse_server::LeaseRequest =
                    serde_json::from_str(&body).expect("lease body");
                let slice = synapse_campaign::expand(&lease.spec)[lease.start..lease.end].to_vec();
                let id = format!("s{}", next_id.fetch_add(1, Ordering::SeqCst) + 1);
                leases.lock().unwrap().insert(id.clone(), slice);
                respond(
                    out,
                    202,
                    "Accepted",
                    &serde_json::json!({"id": id, "status": "queued"}),
                );
            }
            ("GET", p) if p.contains("/events") => {
                let id = p.split('/').nth(2).unwrap_or_default().to_string();
                let slice = leases.lock().unwrap().get(&id).cloned().unwrap_or_default();
                let _ = out.write_all(STREAM_HEAD);
                let _ = out.write_all(&chunk("{\"event\":\"started\"}"));
                let slow = slice.len() > 1;
                'points: for point in &slice {
                    if slow {
                        for _ in 0..30 {
                            if cancelled.load(Ordering::SeqCst) {
                                break 'points;
                            }
                            std::thread::sleep(Duration::from_millis(100));
                        }
                    }
                    let result = synapse_campaign::simulate_point(point).expect("simulate point");
                    let line = synapse_server::lease_batch_line(&[(Arc::new(result), false)], None);
                    if out.write_all(&chunk(&line)).is_err() {
                        break;
                    }
                }
                let done = format!("{{\"event\":\"completed\",\"points\":{}}}", slice.len());
                let _ = out.write_all(&chunk(&done));
                let _ = out.write_all(b"0\r\n\r\n");
            }
            ("DELETE", p) if p.starts_with("/campaigns/") => {
                cancelled.store(true, Ordering::SeqCst);
                respond(out, 200, "OK", &serde_json::json!({"status": "cancelled"}));
            }
            _ => respond(out, 200, "OK", &serde_json::json!({"status": "ok"})),
        }
    });

    let (fast_addr, _fc, fh, fj) = boot_worker(ServerConfig::default());
    let (client, handle, join) = boot_coordinator(&[&fast_addr, &addr], ServerConfig::default());

    let started = Instant::now();
    let reply = client.submit_distributed(spec_text).unwrap();
    assert_eq!(reply["points"].as_u64(), Some(64));
    let id = reply["id"].as_str().unwrap().to_string();
    let status = await_terminal(&client, &id);
    assert_eq!(status["status"].as_str(), Some("completed"), "{status:?}");
    assert_eq!(status["done"].as_u64(), Some(64));

    // The makespan is set by the fast worker, not the straggler: an
    // idle driver re-offered the crawling lease's tail as a new
    // (overlapping) lease, swept it, and the coordinator hung up on
    // the straggler the moment the grid was point-complete. Unsplit,
    // the straggler's ~8-point lease alone needs ~24 s.
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "straggler tail was not split: {:?}",
        started.elapsed()
    );
    assert!(
        cancelled.load(Ordering::SeqCst),
        "the straggler's sweep was never cancelled, so its lease ran to the end"
    );

    // Speculation left no trace in the merged result.
    let merged = serde_json::to_string(&client.report(&id).unwrap()).unwrap();
    assert_eq!(merged, single_process_report(spec_text).0);

    // The split shows up on the coordinator's own scrape.
    let metrics = client.metrics().unwrap();
    let split: f64 = metrics
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(n, _)| *n == "synapse_cluster_leases_split_total")
        .and_then(|(_, v)| v.parse().ok())
        .expect("split counter missing from scrape");
    assert!(split >= 1.0, "no lease was ever split: {metrics}");

    // Exactly-once aggregation under overlap: the split tail and its
    // parent both streamed the shared indices, yet the live view
    // counts each grid point once.
    let aggregates = client.aggregates(&id, Some("machine"), None).unwrap();
    assert_eq!(aggregates["points"].as_u64(), Some(64), "{aggregates:?}");
    let per_machine: u64 = aggregates["slices"]
        .as_array()
        .unwrap()
        .iter()
        .map(|s| s["metrics"]["tx"]["n"].as_u64().unwrap())
        .sum();
    assert_eq!(per_machine, 64, "machine slices: {aggregates:?}");

    handle.shutdown();
    join.join().unwrap();
    fh.shutdown();
    fj.join().unwrap();
}

#[test]
fn registry_endpoints_roundtrip_over_http() {
    let (worker_addr, _wc, wh, wj) = boot_worker(ServerConfig::default());
    let (client, handle, join) = boot_coordinator(&[], ServerConfig::default());

    // Register → status sees a live worker (probed for real).
    let doc = client.register_worker(&worker_addr).unwrap();
    let id = doc["id"].as_str().unwrap().to_string();
    assert_eq!(doc["alive"].as_bool(), Some(true));
    let status = client.cluster_status().unwrap();
    assert_eq!(status["registered"].as_u64(), Some(1));
    assert_eq!(status["live"].as_u64(), Some(1));

    // Heartbeat works; unknown ids 404.
    assert!(client.heartbeat_worker(&id).is_ok());
    let err = client.heartbeat_worker("w999").unwrap_err();
    assert!(err.to_string().contains("404"), "{err}");

    // Re-registering the same address is idempotent.
    let again = client.register_worker(&worker_addr).unwrap();
    assert_eq!(again["id"].as_str(), Some(id.as_str()));
    assert_eq!(
        client.cluster_status().unwrap()["registered"].as_u64(),
        Some(1)
    );

    // Kill the worker: the next status probe reports it dead.
    wh.shutdown();
    wj.join().unwrap();
    let status = client.cluster_status().unwrap();
    assert_eq!(status["live"].as_u64(), Some(0), "{status:?}");

    // Deregister removes it.
    client.deregister_worker(&id).unwrap();
    assert_eq!(
        client.cluster_status().unwrap()["registered"].as_u64(),
        Some(0)
    );
    let err = client.deregister_worker(&id).unwrap_err();
    assert!(err.to_string().contains("404"), "{err}");

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn cluster_recorded_trace_replays_to_the_single_process_report() {
    use synapse_trace::{ReplayMode, Trace};
    let (addr1, _c1, h1, j1) = boot_worker(ServerConfig::default());
    let (addr2, _c2, h2, j2) = boot_worker(ServerConfig::default());
    let (client, handle, join) = boot_coordinator(&[&addr1, &addr2], ServerConfig::default());

    let ack = client.submit_recorded(medium_spec(), true).unwrap();
    assert_eq!(ack["distributed"].as_bool(), Some(true));
    let id = ack["id"].as_str().unwrap().to_string();
    let trace_id = ack["trace"]
        .as_str()
        .expect("ack carries trace id")
        .to_string();
    await_terminal(&client, &id);

    // Fetch the sealed trace (small window between terminal status
    // and the queue worker rendering the document).
    let deadline = Instant::now() + Duration::from_secs(30);
    let text = loop {
        match client.trace(&id) {
            Ok(text) => break text,
            Err(e) => assert!(Instant::now() < deadline, "trace never sealed: {e}"),
        }
        std::thread::sleep(Duration::from_millis(10));
    };

    let trace = Trace::parse(&text).unwrap();
    assert_eq!(trace.header.trace_id, trace_id);
    let summary = trace.verify(ReplayMode::Strict).unwrap();
    assert!(summary.is_clean());
    assert_eq!(summary.points, 16);

    // The lease lifecycle is in the trace: every lease was recorded
    // as assigned and completed, attributed to a worker address.
    let leases: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("{\"kind\":\"lease\""))
        .collect();
    let assigned = leases
        .iter()
        .filter(|l| l.contains("\"phase\":\"assigned\""))
        .count();
    let completed = leases
        .iter()
        .filter(|l| l.contains("\"phase\":\"completed\""))
        .count();
    assert!(assigned >= 8, "expected >= 8 assigned leases: {assigned}");
    assert!(
        completed >= 8,
        "expected >= 8 completed leases: {completed}"
    );
    let worker_ids: std::collections::BTreeSet<String> = leases
        .iter()
        .filter_map(|l| {
            serde_json::from_str::<Value>(l)
                .ok()
                .and_then(|v| v["worker"].as_str().map(str::to_string))
        })
        .collect();
    assert!(
        worker_ids.len() >= 2,
        "lease annotations attribute both workers: {worker_ids:?}"
    );

    // Replaying the cluster-recorded trace reconstructs the exact
    // bytes of the single-process report — the acceptance gate.
    let pretty = trace
        .reconstruct_report()
        .unwrap()
        .to_json_pretty()
        .unwrap();
    let reconstructed: Value = serde_json::from_str(&pretty).unwrap();
    assert_eq!(
        serde_json::to_string(&reconstructed).unwrap(),
        single_process_report(medium_spec()).0
    );

    handle.shutdown();
    join.join().unwrap();
    h1.shutdown();
    j1.join().unwrap();
    h2.shutdown();
    j2.join().unwrap();
}
