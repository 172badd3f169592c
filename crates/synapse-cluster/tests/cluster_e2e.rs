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

/// Assert two aggregate stats objects agree: counts and extrema
/// exactly, mean and sketch quantiles within the sketch's relative
/// error (merging per-worker sketches regroups f64 additions and must
/// not change what a dashboard reads).
fn assert_stats_close(cluster: &Value, local: &Value, what: &str) {
    assert_eq!(cluster["n"], local["n"], "{what}: count");
    if cluster["n"].as_u64() == Some(0) {
        return;
    }
    for key in ["min", "max"] {
        assert_eq!(cluster[key], local[key], "{what}: {key}");
    }
    for key in ["mean", "p50", "p95", "p99"] {
        let c = cluster[key].as_f64().unwrap();
        let l = local[key].as_f64().unwrap();
        let tolerance = 0.02 * l.abs().max(1e-9);
        assert!(
            (c - l).abs() <= tolerance,
            "{what}: {key} diverged: cluster {c} vs local {l}"
        );
    }
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

    // The live aggregate view assembled from worker-shipped sketch
    // digests agrees with the single-process one: same coverage, same
    // slice keys, stats within sketch error.
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
    // Remotely-run leases shipped aggregate digests home and the
    // coordinator folded them into the campaign's live view. Not all 8
    // necessarily merge: a lease whose stream is still open when the
    // grid completes hangs up before its terminal event (and the
    // catch-up records its points directly), so the floor is most-of,
    // not all-of.
    assert!(
        value("synapse_cluster_sketch_merges_total") >= 4.0,
        "worker sketch digests merged: {metrics}"
    );
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
    let worker_config = || ServerConfig {
        job_workers: 1,
        ..Default::default()
    };
    let (addr1, _c1, h1, j1) = boot_worker(worker_config());
    let (client, handle, join) = boot_coordinator(&[&addr1], ServerConfig::default());

    let reply = client.submit_distributed(wide_spec()).unwrap();
    let total = reply["points"].as_u64().unwrap();
    let id = reply["id"].as_str().unwrap().to_string();
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if client.status(&id).unwrap()["done"].as_u64().unwrap() >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "no point ever landed");
        std::thread::sleep(Duration::from_millis(10));
    }
    client.cancel(&id).unwrap();
    let status = await_terminal(&client, &id);
    assert_eq!(status["status"].as_str(), Some("cancelled"));
    assert!(status["done"].as_u64().unwrap() < total);
    // The worker's own lease jobs settle too (nothing keeps sweeping).
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let jobs = Client::new(addr1.clone()).list().unwrap();
        let busy = jobs["campaigns"]
            .as_array()
            .unwrap()
            .iter()
            .any(|j| matches!(j["status"].as_str(), Some("queued") | Some("running")));
        if !busy {
            break;
        }
        assert!(Instant::now() < deadline, "worker still sweeping: {jobs:?}");
        std::thread::sleep(Duration::from_millis(50));
    }

    handle.shutdown();
    join.join().unwrap();
    h1.shutdown();
    j1.join().unwrap();
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
                        let _ = out.write_all(&synapse_server::http::json_bytes(
                            200,
                            "OK",
                            &serde_json::json!({"status": "ok"}),
                        ));
                    }
                    ("POST", "/leases") => {
                        let _ = out.write_all(&synapse_server::http::json_bytes(
                            202,
                            "Accepted",
                            &serde_json::json!({"id": "j1", "status": "queued"}),
                        ));
                    }
                    (_, path) if path.ends_with("/events") => {
                        // Stream head + one started event, then
                        // silence with the socket held open.
                        let _ = out.write_all(
                            b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
                              Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n\
                              14\r\n{\"event\":\"started\"}\n\r\n",
                        );
                        frozen.store(true, Ordering::SeqCst);
                        held_open.push(out);
                    }
                    _ => {
                        let _ = out.write_all(&synapse_server::http::json_bytes(
                            200,
                            "OK",
                            &serde_json::json!({}),
                        ));
                    }
                }
            }
        })
    };

    // A coordinator with an aggressive silence threshold (the default
    // is 2× the 10 s heartbeat interval; tests cannot wait that long).
    let coordinator = Arc::new(Coordinator::new(ClusterConfig {
        stream_silence: Duration::from_millis(400),
        ..Default::default()
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
    use std::io::{BufReader, Write};
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

    fn chunk(line: &str) -> Vec<u8> {
        let payload = format!("{line}\n");
        format!("{:x}\r\n{payload}\r\n", payload.len()).into_bytes()
    }

    // A fake worker that serves CORRECT lease results but crawls: on
    // any multi-point lease it sleeps ~3 s before each point, so a
    // full 8-point lease would take ~24 s on its own. Probe leases
    // (1 point) run at full speed so this worker measures healthy and
    // promptly claims a big main lease. Thread-per-connection keeps
    // liveness probes answered while a lease stream crawls.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let cancelled = Arc::new(AtomicBool::new(false));
    let leases: Arc<Mutex<HashMap<String, Vec<synapse_campaign::ScenarioPoint>>>> =
        Arc::new(Mutex::new(HashMap::new()));
    let next_id = Arc::new(AtomicUsize::new(0));
    let fake = {
        let (cancelled, leases, next_id) = (cancelled.clone(), leases.clone(), next_id.clone());
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(stream) = conn else { break };
                let (cancelled, leases, next_id) =
                    (cancelled.clone(), leases.clone(), next_id.clone());
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let Ok(request) = synapse_server::http::read_request(&mut reader) else {
                        return;
                    };
                    let mut out = stream;
                    let path = request.path().to_string();
                    match (request.method.as_str(), path.as_str()) {
                        ("POST", "/leases") => {
                            let body = String::from_utf8(request.body.clone()).expect("utf8 body");
                            let lease: synapse_server::LeaseRequest =
                                serde_json::from_str(&body).expect("lease body");
                            let slice = synapse_campaign::expand(&lease.spec)
                                [lease.start..lease.end]
                                .to_vec();
                            let id = format!("s{}", next_id.fetch_add(1, Ordering::SeqCst) + 1);
                            leases.lock().unwrap().insert(id.clone(), slice);
                            let _ = out.write_all(&synapse_server::http::json_bytes(
                                202,
                                "Accepted",
                                &serde_json::json!({"id": id, "status": "queued"}),
                            ));
                        }
                        ("GET", p) if p.contains("/events") => {
                            let id = p.split('/').nth(2).unwrap_or_default().to_string();
                            let slice =
                                leases.lock().unwrap().get(&id).cloned().unwrap_or_default();
                            let _ = out.write_all(
                                b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
                                  Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
                            );
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
                                let result = synapse_campaign::simulate_point(point)
                                    .expect("simulate point");
                                let line = synapse_server::lease_batch_line(
                                    &[(Arc::new(result), false)],
                                    None,
                                );
                                if out.write_all(&chunk(&line)).is_err() {
                                    break;
                                }
                            }
                            let done =
                                format!("{{\"event\":\"completed\",\"points\":{}}}", slice.len());
                            let _ = out.write_all(&chunk(&done));
                            let _ = out.write_all(b"0\r\n\r\n");
                        }
                        ("DELETE", p) if p.starts_with("/campaigns/") => {
                            cancelled.store(true, Ordering::SeqCst);
                            let _ = out.write_all(&synapse_server::http::json_bytes(
                                200,
                                "OK",
                                &serde_json::json!({"status": "cancelled"}),
                            ));
                        }
                        _ => {
                            let _ = out.write_all(&synapse_server::http::json_bytes(
                                200,
                                "OK",
                                &serde_json::json!({"status": "ok"}),
                            ));
                        }
                    }
                });
            }
        })
    };

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

    handle.shutdown();
    join.join().unwrap();
    fh.shutdown();
    fj.join().unwrap();
    drop(fake);
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
