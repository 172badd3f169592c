//! End-to-end cluster tests: a real coordinator and real worker
//! servers on ephemeral ports, leases over real sockets. Failure
//! scenes — dead, frozen, straggling and lying workers — run in
//! process under the seeded fault harness (`faults.rs`).

use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use serde_json::{json, Value};
use synapse_campaign::cache::engine_tag;
use synapse_campaign::{expand, expand_range, fingerprint, simulate_point, CampaignSpec};
use synapse_cluster::{ClusterConfig, Coordinator};
use synapse_server::{
    http, lease_batch_line, Client, LeaseRequest, Server, ServerConfig, ServerError, ServerHandle,
};
use synapse_store::{Document, ShardedDb, DEFAULT_DOC_LIMIT};
use synapse_trace::{ReplayMode, Trace};

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

/// The job id in a submit ack.
fn id_of(ack: Result<Value, ServerError>) -> String {
    ack.unwrap()["id"].as_str().unwrap().to_string()
}

/// Submit a spec plainly (no cluster) and return its compact report
/// text — the single-process baseline for byte-stability checks —
/// plus its final `/aggregates` document (the live-view baseline).
fn single_process_report(spec: &str) -> (String, Value) {
    let (_, client, handle, join) = boot_worker(ServerConfig::default());
    let id = id_of(client.submit(spec));
    let summary = client.watch(&id, |_| true).unwrap();
    assert_eq!(summary["event"].as_str(), Some("completed"));
    let report = client.report(&id).unwrap();
    let aggregates = client.aggregates(&id, None, None).unwrap();
    handle.shutdown();
    join.join().unwrap();
    (serde_json::to_string(&report).unwrap(), aggregates)
}

/// Live-view slices (a pulled view's, or every snapshot delta's in
/// order, a later one replacing an earlier) in the report's shape.
fn report_slices<'a>(slices: impl IntoIterator<Item = &'a Value>) -> Value {
    let mut rows = std::collections::BTreeMap::new();
    for slice in slices {
        let mut row = slice["metrics"].clone();
        if let Value::Object(row) = &mut row {
            row.insert("axis".into(), slice["axis"].clone());
            row.insert("value".into(), slice["value"].clone());
        }
        rows.insert((slice["axis"].as_str(), slice["value"].as_str()), row);
    }
    Value::Array(rows.into_values().collect())
}

#[test]
fn distributed_run_merges_streams_and_reports_byte_stably() {
    let (addr1, _c1, h1, j1) = boot_worker(ServerConfig::default());
    let (addr2, _c2, h2, j2) = boot_worker(ServerConfig::default());
    let (client, handle, join) = boot_coordinator(&[&addr1, &addr2], ServerConfig::default());

    // Recorded, so the trace checks below run on the same job.
    let reply = client.submit_recorded(medium_spec(), true).unwrap();
    assert_eq!(reply["distributed"].as_bool(), Some(true));
    assert_eq!(reply["points"].as_u64(), Some(16));
    let id = reply["id"].as_str().unwrap().to_string();

    // The merged stream has the same contract as a local sweep: one
    // point event per grid index, `done` monotone 1..=N, one terminal.
    let mut lines = Vec::<Value>::new();
    let summary = client
        .watch(&id, |line| {
            lines.push(serde_json::from_str(line).unwrap());
            true
        })
        .unwrap();
    assert_eq!(summary["event"].as_str(), Some("completed"));
    assert_eq!(summary["points"].as_u64(), Some(16));
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

    // The served live view, folded from the merged point stream by the
    // job observer, equals the single-process one (the job ids aside),
    // and its slices are the report's, field for field.
    let mut aggregates = client.aggregates(&id, None, None).unwrap();
    assert_eq!(aggregates["points"].as_u64(), Some(16));
    if let Value::Object(doc) = &mut aggregates {
        doc.insert("id".into(), baseline_aggregates["id"].clone());
    }
    assert_eq!(aggregates, baseline_aggregates);
    let report: Value = serde_json::from_str(&merged).unwrap();
    let pulled = aggregates["slices"].as_array().unwrap();
    assert_eq!(report_slices(pulled), report["slices"]);
    // So are the slices a watcher holds after folding in every
    // `snapshot` delta, the terminal one last.
    let deltas = lines.iter().filter(|l| l["event"] == "snapshot");
    let deltas = deltas.flat_map(|s| s["slices"].as_array().unwrap());
    assert_eq!(report_slices(deltas), report["slices"]);

    // The trace is sealed before the job reports its end. It carries
    // the ack's causality id, strict-replays to the single-process
    // report's bytes, and attributes the completed leases to both
    // workers.
    let text = client.trace(&id).unwrap();
    let trace = Trace::parse(&text).unwrap();
    assert_eq!(reply["trace"].as_str(), Some(&*trace.header.trace_id));
    assert_eq!(trace.verify(ReplayMode::Strict).unwrap().points, 16);
    let replayed = trace.reconstruct_report().unwrap().to_json_pretty();
    let replayed: Value = serde_json::from_str(&replayed.unwrap()).unwrap();
    assert_eq!(serde_json::to_string(&replayed).unwrap(), baseline_report);
    let leases: Vec<Value> = text
        .lines()
        .filter(|l| l.starts_with("{\"kind\":\"lease\""))
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    let phase = |phase: &'static str| leases.iter().filter(move |l| l["phase"] == phase);
    assert!(phase("assigned").count() >= 8, "{leases:?}");
    assert!(phase("completed").count() >= 8, "{leases:?}");
    let workers: std::collections::BTreeSet<&str> = phase("completed")
        .map(|l| l["worker"].as_str().unwrap())
        .collect();
    assert_eq!(workers.len(), 2, "lease annotations attribute both workers");

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
fn coordinator_without_workers_falls_back_to_local_execution() {
    let (client, handle, join) = boot_coordinator(&[], ServerConfig::default());
    let id = id_of(client.submit_distributed(medium_spec()));
    let summary = client.watch(&id, |_| true).unwrap();
    assert_eq!(summary["event"].as_str(), Some("completed"));
    assert_eq!(summary["points"].as_u64(), Some(16));
    let merged = serde_json::to_string(&client.report(&id).unwrap()).unwrap();
    assert_eq!(merged, single_process_report(medium_spec()).0);
    handle.shutdown();
    join.join().unwrap();
}

/// The lease `DELETE` path a scripted worker received, and its signal.
type Deleted = Arc<(Mutex<Option<String>>, Condvar)>;

/// A scripted socket worker: its lease stream sends `started` and the
/// lease's first point, then heartbeats — as a real worker does on a
/// quiet stream — until the coordinator's `DELETE` for the lease
/// arrives, so the sweep stays mid-flight with no timing assumption.
/// Returns its address and the DELETE path it received.
fn held_lease_worker() -> (String, Deleted) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let deleted: Deleted = Arc::default();
    let lease: Arc<Mutex<Option<LeaseRequest>>> = Arc::default();
    let seen = deleted.clone();
    std::thread::spawn(move || {
        for mut out in listener.incoming().map_while(Result::ok) {
            let (deleted, lease) = (seen.clone(), lease.clone());
            // Each request on its own thread: probes and the DELETE
            // are answered while the lease stream is held open.
            std::thread::spawn(move || {
                let mut reader = BufReader::new(out.try_clone().unwrap());
                let Ok(request) = http::read_request(&mut reader) else {
                    return;
                };
                let mut reply = json!({"status": "ok"});
                match (request.method.as_str(), request.path()) {
                    ("POST", "/leases") => {
                        let body = std::str::from_utf8(&request.body).unwrap();
                        *lease.lock().unwrap() = serde_json::from_str(body).ok();
                        reply = json!({"id": "c1", "status": "queued"});
                    }
                    ("GET", "/campaigns/c1/events") => {
                        let lease = lease.lock().unwrap().clone().expect("lease posted first");
                        let point = &expand_range(&lease.spec, lease.start, lease.start + 1)[0];
                        let result = Arc::new(simulate_point(point).unwrap());
                        let batch = lease_batch_line(&[(result, false)], None);
                        let mut bytes = http::stream_head_bytes("application/x-ndjson");
                        let chunk = |bytes: &mut Vec<u8>, line: &str| {
                            http::append_chunk(bytes, format!("{line}\n").as_bytes());
                        };
                        chunk(&mut bytes, "{\"event\":\"started\"}");
                        chunk(&mut bytes, &batch);
                        let (path, arrived) = &*deleted;
                        let mut path = path.lock().unwrap();
                        while path.is_none() && out.write_all(&bytes).is_ok() {
                            bytes.clear();
                            chunk(&mut bytes, "{\"event\":\"heartbeat\"}");
                            path = arrived
                                .wait_timeout(path, Duration::from_millis(10))
                                .unwrap()
                                .0;
                        }
                        return; // the coordinator hung up before its DELETE
                    }
                    ("DELETE", path) => {
                        *deleted.0.lock().unwrap() = Some(path.to_string());
                        deleted.1.notify_all();
                    }
                    _ => {}
                }
                let _ = out.write_all(&http::json_bytes(200, "OK", &reply));
            });
        }
    });
    (addr, deleted)
}

#[test]
fn distributed_jobs_cancel_cooperatively() {
    let (addr, deleted) = held_lease_worker();
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
    assert_eq!(aggregates["points"].as_u64(), Some(done), "{aggregates:?}");
    assert_eq!(
        aggregates["overall"]["metrics"]["tx"]["n"].as_u64(),
        Some(done)
    );

    assert_eq!(summary["event"].as_str(), Some("cancelled"), "{summary:?}");
    assert!(summary["done"].as_u64().unwrap() < total, "{summary:?}");
    let status = client.status(&id).unwrap();
    assert_eq!(status["status"].as_str(), Some("cancelled"), "{status:?}");
    // The coordinator stopped the worker-side sweep of its open lease
    // with a DELETE over the socket.
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

    let id = id_of(client.submit_distributed(medium_spec()));
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
    let id = id_of(c3.submit(medium_spec()));
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
fn an_undecodable_stored_result_is_simulated_again_on_the_lease_path() {
    // A warm shared cache where one real fingerprint's document is
    // valid JSON, and a result's but for one field, yet not a result.
    // A worker must not ship it: that point is simulated again, and the
    // merged report is the cold one.
    let dir = std::env::temp_dir().join(format!("synapse-cluster-bad-doc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let points = expand(&CampaignSpec::from_toml(medium_spec()).unwrap());
    let bad = points[5].index;
    {
        let db = ShardedDb::open(&dir, DEFAULT_DOC_LIMIT, engine_tag()).unwrap();
        for point in &points {
            let mut result = serde_json::to_value(simulate_point(point).unwrap()).unwrap();
            if let (true, Value::Object(fields)) = (point.index == bad, &mut result) {
                fields.insert("tx".into(), json!("not a number"));
            }
            db.upsert(Document::new(fingerprint(point), &result).unwrap())
                .unwrap();
        }
        db.save().unwrap();
    }
    let shared = || ServerConfig {
        cache_dir: Some(dir.clone()),
        ..Default::default()
    };
    let (addr1, _c1, h1, j1) = boot_worker(shared());
    let (addr2, _c2, h2, j2) = boot_worker(shared());
    let (client, handle, join) = boot_coordinator(&[&addr1, &addr2], ServerConfig::default());

    let id = id_of(client.submit_distributed(medium_spec()));
    let mut cached = BTreeMap::new();
    let summary = client
        .watch(&id, |line| {
            let event: Value = serde_json::from_str(line).unwrap();
            if event["event"].as_str() == Some("point") {
                cached.insert(event["index"].as_u64().unwrap(), event["cached"].as_bool());
            }
            true
        })
        .unwrap();
    assert_eq!(summary["event"].as_str(), Some("completed"), "{summary:?}");
    assert_eq!(cached.len(), points.len());
    for (index, cached) in &cached {
        assert_eq!(*cached, Some(*index != bad as u64), "point {index}");
    }
    let merged = serde_json::to_string(&client.report(&id).unwrap()).unwrap();
    assert_eq!(merged, single_process_report(medium_spec()).0);

    handle.shutdown();
    join.join().unwrap();
    h1.shutdown();
    j1.join().unwrap();
    h2.shutdown();
    j2.join().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
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
