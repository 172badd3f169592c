//! End-to-end tests: a real server on an ephemeral port, driven
//! through the real client over real sockets.

#![expect(
    unsafe_code,
    reason = "setsockopt and the RLIMIT_NOFILE calls are FFI calls"
)]

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use serde_json::Value;
use synapse_server::{Client, Server, ServerConfig, ServerError, ServerHandle};

/// Boot a server with the given config (addr forced ephemeral),
/// returning a client bound to it and the shutdown handle.
fn boot(mut config: ServerConfig) -> (Client, ServerHandle, std::thread::JoinHandle<()>) {
    config.addr = "127.0.0.1:0".into();
    let server = Server::bind(config).expect("bind ephemeral");
    let handle = server.handle().expect("handle");
    let addr = server.local_addr().expect("addr");
    let join = std::thread::spawn(move || server.run().expect("server run"));
    (Client::new(addr.to_string()), handle, join)
}

fn example_spec() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/campaign.toml");
    std::fs::read_to_string(path).expect("examples/campaign.toml readable")
}

/// A small sweep for the fast tests.
fn small_spec() -> &'static str {
    r#"
    name = "e2e-small"
    seed = 41
    machines = ["thinkie", "comet"]
    kernels = ["asm", "c"]

    [[workloads]]
    app = "gromacs"
    steps = [10000, 50000]
    "#
}

/// The job id in a submit ack.
fn id_of(ack: Result<Value, ServerError>) -> String {
    ack.unwrap()["id"].as_str().unwrap().to_string()
}

/// Block until the job ends, returning its terminal status: the
/// server sets the terminal state before it pushes the terminal event.
/// The stream's heartbeats bound the wait: a job still running after
/// 120 s fails the test, named.
fn await_terminal(client: &Client, id: &str) -> Value {
    let deadline = Instant::now() + Duration::from_secs(120);
    let in_time = |_: &str| Instant::now() < deadline;
    client.watch_with_keepalive(id, in_time).expect("watch");
    let status = client.status(id).expect("status");
    let state = status["status"].as_str().unwrap_or_default();
    assert!(
        ["completed", "cancelled", "failed"].contains(&state),
        "job {id} stuck in {state}"
    );
    status
}

#[test]
fn healthz_and_store_stats_respond() {
    let (client, handle, join) = boot(ServerConfig::default());
    let health = client.healthz().unwrap();
    assert_eq!(health["status"].as_str(), Some("ok"));
    assert_eq!(health["jobs"].as_u64(), Some(0));
    let stats = client.store_stats().unwrap();
    assert_eq!(stats["results"].as_u64(), Some(0));
    // In-memory stores carry no manifest engine tag; the field is
    // present either way.
    assert!(stats["engine"].as_str().is_some());
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn example_campaign_streams_every_point_and_summary_is_byte_stable() {
    let (client, handle, join) = boot(ServerConfig::default());

    let reply = client.submit(&example_spec()).unwrap();
    let id = reply["id"].as_str().unwrap().to_string();
    let total = reply["points"].as_u64().unwrap() as usize;
    assert_eq!(total, 192, "examples/campaign.toml grid size");

    // Consume the stream: exactly one `point` event per grid point,
    // lifecycle events around them, every grid index exactly once.
    let lines = Mutex::new(Vec::<Value>::new());
    let summary = client
        .watch(&id, |line| {
            lines
                .lock()
                .unwrap()
                .push(serde_json::from_str::<Value>(line).expect("event is JSON"));
            true
        })
        .unwrap();
    assert_eq!(summary["event"].as_str(), Some("completed"));
    assert_eq!(summary["points"].as_u64(), Some(192));
    assert_eq!(summary["simulated"].as_u64(), Some(192));

    let lines = lines.into_inner().unwrap();
    let points: Vec<&Value> = lines
        .iter()
        .filter(|l| l["event"].as_str() == Some("point"))
        .collect();
    assert_eq!(points.len(), total, "one point event per grid point");
    let mut indices: Vec<u64> = points
        .iter()
        .map(|p| p["index"].as_u64().unwrap())
        .collect();
    indices.sort_unstable();
    assert_eq!(indices, (0..total as u64).collect::<Vec<_>>());
    assert!(
        lines
            .iter()
            .any(|l| l["event"].as_str() == Some("snapshot")),
        "192-point sweep crosses the snapshot cadence"
    );
    // `done` in arrival order is 1..=N: events streamed as they
    // landed, not replayed from a completed job.
    let dones: Vec<u64> = points.iter().map(|p| p["done"].as_u64().unwrap()).collect();
    assert_eq!(dones, (1..=total as u64).collect::<Vec<_>>());

    // Byte-stable report for a fixed seed: an identical submission on
    // a *fresh* server (fresh cache, different completion order)
    // serializes to the identical report.
    let report_a = client.report(&id).unwrap();
    let text_a = serde_json::to_string(&report_a).unwrap();
    let (client_b, handle_b, join_b) = boot(ServerConfig::default());
    let reply_b = client_b.submit(&example_spec()).unwrap();
    let id_b = reply_b["id"].as_str().unwrap().to_string();
    client_b.watch(&id_b, |_| true).unwrap();
    let text_b = serde_json::to_string(&client_b.report(&id_b).unwrap()).unwrap();
    assert_eq!(text_a, text_b, "deterministic report across servers");
    handle_b.shutdown();
    join_b.join().unwrap();

    handle.shutdown();
    join.join().unwrap();
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
fn aggregates_endpoint_answers_mid_sweep_and_stream_mode_omits_points() {
    // A wide grid on a single slow worker so the sweep is reliably
    // still running when the mid-sweep queries land.
    let wide = r#"
    name = "e2e-aggregates"
    seed = 7
    machines = ["thinkie", "stampede", "archer", "supermic", "comet", "titan"]
    kernels = ["asm", "c", "spin"]
    modes = ["openmp", "mpi"]
    threads = [1, 2, 4, 8]

    [[workloads]]
    app = "gromacs"
    steps = [10000, 50000, 100000, 200000]
    "#;
    let (client, handle, join) = boot(ServerConfig {
        queue_workers: 1,
        job_workers: 1,
        ..Default::default()
    });
    let reply = client.submit(wide).unwrap();
    let id = reply["id"].as_str().unwrap().to_string();
    let total = reply["points"].as_u64().unwrap();

    // Poll /aggregates while the sweep runs: the view must answer
    // mid-sweep with a consistent partial document.
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut saw_mid_sweep = false;
    loop {
        let doc = client.aggregates(&id, None, None).unwrap();
        let done = doc["done"].as_u64().unwrap();
        let points = doc["points"].as_u64().unwrap();
        assert!(points <= done, "aggregated {points} of {done} done");
        assert_eq!(doc["v"].as_u64(), Some(1));
        if points > 0 && done < total {
            assert!(
                doc["overall"]["metrics"]["error_pct"]["n"]
                    .as_u64()
                    .unwrap()
                    > 0,
                "overall stats populated mid-sweep: {doc:?}"
            );
            assert!(
                !doc["slices"].as_array().unwrap().is_empty(),
                "per-axis slices populated mid-sweep"
            );
            saw_mid_sweep = true;
            break;
        }
        if ["completed", "cancelled", "failed"]
            .contains(&doc["status"].as_str().unwrap_or("unknown"))
        {
            break;
        }
        assert!(Instant::now() < deadline, "sweep never progressed");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(saw_mid_sweep, "aggregates answered while the job ran");

    // Narrowing by axis keeps only that axis's slices; by metric keeps
    // only that metric's stats.
    let narrowed = client
        .aggregates(&id, Some("machine"), Some("error_pct"))
        .unwrap();
    let slices = narrowed["slices"].as_array().unwrap();
    assert!(!slices.is_empty());
    for slice in slices {
        assert_eq!(slice["axis"].as_str(), Some("machine"));
        let metrics = slice["metrics"].as_object().unwrap();
        assert!(metrics.contains_key("error_pct"));
        assert!(!metrics.contains_key("tx"));
    }
    // Unknown axis names are a 400 listing the valid ones, not a 500.
    let err = client.aggregates(&id, Some("bogus"), None).unwrap_err();
    assert!(err.to_string().contains("400"), "{err}");
    assert!(err.to_string().contains("machine"), "{err}");

    let status = await_terminal(&client, &id);
    assert_eq!(status["status"].as_str(), Some("completed"));

    // After completion the view covers the whole grid, and the stream
    // in aggregate mode replays lifecycle + snapshots but no points.
    let final_doc = client.aggregates(&id, None, None).unwrap();
    assert_eq!(final_doc["points"].as_u64(), Some(total));
    let lines = Mutex::new(Vec::<Value>::new());
    let mut aggregate_bytes = 0;
    let last = client
        .watch_aggregates(&id, |line| {
            aggregate_bytes += line.len() + 1;
            lines
                .lock()
                .unwrap()
                .push(serde_json::from_str(line).expect("event is JSON"));
            true
        })
        .unwrap();
    assert_eq!(last["event"].as_str(), Some("completed"));
    let lines = lines.into_inner().unwrap();
    assert!(
        lines.iter().all(|l| l["event"].as_str() != Some("point")),
        "aggregate stream carries no per-point lines"
    );
    // ... which is what makes it O(slices), not O(points): a replay of
    // the finished job is under half the raw replay's bytes.
    let mut raw_bytes = 0;
    client
        .watch(&id, |line| {
            raw_bytes += line.len() + 1;
            true
        })
        .unwrap();
    assert!(
        aggregate_bytes > 0 && aggregate_bytes * 2 < raw_bytes,
        "aggregate replay {aggregate_bytes} B vs raw {raw_bytes} B"
    );
    let snapshots: Vec<&Value> = lines
        .iter()
        .filter(|l| l["event"].as_str() == Some("snapshot"))
        .collect();
    assert!(!snapshots.is_empty(), "snapshot deltas present");
    // Snapshot `done` counters are monotone and the last one covers
    // the grid (the guaranteed terminal snapshot).
    let dones: Vec<u64> = snapshots
        .iter()
        .map(|s| s["done"].as_u64().unwrap())
        .collect();
    assert!(dones.windows(2).all(|w| w[0] <= w[1]), "{dones:?}");
    assert_eq!(*dones.last().unwrap(), total);

    // The finished view's slices are the report's, field for field —
    // both as pulled and as a watcher holds them after folding in every
    // snapshot delta.
    let report = client.report(&id).unwrap();
    let pulled = final_doc["slices"].as_array().unwrap();
    assert_eq!(report_slices(pulled), report["slices"]);
    let deltas = snapshots
        .iter()
        .flat_map(|s| s["slices"].as_array().unwrap());
    assert_eq!(report_slices(deltas), report["slices"]);

    // /aggregates on an unknown job is a 404.
    let err = client.aggregates("j999", None, None).unwrap_err();
    assert!(err.to_string().contains("404"), "{err}");
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn resubmitting_an_identical_spec_is_all_cache_hits() {
    let (client, handle, join) = boot(ServerConfig::default());
    let first = client.submit(small_spec()).unwrap();
    let id1 = first["id"].as_str().unwrap().to_string();
    let summary1 = client.watch(&id1, |_| true).unwrap();
    assert_eq!(summary1["cache_hit_rate"].as_f64(), Some(0.0));

    let second = client.submit(small_spec()).unwrap();
    let id2 = second["id"].as_str().unwrap().to_string();
    assert_ne!(id1, id2, "every submission is its own job");
    let summary2 = client.watch(&id2, |_| true).unwrap();
    assert_eq!(
        summary2["cache_hit_rate"].as_f64(),
        Some(1.0),
        "identical spec served entirely from the shared cache: {summary2:?}"
    );
    assert_eq!(summary2["simulated"].as_u64(), Some(0));

    // The status document agrees.
    let status = await_terminal(&client, &id2);
    assert_eq!(status["cache_hit_rate"].as_f64(), Some(1.0));
    // And the process-wide store holds exactly one copy of the grid.
    let stats = client.store_stats().unwrap();
    assert_eq!(stats["results"].as_u64(), Some(8));
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn concurrent_jobs_share_one_cache_handle() {
    // Two identical submissions racing on a 2-worker queue: together
    // they must simulate at most the grid once per point — every
    // overlap is a hit on the shared in-process cache. (Both jobs
    // running concurrently is the configuration under test; the
    // assertion below holds regardless of interleaving.)
    let (client, handle, join) = boot(ServerConfig {
        queue_workers: 2,
        job_workers: 2,
        ..Default::default()
    });
    let a = client.submit(small_spec()).unwrap();
    let b = client.submit(small_spec()).unwrap();
    let id_a = a["id"].as_str().unwrap().to_string();
    let id_b = b["id"].as_str().unwrap().to_string();
    let sa = await_terminal(&client, &id_a);
    let sb = await_terminal(&client, &id_b);
    assert_eq!(sa["status"].as_str(), Some("completed"));
    assert_eq!(sb["status"].as_str(), Some("completed"));
    let done_a = sa["done"].as_u64().unwrap();
    let done_b = sb["done"].as_u64().unwrap();
    assert_eq!(done_a + done_b, 16, "both jobs drained their grids");
    // The cache ends up with one entry per distinct point.
    let stats = client.store_stats().unwrap();
    assert_eq!(stats["results"].as_u64(), Some(8));
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn cancellation_stops_a_running_job_mid_grid() {
    // A wide grid on a single slow worker, cancelled as soon as the
    // first points land.
    let wide = r#"
    name = "e2e-cancel"
    seed = 5
    machines = ["thinkie", "stampede", "archer", "supermic", "comet", "titan"]
    kernels = ["asm", "c", "spin"]
    modes = ["openmp", "mpi"]
    threads = [1, 2, 4, 8]

    [[workloads]]
    app = "gromacs"
    steps = [10000, 50000, 100000, 200000]

    [[workloads]]
    app = "amber"
    steps = [10000, 50000, 100000, 200000]
    "#;
    let (client, handle, join) = boot(ServerConfig {
        queue_workers: 1,
        job_workers: 1,
        ..Default::default()
    });
    let reply = client.submit(wide).unwrap();
    let id = reply["id"].as_str().unwrap().to_string();
    let total = reply["points"].as_u64().unwrap();
    assert_eq!(total, 6 * 3 * 2 * 4 * 8);

    // Wait for the sweep to actually start landing points…
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = client.status(&id).unwrap();
        if status["done"].as_u64().unwrap() >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "no point ever landed");
        std::thread::sleep(Duration::from_millis(10));
    }
    // …then cancel and confirm the job settles well short of the grid.
    let on_delete = client.cancel(&id).unwrap();
    assert!(["running", "cancelled"].contains(&on_delete["status"].as_str().unwrap()));
    let status = await_terminal(&client, &id);
    assert_eq!(status["status"].as_str(), Some("cancelled"));
    let done = status["done"].as_u64().unwrap();
    assert!(done < total, "cancelled mid-grid: {done}/{total}");
    // The stream of a cancelled job terminates with a cancelled event.
    let last = client.watch(&id, |_| true).unwrap();
    assert_eq!(last["event"].as_str(), Some("cancelled"));
    assert_eq!(last["done"].as_u64(), Some(done));
    // The report never materialized.
    let err = client.report(&id).unwrap_err();
    assert!(err.to_string().contains("409"), "{err}");
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn cancelling_a_queued_job_settles_immediately() {
    // One queue worker held by a job that cannot finish until it is
    // cancelled; a second job queued behind it is DELETEd before it
    // ever runs.
    let (client, handle, join) = boot(ServerConfig {
        queue_workers: 1,
        job_workers: 1,
        ..Default::default()
    });
    let busy_id = id_of(client.submit(endless_spec()));
    let queued_id = id_of(client.submit(small_spec()));
    let before = client.status(&queued_id).unwrap();
    assert_eq!(before["status"].as_str(), Some("queued"));
    let settled = client.cancel(&queued_id).unwrap();
    assert_eq!(settled["status"].as_str(), Some("cancelled"));
    assert_eq!(settled["done"].as_u64(), Some(0));
    let last = client.watch(&queued_id, |_| true).unwrap();
    assert_eq!(last["event"].as_str(), Some("cancelled"));
    // The busy job is unaffected: live until it is cancelled.
    let status = client.status(&busy_id).unwrap();
    let state = status["status"].as_str().unwrap();
    assert!(["queued", "running"].contains(&state), "{state}");
    client.cancel(&busy_id).unwrap();
    let status = await_terminal(&client, &busy_id);
    assert_eq!(status["status"].as_str(), Some("cancelled"));
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn watch_callback_can_hang_up_early() {
    let (client, handle, join) = boot(ServerConfig::default());
    let id = id_of(client.submit(&example_spec()));
    // Stop after the first `point` event: watch must return promptly
    // with that event instead of draining the remaining grid.
    let mut seen = 0;
    let last = client
        .watch(&id, |line| {
            if line.contains("\"event\":\"point\"") {
                seen += 1;
                return false;
            }
            true
        })
        .unwrap();
    assert_eq!(seen, 1, "exactly one point consumed");
    assert_eq!(last["event"].as_str(), Some("point"));
    // The job itself is unaffected and runs to completion.
    let status = await_terminal(&client, &id);
    assert_eq!(status["status"].as_str(), Some("completed"));
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn malformed_submissions_get_4xx_not_jobs() {
    let (client, handle, join) = boot(ServerConfig::default());
    for (label, body) in [
        ("bad TOML", "name = \"x\"\nmachines = [unterminated"),
        ("bad JSON", "{\"name\": \"x\", \"machines\":"),
        ("unknown machine", "name = \"x\"\nmachines = [\"frontier\"]\nkernels = [\"asm\"]\n\n[[workloads]]\napp = \"gromacs\"\nsteps = [1000]\n"),
        ("unknown fs", "name = \"x\"\nfilesystems = [\"gpfs\"]\nmachines = [\"thinkie\"]\nkernels = [\"asm\"]\n\n[[workloads]]\napp = \"gromacs\"\nsteps = [1000]\n"),
        ("empty axis", "name = \"x\"\nmachines = [\"thinkie\"]\nkernels = []\n\n[[workloads]]\napp = \"gromacs\"\nsteps = [1000]\n"),
        // Unbounded per-point sample counts never reach a worker.
        ("unbounded sample rate", "{\"name\":\"x\",\"machines\":[\"thinkie\"],\"kernels\":[\"asm\"],\"sample_rates\":[1e9],\"workloads\":[{\"app\":\"gromacs\",\"steps\":[1000]}]}"),
        ("unbounded steps", "name = \"x\"\nmachines = [\"thinkie\"]\nkernels = [\"asm\"]\n\n[[workloads]]\napp = \"gromacs\"\nsteps = [1000000000000000000]\n"),
    ] {
        let err = client.submit(body).unwrap_err();
        assert!(
            err.to_string().contains("400"),
            "{label}: expected 400, got {err}"
        );
    }
    // Nothing leaked into the job table.
    let health = client.healthz().unwrap();
    assert_eq!(health["jobs"].as_u64(), Some(0));

    // Unknown endpoints and wrong methods are 404/405, not hangs.
    let missing = client.status("j999").unwrap_err();
    assert!(missing.to_string().contains("404"), "{missing}");
    for (method, path, status, allow) in [
        ("PUT", "/healthz", "405", Some("GET")),
        ("POST", "/campaigns/j999/events", "405", Some("GET")),
        ("GET", "/campaigns/j999/bogus", "404", None),
    ] {
        let mut raw = TcpStream::connect(handle.addr()).unwrap();
        write!(
            raw,
            "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n"
        )
        .unwrap();
        let mut response = String::new();
        raw.read_to_string(&mut response).unwrap();
        assert!(
            response.starts_with(&format!("HTTP/1.1 {status}")),
            "{method} {path}: {response:?}"
        );
        let head = response.split("\r\n\r\n").next().unwrap();
        let allowed = head.lines().find_map(|l| l.strip_prefix("Allow: "));
        assert_eq!(allowed, allow, "{method} {path}: {response:?}");
    }
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn fs_and_atom_axes_are_submittable_over_the_wire() {
    let spec = r#"
    name = "e2e-axes"
    seed = 9
    machines = ["titan"]
    kernels = ["asm"]
    filesystems = ["default", "local"]
    atoms = ["all", "no-storage"]

    [[workloads]]
    app = "gromacs"
    steps = [10000]
    "#;
    let (client, handle, join) = boot(ServerConfig::default());
    let reply = client.submit(spec).unwrap();
    assert_eq!(reply["points"].as_u64(), Some(4), "2 fs × 2 atom sets");
    let id = reply["id"].as_str().unwrap().to_string();
    let summary = client.watch(&id, |_| true).unwrap();
    assert_eq!(summary["event"].as_str(), Some("completed"));
    let report = client.report(&id).unwrap();
    let rows = report["results"].as_array().unwrap();
    assert_eq!(rows.len(), 4);
    let atoms: Vec<&str> = rows.iter().map(|r| r["atoms"].as_str().unwrap()).collect();
    assert!(atoms.contains(&"no-storage"));
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn persistent_cache_dir_survives_server_restarts() {
    let dir = std::env::temp_dir().join(format!("synapse-server-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || ServerConfig {
        cache_dir: Some(dir.clone()),
        ..Default::default()
    };
    let (client, handle, join) = boot(config());
    let id = id_of(client.submit(small_spec()));
    let summary = client.watch(&id, |_| true).unwrap();
    assert_eq!(summary["simulated"].as_u64(), Some(8));
    handle.shutdown();
    join.join().unwrap();

    // A new process-analogue (fresh server, same dir) serves the same
    // spec without simulating anything.
    let (client2, handle2, join2) = boot(config());
    let id2 = id_of(client2.submit(small_spec()));
    let summary2 = client2.watch(&id2, |_| true).unwrap();
    assert_eq!(summary2["cache_hit_rate"].as_f64(), Some(1.0));
    assert_eq!(summary2["simulated"].as_u64(), Some(0));
    handle2.shutdown();
    join2.join().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn lease_endpoint_sweeps_a_slice_with_full_results() {
    let (client, handle, join) = boot(ServerConfig::default());
    let spec = synapse_campaign::CampaignSpec::from_toml(small_spec()).unwrap();
    let total = spec.point_count();
    assert_eq!(total, 8);
    let lease = synapse_server::LeaseRequest {
        spec: spec.clone(),
        start: 2,
        end: 6,
    };
    let reply = client
        .submit_lease(&serde_json::to_string(&lease).unwrap())
        .unwrap();
    assert_eq!(reply["points"].as_u64(), Some(4), "{reply:?}");
    assert_eq!(reply["lease"]["start"].as_u64(), Some(2));
    assert_eq!(reply["grid_points"].as_u64(), Some(8));
    let id = reply["id"].as_str().unwrap().to_string();

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
    assert_eq!(summary["points"].as_u64(), Some(4));
    let lines = lines.into_inner().unwrap();
    // Lease streams batch their point results: this 4-point lease
    // lands as batch frames, not per-point events (docs/PROTOCOL.md §4).
    assert!(
        !lines.iter().any(|l| l["event"].as_str() == Some("point")),
        "batched lease streams carry no per-point events"
    );
    let batches: Vec<&Value> = lines
        .iter()
        .filter(|l| l["event"].as_str() == Some("batch"))
        .collect();
    assert!(!batches.is_empty());
    let mut entries = Vec::<Value>::new();
    for b in &batches {
        assert_eq!(b["v"].as_u64(), Some(synapse_server::BATCH_FRAME_VERSION));
        let pts = b["points"].as_array().unwrap();
        assert_eq!(b["n"].as_u64(), Some(pts.len() as u64));
        assert!(b["len"].as_u64().is_some());
        entries.extend(pts.iter().cloned());
    }
    assert_eq!(entries.len(), 4);
    // Batched results carry GLOBAL grid indices and the full result
    // payload the coordinator merges from.
    let mut indices: Vec<u64> = entries
        .iter()
        .map(|p| p["result"]["point"]["index"].as_u64().unwrap())
        .collect();
    indices.sort_unstable();
    assert_eq!(indices, vec![2, 3, 4, 5]);
    for p in &entries {
        let result = &p["result"];
        assert!(p["cached"].as_bool().is_some());
        assert!(result["tx"].as_f64().unwrap() > 0.0);
        assert!(result["consumed_cycles"].as_u64().is_some());
    }
    // A lease job has no report (merging is the coordinator's job).
    let err = client.report(&id).unwrap_err();
    assert!(err.to_string().contains("409"), "{err}");

    // Out-of-range and inverted leases are rejected outright.
    for (start, end) in [(6, 2), (0, 9), (8, 8)] {
        let bad = synapse_server::LeaseRequest {
            spec: spec.clone(),
            start,
            end,
        };
        let err = client
            .submit_lease(&serde_json::to_string(&bad).unwrap())
            .unwrap_err();
        assert!(err.to_string().contains("400"), "{start}..{end}: {err}");
    }
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn connection_cap_sheds_excess_clients_with_503() {
    let (client, handle, join) = boot(ServerConfig {
        max_connections: 1,
        ..Default::default()
    });
    let addr = {
        // The client resolved the address already; rebuild it from the
        // handle for the raw socket.
        handle.addr()
    };
    // Occupy the single slot with an idle connection.
    let hog = std::net::TcpStream::connect(addr).unwrap();
    // Wait until the accept loop has picked it up, then every further
    // request bounces with 503.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match client.healthz() {
            Err(e) if e.to_string().contains("503") => break,
            _ => assert!(Instant::now() < deadline, "cap never engaged"),
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    // Releasing the slot restores service.
    drop(hog);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if client.healthz().is_ok() {
            break;
        }
        assert!(Instant::now() < deadline, "server never recovered");
        std::thread::sleep(Duration::from_millis(10));
    }
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn event_ring_truncates_replay_for_late_watchers() {
    // A tiny ring: the 192-point example overflows it long before the
    // sweep ends, so a late watcher replays a truncation marker plus
    // the retained tail instead of the whole history.
    let (client, handle, join) = boot(ServerConfig {
        event_buffer: 16,
        ..Default::default()
    });
    let id = id_of(client.submit(&example_spec()));
    await_terminal(&client, &id);

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
    let lines = lines.into_inner().unwrap();
    assert_eq!(lines.len(), 17, "marker + 16 retained lines");
    assert_eq!(lines[0]["event"].as_str(), Some("truncated"));
    assert!(
        lines[0]["dropped"].as_u64().unwrap() > 150,
        "most of the 192-point history was dropped: {:?}",
        lines[0]
    );
    // The terminal event always survives truncation (it is the newest
    // line), so status/summary semantics are unharmed.
    assert_eq!(lines.last().unwrap()["event"].as_str(), Some("completed"));
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn cluster_endpoints_404_without_a_backend() {
    let (client, handle, join) = boot(ServerConfig::default());
    let err = client.cluster_status().unwrap_err();
    assert!(err.to_string().contains("404"), "{err}");
    let err = client.submit_distributed(small_spec()).unwrap_err();
    assert!(
        err.to_string().contains("400") && err.to_string().contains("coordinator"),
        "{err}"
    );
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn submit_watch_streams_ack_then_events_on_one_connection() {
    let (client, handle, join) = boot(ServerConfig::default());
    let lines = Mutex::new(Vec::<String>::new());
    let (ack, summary) = client
        .submit_watch(small_spec(), |line| {
            lines.lock().unwrap().push(line.to_string());
            true
        })
        .unwrap();
    // The ack carries the submit reply fields and is the stream's
    // first line (CLI and CI pipe it straight through).
    assert_eq!(ack["points"].as_u64(), Some(8));
    let id = ack["id"].as_str().unwrap();
    let lines = lines.into_inner().unwrap();
    assert_eq!(
        serde_json::from_str::<Value>(&lines[0]).unwrap()["id"].as_str(),
        Some(id),
        "first delivered line is the ack: {:?}",
        lines[0]
    );
    assert_eq!(summary["event"].as_str(), Some("completed"));
    assert_eq!(summary["points"].as_u64(), Some(8));
    let points = lines
        .iter()
        .filter(|l| l.contains("\"event\":\"point\""))
        .count();
    assert_eq!(points, 8, "events followed the ack on the same stream");
    // Errors still surface as plain status responses.
    let err = client.submit_watch("machines = [", |_| true).unwrap_err();
    assert!(err.to_string().contains("400"), "{err}");
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn half_closing_clients_still_get_their_responses() {
    // `printf ... | nc -N`, proxies, and strict HTTP clients shut
    // their write side as soon as the request is out. The reactor
    // must not treat that EOF as a hangup: the response — and a whole
    // event stream — must still be delivered.
    let (client, handle, join) = boot(ServerConfig {
        queue_workers: 1,
        job_workers: 1,
        ..Default::default()
    });

    // Plain request.
    let mut probe = TcpStream::connect(handle.addr()).unwrap();
    write!(probe, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    probe.shutdown(std::net::Shutdown::Write).unwrap();
    probe
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut response = String::new();
    probe.read_to_string(&mut response).unwrap();
    assert!(
        response.starts_with("HTTP/1.1 200") && response.contains("\"status\":\"ok\""),
        "{response:?}"
    );

    // Event stream: half-close right after the GET, then receive the
    // whole job history through the terminal event.
    let id = id_of(client.submit(small_spec()));
    let mut watcher = TcpStream::connect(handle.addr()).unwrap();
    write!(
        watcher,
        "GET /campaigns/{id}/events HTTP/1.1\r\nHost: t\r\n\r\n"
    )
    .unwrap();
    watcher.shutdown(std::net::Shutdown::Write).unwrap();
    watcher
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut raw = Vec::new();
    watcher.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    assert!(text.contains("\"event\":\"completed\""), "{text:?}");
    assert!(text.ends_with("0\r\n\r\n"), "clean terminator");

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn shutdown_endpoint_stops_the_server() {
    let (client, _handle, join) = boot(ServerConfig::default());
    client.shutdown().unwrap();
    // run() returns; subsequent requests fail to connect or are
    // refused.
    join.join().unwrap();
    assert!(client.healthz().is_err());
}

// ---------------------------------------------------------------------------
// Reactor-front coverage: slow-loris, backpressure, watcher scale,
// disconnect reclaim, and the connection-gauge regression.
// ---------------------------------------------------------------------------

use std::io::{Read, Write};
use std::net::TcpStream;

/// A ~55k-point grid: at cold debug-build sweep rates this runs for
/// tens of seconds, long enough to hold a queue worker busy while a
/// test inspects the server — always cancelled before teardown.
fn huge_spec() -> &'static str {
    r#"
    name = "e2e-huge"
    seed = 77
    machines = ["thinkie", "stampede", "archer", "supermic", "comet", "titan"]
    kernels = ["asm", "c", "spin"]
    modes = ["openmp", "mpi"]
    threads = [1, 2, 4, 8]
    io_blocks = [65536, 1048576]
    sample_rates = [5.0, 10.0, 20.0]
    filesystems = ["default", "local", "lustre", "nfs"]
    atoms = ["all", "no-storage"]

    [[workloads]]
    app = "gromacs"
    steps = [10000, 50000, 100000, 200000]

    [[workloads]]
    app = "amber"
    steps = [10000, 50000, 100000, 200000]
    "#
}

/// A job that cannot finish until it is cancelled: each of its 1,152
/// points prices a billion-step run sampled at 1 kHz — about 0.8 s a
/// point in release on a 2-core host, in constant memory — so one job
/// worker takes a quarter of an hour over it.
fn endless_spec() -> &'static str {
    r#"
    name = "e2e-endless"
    seed = 78
    machines = ["thinkie", "stampede", "archer", "supermic", "comet", "titan"]
    kernels = ["asm", "c", "spin"]
    modes = ["openmp", "mpi"]
    threads = [1, 2, 4, 8]
    sample_rates = [1000.0]
    filesystems = ["default", "local", "lustre", "nfs"]
    atoms = ["all", "no-storage"]

    [[workloads]]
    app = "gromacs"
    steps = [1000000000]
    "#
}

/// Open a raw socket to the server and send a `GET <path>` request.
fn raw_get(addr: std::net::SocketAddr, path: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("raw connect");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").expect("raw send");
    stream
}

/// Set a socket's kernel receive buffer. Clamped to a few KB, TCP flow
/// control pushes back on the sender instead of absorbing megabytes —
/// the only way to make a "watcher that stopped reading" observable
/// to the server under test; a small window also caps how fast the
/// watcher can drain afterwards, so it is raised again before a drain.
fn set_rcvbuf(stream: &TcpStream, size: libc::c_int) {
    use std::os::unix::io::AsRawFd;
    // SAFETY: passes a pointer to `size` (alive for the call) with the
    // matching c_int length; the fd belongs to the borrowed stream.
    let rc = unsafe {
        libc::setsockopt(
            stream.as_raw_fd(),
            libc::SOL_SOCKET,
            libc::SO_RCVBUF,
            (&size as *const libc::c_int).cast(),
            std::mem::size_of::<libc::c_int>() as libc::socklen_t,
        )
    };
    assert_eq!(rc, 0, "SO_RCVBUF");
}

/// Poll `/healthz` until `active_connections` satisfies `accept`, or
/// panic after `secs`. The probe's own connection counts: a quiet
/// server reports 1, not 0.
fn await_gauge(client: &Client, accept: impl Fn(u64) -> bool, secs: u64, what: &str) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        if let Ok(health) = client.healthz() {
            let active = health["active_connections"].as_u64().expect("gauge");
            if accept(active) {
                return active;
            }
            assert!(Instant::now() < deadline, "{what}: gauge stuck at {active}");
        } else {
            assert!(Instant::now() < deadline, "{what}: healthz unreachable");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn slow_loris_head_parses_within_budget_and_408s_past_it() {
    let (client, handle, join) = boot(ServerConfig {
        request_timeout: Duration::from_millis(600),
        ..Default::default()
    });
    let addr = handle.addr();

    // Byte-at-a-time inside the budget: the incremental parser
    // assembles the request and the reactor answers normally.
    let mut drip = TcpStream::connect(addr).unwrap();
    for byte in b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n" {
        drip.write_all(std::slice::from_ref(byte)).unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut response = String::new();
    drip.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    drip.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200"), "{response:?}");

    // Stalling past the budget: the connection is answered 408 and
    // reclaimed — it cannot pin server resources indefinitely.
    let mut loris = TcpStream::connect(addr).unwrap();
    loris.write_all(b"GET /healthz HT").unwrap();
    let started = Instant::now();
    let mut response = String::new();
    loris
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    loris.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 408"), "{response:?}");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "cut at the budget, not some longer socket timeout: {:?}",
        started.elapsed()
    );
    // An idle connection that never sends a byte is reclaimed on the
    // same budget.
    let silent = TcpStream::connect(addr).unwrap();
    await_gauge(&client, |active| active <= 1, 10, "silent conn reclaim");
    drop(silent);

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn stalled_watcher_gets_backpressure_then_truncated_tail() {
    // Tiny ring + tiny high-water mark against a grid whose event
    // history (~20 MB) dwarfs what the kernel will buffer for a
    // zero-window peer: once the watcher stops reading, the server
    // must stop pulling ring events for it (bounded memory), keep the
    // sweep going, and on resume hand it a well-formed stream —
    // truncation marker, retained tail, terminal event, terminator.
    let (client, handle, join) = boot(ServerConfig {
        event_buffer: 64,
        stream_high_water: 4 * 1024,
        // The deliberate stall below outlives the default reclaim.
        write_stall_timeout: Duration::from_secs(300),
        ..Default::default()
    });
    let reply = client.submit(huge_spec()).unwrap();
    let id = reply["id"].as_str().unwrap().to_string();
    let total = reply["points"].as_u64().unwrap();
    assert!(total > 50_000, "{total}");

    // Attach with a clamped receive window, then stall (never read).
    let mut watcher = TcpStream::connect(handle.addr()).unwrap();
    set_rcvbuf(&watcher, 4096);
    write!(
        watcher,
        "GET /campaigns/{id}/events HTTP/1.1\r\nHost: t\r\n\r\n"
    )
    .unwrap();

    // Let the sweep land far more points than kernel buffers + the
    // high-water mark can hold (~4 MB / a few thousand events): the
    // ring must truncate well past the stalled watcher's cursor.
    let deadline = Instant::now() + Duration::from_secs(300);
    let done = loop {
        let status = client.status(&id).expect("status");
        let done = status["done"].as_u64().unwrap();
        if done >= 30_000 {
            break done;
        }
        assert!(
            ["queued", "running"].contains(&status["status"].as_str().unwrap()),
            "sweep must survive its stalled watcher: {status:?}"
        );
        assert!(Instant::now() < deadline, "sweep too slow ({done} points)");
        std::thread::sleep(Duration::from_millis(50));
    };
    client.cancel(&id).unwrap();

    // Resume: drain the stream to its end, through a window wide
    // enough that the megabytes the kernel buffered arrive in well
    // under a second rather than at a 4 KiB window's pace.
    set_rcvbuf(&watcher, 1 << 20);
    watcher
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut raw = Vec::new();
    watcher.read_to_end(&mut raw).expect("drain stream");
    let text = String::from_utf8_lossy(&raw);
    assert!(
        text.ends_with("0\r\n\r\n"),
        "stream terminates cleanly: ...{:?}",
        &text[text.len().saturating_sub(60)..]
    );
    assert!(
        text.contains("\"event\":\"truncated\""),
        "ring outran the stalled watcher, so the marker must appear \
         ({} bytes received of ~{} swept)",
        raw.len(),
        done * 300,
    );
    assert!(
        text.contains("\"event\":\"cancelled\"") || text.contains("\"event\":\"completed\""),
        "terminal event survives truncation (newest ring line)"
    );
    // Backpressure bound: the watcher received kernel-buffered bytes +
    // the high-water mark + the retained tail — not the full history.
    assert!(
        raw.len() < (done as usize * 300) / 2,
        "received {} bytes; an unbounded buffer would have sent ~{}",
        raw.len(),
        done * 300
    );

    handle.shutdown();
    join.join().unwrap();
}
/// Raise the fd soft limit toward the hard limit and report how many
/// concurrent watcher sockets the test can afford (each one costs two
/// fds: client end + server end).
fn affordable_watchers(want: usize) -> usize {
    let mut lim = libc::rlimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    // SAFETY: lim is a valid writable rlimit out-parameter.
    if unsafe { libc::getrlimit(libc::RLIMIT_NOFILE, &mut lim) } != 0 {
        return 64;
    }
    let target = (2 * want as u64 + 512).min(lim.rlim_max);
    if lim.rlim_cur < target {
        let raised = libc::rlimit {
            rlim_cur: target,
            rlim_max: lim.rlim_max,
        };
        // SAFETY: raised and lim are valid rlimit structs, read-only
        // and writable respectively, both alive for the calls.
        unsafe { libc::setrlimit(libc::RLIMIT_NOFILE, &raised) };
        // SAFETY: as above; re-reads the effective limit.
        unsafe { libc::getrlimit(libc::RLIMIT_NOFILE, &mut lim) };
    }
    ((lim.rlim_cur.saturating_sub(512)) / 2).min(want as u64) as usize
}

#[test]
fn a_thousand_idle_watchers_cost_fds_not_threads() {
    let watchers = affordable_watchers(1000);
    assert!(
        watchers >= 256,
        "fd limit too low to say anything ({watchers})"
    );
    let (client, handle, join) = boot(ServerConfig {
        max_connections: watchers + 64,
        queue_workers: 1,
        job_workers: 1,
        ..Default::default()
    });
    // A hog that cannot finish until it is cancelled occupies the
    // single queue worker; the watched job sits queued behind it, so
    // its stream carries only heartbeats — the watchers are genuinely
    // idle.
    let hog = id_of(client.submit(endless_spec()));
    let quiet = id_of(client.submit(small_spec()));

    // The server reports its own live thread count through /healthz
    // (it runs in this test process, so this is the same number the
    // smoke test asserts on in CI).
    let threads_before = client.healthz().unwrap()["threads"].as_u64().unwrap();
    let mut sockets = Vec::with_capacity(watchers);
    for _ in 0..watchers {
        sockets.push(raw_get(
            handle.addr(),
            &format!("/campaigns/{quiet}/events"),
        ));
    }
    // Every watcher is held concurrently (gauge counts them + probe).
    await_gauge(
        &client,
        |active| active >= watchers as u64,
        60,
        "watchers attached",
    );
    let threads_after = client.healthz().unwrap()["threads"].as_u64().unwrap();
    assert!(
        threads_after < threads_before + 100,
        "{watchers} watchers must not spawn per-connection threads \
         ({threads_before} -> {threads_after})"
    );

    // Cancel the watched job, still queued: every stream ends with the
    // terminal event and a clean chunked terminator (sampled).
    client.cancel(&quiet).unwrap();
    for (i, socket) in sockets.iter_mut().enumerate() {
        if i % 50 != 0 {
            continue; // sample every 50th stream end to end
        }
        socket
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut raw = Vec::new();
        socket.read_to_end(&mut raw).expect("watcher drains");
        let text = String::from_utf8_lossy(&raw);
        assert!(
            text.contains("\"event\":\"cancelled\""),
            "watcher {i}: {text:?}"
        );
        assert!(text.ends_with("0\r\n\r\n"), "watcher {i} terminator");
    }
    drop(sockets);
    client.cancel(&hog).unwrap();
    // Every slot is reclaimed.
    await_gauge(&client, |active| active <= 1, 60, "slots reclaimed");

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn mid_stream_disconnect_reclaims_the_connection_slot() {
    let (client, handle, join) = boot(ServerConfig {
        max_connections: 4,
        queue_workers: 1,
        job_workers: 1,
        ..Default::default()
    });
    // A queued job's stream stays open indefinitely (heartbeats only)
    // behind a hog that cannot finish until it is cancelled.
    let hog = id_of(client.submit(endless_spec()));
    let quiet = id_of(client.submit(small_spec()));
    let watcher = raw_get(handle.addr(), &format!("/campaigns/{quiet}/events"));
    await_gauge(&client, |active| active >= 2, 30, "watcher attached");

    // The watcher vanishes mid-stream: the reactor notices the hangup
    // and frees the slot without waiting for the job to end.
    drop(watcher);
    await_gauge(&client, |active| active <= 1, 30, "slot reclaimed");

    client.cancel(&quiet).unwrap();
    client.cancel(&hog).unwrap();
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn connection_gauge_survives_a_cap_hammering() {
    // Satellite regression: every accepted connection — served, shed
    // with 503, shed by read-timeout, or dropped cold past 2× — must
    // decrement `active_connections` exactly once. After the storm the
    // gauge returns to just the probe connection.
    let (client, handle, join) = boot(ServerConfig {
        max_connections: 2,
        request_timeout: Duration::from_millis(300),
        ..Default::default()
    });
    let addr = handle.addr();
    for round in 0..25 {
        let mut batch = Vec::new();
        for kind in 0..6 {
            let Ok(mut stream) = TcpStream::connect(addr) else {
                continue;
            };
            match kind % 3 {
                // A real request (may be served or shed 503).
                0 => {
                    let _ = write!(stream, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
                }
                // A partial request left to the read-timeout path.
                1 => {
                    let _ = stream.write_all(b"GET /heal");
                }
                // Connects and says nothing.
                _ => {}
            }
            batch.push(stream);
        }
        // Let some batches linger past the request timeout, drop
        // others immediately.
        if round % 2 == 0 {
            std::thread::sleep(Duration::from_millis(50));
        }
        drop(batch);
    }
    // Exactly-once accounting: the gauge settles back to the probe
    // itself, never negative (a usize underflow would read as huge).
    let settled = await_gauge(&client, |active| active <= 1, 30, "hammered gauge");
    assert!(settled <= 1, "{settled}");
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn a_silent_server_is_detected_as_dead_within_the_heartbeat_budget() {
    // A fake "server" that speaks just enough protocol to establish an
    // event stream, then goes mute — a frozen worker or a partitioned
    // network, from the client's point of view.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (release, held) = std::sync::mpsc::channel::<()>();
    let mute = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut scratch = [0u8; 1024];
        let _ = stream.read(&mut scratch);
        let _ = stream.write_all(
            b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
              Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n\
              14\r\n{\"event\":\"started\"}\n\r\n",
        );
        // Hold the socket open, silently, until the client has given
        // up on it.
        let _ = held.recv();
    });

    let client = Client::new(addr.to_string()).with_stream_silence(Duration::from_millis(400));
    let started = Instant::now();
    let err = client.watch("j1", |_| true).unwrap_err();
    release.send(()).unwrap();
    assert!(err.is_disconnect(), "{err}");
    assert!(
        err.to_string().contains("presumed dead"),
        "retriable disconnect, not a bare i/o error: {err}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "detected in ~the silence threshold, not the old flat 60 s \
         socket timeout: {:?}",
        started.elapsed()
    );
    mute.join().unwrap();
}

// ---------------------------------------------------------------------------
// /metrics: Prometheus exposition of the process-wide registry.
// ---------------------------------------------------------------------------

/// Validate Prometheus 0.0.4 text shape: every line is `# HELP`,
/// `# TYPE` (counter|gauge|histogram), or a `name{labels} value`
/// sample whose family was declared. Returns the distinct series
/// (name + label set) seen.
fn assert_valid_exposition(text: &str) -> std::collections::HashSet<String> {
    let mut types: std::collections::HashMap<&str, &str> = std::collections::HashMap::new();
    let mut series = std::collections::HashSet::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().expect("TYPE line has a name");
            let kind = it.next().expect("TYPE line has a kind");
            assert!(
                ["counter", "gauge", "histogram"].contains(&kind),
                "unknown TYPE in {line:?}"
            );
            types.insert(name, kind);
        } else if let Some(rest) = line.strip_prefix("# HELP ") {
            assert!(
                rest.split_whitespace().nth(1).is_some(),
                "HELP without text: {line:?}"
            );
        } else {
            assert!(!line.starts_with('#'), "unknown comment line {line:?}");
            let (name_part, value) = line.rsplit_once(' ').expect("sample has a value");
            assert!(
                value.parse::<f64>().is_ok() || value == "+Inf" || value == "NaN",
                "unparseable sample value in {line:?}"
            );
            let name = name_part.split('{').next().expect("sample has a name");
            let base = name
                .strip_suffix("_bucket")
                .or_else(|| name.strip_suffix("_sum"))
                .or_else(|| name.strip_suffix("_count"))
                .filter(|b| types.get(b).copied() == Some("histogram"))
                .unwrap_or(name);
            assert!(
                types.contains_key(base),
                "sample {name} has no preceding TYPE"
            );
            series.insert(name_part.to_string());
        }
    }
    series
}

/// The first sample value for an exact series name (unlabeled).
fn metric_value(text: &str, name: &str) -> f64 {
    text.lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(n, _)| *n == name)
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or_else(|| panic!("series {name} missing from scrape"))
}

#[test]
fn metrics_scrape_is_valid_exposition_and_spans_subsystems() {
    let (client, handle, join) = boot(ServerConfig::default());
    // One completed sweep populates the engine-side series.
    let id = id_of(client.submit(small_spec()));
    await_terminal(&client, &id);
    let text = client.metrics().unwrap();
    let series = assert_valid_exposition(&text);
    assert!(
        series.len() >= 20,
        "expected >= 20 distinct series, got {}",
        series.len()
    );
    // Engine, server and store series all present in one scrape (the
    // cluster family needs a coordinator; cluster_e2e covers it).
    for name in [
        "synapse_engine_points_total",
        "synapse_engine_cache_misses_total",
        "synapse_engine_simulate_seconds_count",
        "synapse_engine_samples_replayed_total",
        "synapse_server_connections_active",
        "synapse_server_connections_accepted_total",
        "synapse_server_uptime_seconds",
        "synapse_store_lock_acquisitions_total",
        "synapse_store_reconciled_docs_total",
    ] {
        assert!(
            text.lines()
                .any(|l| l.split(['{', ' ']).next() == Some(name)),
            "series {name} missing from scrape"
        );
    }
    // The per-endpoint latency family saw the routes this test hit.
    assert!(
        text.contains("synapse_server_request_seconds_bucket{endpoint=\"/metrics\""),
        "request latency histogram missing its /metrics label"
    );
    // Stage timing histograms carry one observation per stage per run.
    assert!(metric_value(&text, "synapse_engine_campaigns_total") >= 1.0);
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn metrics_counters_are_monotone_under_concurrent_scrapes_of_a_live_job() {
    let (client, handle, join) = boot(ServerConfig::default());
    let id = id_of(client.submit(huge_spec()));
    // Let the sweep actually start moving before scraping.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = client.status(&id).unwrap();
        if status["done"].as_u64().unwrap_or(0) > 0 {
            break;
        }
        assert!(Instant::now() < deadline, "55k-point job never progressed");
        std::thread::sleep(Duration::from_millis(20));
    }
    // N concurrent scrapers against the active job: every scrape is a
    // complete, valid exposition (the render is one atomic body).
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let client = &client;
            scope.spawn(move || {
                for _ in 0..3 {
                    let text = client.metrics().expect("scrape under load");
                    assert_valid_exposition(&text);
                }
            });
        }
    });
    // Counters only move one way while the sweep runs.
    let monotone = [
        "synapse_engine_points_total",
        "synapse_engine_simulate_seconds_count",
        "synapse_server_connections_accepted_total",
        "synapse_server_stream_bytes_total",
    ];
    let first = client.metrics().unwrap();
    std::thread::sleep(Duration::from_millis(100));
    let second = client.metrics().unwrap();
    for name in monotone {
        let (a, b) = (metric_value(&first, name), metric_value(&second, name));
        assert!(b >= a, "{name} went backwards: {a} -> {b}");
    }
    assert!(
        metric_value(&second, "synapse_engine_points_total")
            > metric_value(&first, "synapse_engine_points_total"),
        "an active sweep should land points between scrapes"
    );
    client.cancel(&id).unwrap();
    await_terminal(&client, &id);
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn warm_resubmit_moves_the_cache_hit_counter() {
    let (client, handle, join) = boot(ServerConfig::default());
    let id = id_of(client.submit(small_spec()));
    let total = await_terminal(&client, &id)["total"].as_u64().unwrap();
    let cold = metric_value(
        &client.metrics().unwrap(),
        "synapse_engine_cache_hits_total",
    );
    let id2 = id_of(client.submit(small_spec()));
    let warm_status = await_terminal(&client, &id2);
    assert_eq!(warm_status["cache_hits"].as_u64(), Some(total));
    let warm = metric_value(
        &client.metrics().unwrap(),
        "synapse_engine_cache_hits_total",
    );
    // The registry is process-wide (other tests in this binary may be
    // sweeping concurrently), so assert the floor, not equality.
    assert!(
        warm >= cold + total as f64,
        "warm resubmit of {total} points moved hits only {cold} -> {warm}"
    );
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn recorded_job_serves_a_strict_replayable_trace() {
    use synapse_trace::{ReplayMode, Trace};
    let (client, handle, join) = boot(ServerConfig::default());

    // The trace is sealed before the job reports its end: a fetch
    // straight after `watch` returns finds it every time, no retry.
    let spec = example_spec();
    let (mut id, mut ack, mut text) = (String::new(), Value::Null, String::new());
    for _ in 0..60 {
        ack = client.submit_recorded(&spec, false).unwrap();
        id = ack["id"].as_str().unwrap().to_string();
        client.watch(&id, |_| true).unwrap();
        text = client.trace(&id).unwrap();
    }
    let trace = Trace::parse(&text).unwrap();
    assert_eq!(Some(trace.header.trace_id.as_str()), ack["trace"].as_str());
    let summary = trace.verify(ReplayMode::Strict).unwrap();
    assert!(summary.is_clean());
    assert_eq!(summary.points, 192);

    // The reconstructed report equals the one the server assembled
    // from the live sweep — the simulator never re-ran.
    let pretty = trace.reconstruct_report().unwrap().to_json_pretty();
    let reconstructed: Value = serde_json::from_str(&pretty.unwrap()).unwrap();
    assert_eq!(reconstructed, client.report(&id).unwrap());

    // A job submitted without ?record=1 has no trace to serve.
    let plain = id_of(client.submit(small_spec()));
    await_terminal(&client, &plain);
    let err = client.trace(&plain).unwrap_err();
    assert!(
        err.to_string().contains("not recorded"),
        "unexpected error: {err}"
    );

    handle.shutdown();
    join.join().unwrap();
}
