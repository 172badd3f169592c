//! The generated doc blocks. `docs/PROTOCOL.md` §1 is rendered from
//! the server's route table, §7 and `docs/TRACE.md`'s headline from
//! the pinned constants, and the README metric catalog from the
//! telemetry registry. Each block sits between
//! `<!-- begin generated: NAME -->` and `<!-- end generated: NAME -->`
//! lines; while one differs from its rendering, its test fails and
//! prints the exact text to paste between the markers.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use synapse_cluster::{ClusterConfig, Coordinator};
use synapse_server::{Client, Server, ServerConfig, ServerHandle};

/// Assert that the `name` block of `doc` (relative to the workspace
/// root) is exactly `rendered`.
fn assert_block(doc: &str, name: &str, rendered: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(doc);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{doc}: {e}"));
    let begin = format!("<!-- begin generated: {name} -->\n");
    let end = format!("<!-- end generated: {name} -->");
    let block = text
        .split_once(&begin)
        .and_then(|(_, rest)| rest.split_once(&end))
        .map(|(block, _)| block);
    assert!(
        block == Some(rendered),
        "{doc}: generated block `{name}` is stale; put this between its \
         `{}` and `{end}` lines:\n\n{rendered}",
        begin.trim_end(),
    );
}

/// `(constant, value)` rows. A constant is named by its own path, so
/// a row cannot name one that does not exist; its value is printed in
/// `Debug` form (`64`, `10s`, `250ms`).
macro_rules! pinned {
    ($($value:expr),* $(,)?) => {
        vec![$((stringify!($value), format!("{:?}", $value))),*]
    };
}

/// The numbers `docs/PROTOCOL.md` quotes in prose, in §7 order.
fn pinned_constants() -> Vec<(&'static str, String)> {
    pinned![
        synapse_campaign::ENGINE_VERSION,
        synapse_trace::TRACE_VERSION,
        synapse_server::BATCH_FRAME_VERSION,
        synapse_campaign::AGGREGATES_VERSION,
        synapse_server::DEFAULT_BATCH_POINTS,
        synapse_server::HEARTBEAT_EVERY,
        synapse_server::STREAM_SILENCE_TIMEOUT,
        synapse_server::SNAPSHOT_EVERY,
        synapse_server::SNAPSHOT_MIN_INTERVAL,
        synapse_cluster::coordinator::LEASES_PER_WORKER,
        synapse_campaign::MAX_PROBE_POINTS,
        synapse_cluster::coordinator::MIN_SPLIT_POINTS,
        synapse_cluster::coordinator::MAX_LEASE_ATTEMPTS,
        synapse_cluster::coordinator::LEASE_BACKOFF_STEP,
        synapse_cluster::coordinator::LEASE_BACKOFF_MAX_STEPS,
        synapse_cluster::coordinator::PROBE_TIMEOUT,
    ]
}

#[test]
fn protocol_endpoints_are_rendered_from_the_route_table() {
    assert_block(
        "docs/PROTOCOL.md",
        "endpoints",
        &synapse_server::endpoint_table(),
    );
}

#[test]
fn protocol_pinned_constants_and_trace_version_are_rendered_from_the_code() {
    let mut table = String::from("| Constant | Pinned value |\n|---|---|\n");
    for (source, value) in pinned_constants() {
        table.push_str(&format!("| `{source}` | `{value}` |\n"));
    }
    assert_block("docs/PROTOCOL.md", "pinned-constants", &table);
    let version = synapse_trace::TRACE_VERSION;
    assert_block(
        "docs/TRACE.md",
        "trace-version",
        &format!("**Trace format version: {version}** (`synapse_trace::TRACE_VERSION`).\n"),
    );
}

/// Boot a server on an ephemeral port, as a coordinator when a
/// backend is given.
fn boot(cluster: Option<Arc<Coordinator>>) -> (String, ServerHandle, std::thread::JoinHandle<()>) {
    let mut server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..Default::default()
    })
    .expect("bind");
    if let Some(backend) = cluster {
        server = server.with_cluster(backend);
    }
    let handle = server.handle().expect("handle");
    let addr = server.local_addr().expect("addr").to_string();
    let join = std::thread::spawn(move || server.run().expect("run"));
    (addr, handle, join)
}

#[test]
fn readme_metric_catalog_is_rendered_from_the_registry() {
    // Reach every family: binding a server binds the store counters, a
    // recorded cluster job drives the engine, live aggregates, flight
    // recorder, reactor and lease drivers, and planning it creates the
    // per-worker throughput gauge.
    let (worker, worker_handle, worker_join) = boot(None);
    let coordinator = Arc::new(Coordinator::new(ClusterConfig::default()));
    coordinator.registry().register(&worker);
    let (addr, handle, join) = boot(Some(coordinator));
    let client = Client::new(addr);
    let spec = r#"
        name = "catalog"
        seed = 7
        machines = ["thinkie"]
        kernels = ["c"]
        modes = ["openmp"]

        [[workloads]]
        app = "gromacs"
        steps = [10000, 50000]
    "#;
    let ack = client.submit_recorded(spec, true).expect("submit");
    let id = ack["id"].as_str().expect("job id");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let status = client.status(id).expect("status");
        match status["status"].as_str() {
            Some("completed") => break,
            Some("queued" | "running") => {}
            other => panic!("job ended {other:?}: {status:?}"),
        }
        assert!(Instant::now() < deadline, "job {id} never completed");
        std::thread::sleep(Duration::from_millis(20));
    }
    client.metrics().expect("scrape");
    handle.shutdown();
    join.join().unwrap();
    worker_handle.shutdown();
    worker_join.join().unwrap();

    let registry = synapse_telemetry::global();
    assert_eq!(registry.naming_violations(), Vec::<String>::new());
    assert_block("README.md", "metric-catalog", &registry.catalog());
}
