#![warn(missing_docs)]

//! `synapse-server` — the long-running `synapse serve` daemon.
//!
//! The paper positions Synapse as a profiler/emulator *driven by*
//! workload-management systems that need on-demand runtime estimates;
//! a one-shot CLI makes every such question pay full process startup
//! and cache warm-up. This crate keeps the process alive: campaigns
//! are submitted over HTTP, sweep through a shared job queue, memoize
//! into one process-wide [`synapse_campaign::ResultCache`], and stream
//! per-point results the moment they land.
//!
//! The workspace is offline/vendored, so the HTTP/1.1 layer is
//! hand-rolled ([`http`]) the same way the vendored crates hand-roll
//! serde — no tokio, no mio: a single epoll reactor thread (vendored
//! `epoll`/`eventfd` bindings) owns every connection, with a small
//! handler pool for CPU-bound routing. Thousands of idle event-stream
//! watchers cost file descriptors, not threads.
//!
//! # Endpoints
//!
//! The served routes are one table, `ROUTES` in `routes.rs`: dispatch,
//! `404`/`405` + `Allow` replies and the `endpoint` metric label all
//! read it, and so does `docs/PROTOCOL.md` §1: [`endpoint_table`]
//! renders it, and a test fails while the doc block differs.
//!
//! # Event stream
//!
//! `GET /campaigns/<id>/events` replays the job's history and then
//! follows live: `started`, one `point` per landed scenario point (in
//! completion order, each carrying its grid `index`), periodic
//! `snapshot` aggregate **deltas** (at most one per
//! [`SNAPSHOT_MIN_INTERVAL`], each carrying only the slices that
//! changed since the previous one, plus a guaranteed terminal
//! snapshot), and exactly one terminal event — `completed`,
//! `cancelled` or `failed`. With `?aggregates=1` the per-point lines
//! are omitted: the stream is lifecycle + snapshots only, so its size
//! is O(slices · snapshots) instead of O(points).
//!
//! ```no_run
//! use synapse_server::{Client, Server, ServerConfig};
//!
//! let server = Server::bind(ServerConfig {
//!     addr: "127.0.0.1:0".into(),
//!     ..Default::default()
//! })?;
//! let handle = server.handle()?;
//! let addr = server.local_addr()?;
//! std::thread::spawn(move || server.run());
//!
//! let client = Client::new(addr.to_string());
//! let reply = client.submit("name = \"quick\"\n…")?;
//! let id = reply["id"].as_str().unwrap();
//! let summary = client.watch(id, |line| {
//!     println!("{line}");
//!     true // keep streaming; false hangs up early
//! })?;
//! assert_eq!(summary["event"].as_str(), Some("completed"));
//! handle.shutdown();
//! # Ok::<(), synapse_server::ServerError>(())
//! ```

pub mod client;
pub mod http;
pub mod job;
mod metrics;
mod reactor;
mod routes;
pub mod server;

pub use client::{Client, Response, STREAM_SILENCE_TIMEOUT};
pub use job::{BatchEntry, BatchFrame, EventRing, Job, JobKind, JobState, LeaseRequest};
pub use routes::endpoint_table;
pub use server::{
    lease_batch_line, Server, ServerConfig, ServerHandle, BATCH_FRAME_VERSION,
    DEFAULT_BATCH_POINTS, DEFAULT_EVENT_BUFFER, DEFAULT_HANDLER_THREADS, DEFAULT_MAX_CONNECTIONS,
    DEFAULT_STREAM_HIGH_WATER, HEARTBEAT_EVERY, SNAPSHOT_EVERY, SNAPSHOT_MIN_INTERVAL,
};

use synapse_campaign::{
    CampaignError, CampaignOutcome, CampaignSpec, CancelToken, LiveAggregates, PointEvent,
    ResultCache,
};
use synapse_trace::TraceRecorder;

/// Distributed-execution backend a coordinator-mode server plugs in
/// (implemented by `synapse-cluster`; the server stays ignorant of how
/// leases travel).
///
/// A server with a backend attached ([`Server::with_cluster`]) exposes
/// the `/cluster/*` worker-registry endpoints and accepts `POST
/// /campaigns?cluster=1` submissions, which execute through
/// [`ClusterBackend::run_distributed`] instead of the local sweep
/// engine — same observer contract as
/// [`synapse_campaign::run_campaign_live`], so both paths stream the
/// identical NDJSON event shapes.
pub trait ClusterBackend: Send + Sync {
    /// Execute `spec` across the registered workers, emitting merged
    /// [`PointEvent`]s (with a globally monotone `done` counter) and
    /// honoring `cancel`. `cache` is the coordinator's own result
    /// cache, used when leases fall back to local execution. When a
    /// flight `recorder` is attached the backend annotates it with the
    /// lease lifecycle (assigned/completed/failed/reassigned/split/
    /// local) and propagates its causality id to workers as the
    /// `X-Synapse-Trace` request header.
    ///
    /// Each grid index reaches `observer` exactly once, which is what
    /// lets the server fold the merged stream into the job's live
    /// view `live` as it does for a local sweep. The backend only
    /// reads that view: the report's slices are `live`'s
    /// ([`CampaignReport::assemble_from_view`]), and a run whose view
    /// holds another number of points than the grid fails.
    ///
    /// [`CampaignReport::assemble_from_view`]: synapse_campaign::CampaignReport::assemble_from_view
    fn run_distributed(
        &self,
        spec: &CampaignSpec,
        cache: &ResultCache,
        observer: &(dyn Fn(PointEvent) + Sync),
        live: &LiveAggregates,
        recorder: Option<&TraceRecorder>,
        cancel: &CancelToken,
    ) -> Result<CampaignOutcome, CampaignError>;

    /// Register (or revive) a worker by address; returns its document.
    fn register_worker(&self, addr: &str) -> serde_json::Value;

    /// Remove a worker from the registry; `None` for unknown ids.
    fn deregister_worker(&self, id: &str) -> Option<serde_json::Value>;

    /// Record a liveness heartbeat; `None` for unknown ids.
    fn heartbeat(&self, id: &str) -> Option<serde_json::Value>;

    /// Registry + lease status document (probes worker health).
    fn status(&self) -> serde_json::Value;
}

/// Anything that can go wrong running or talking to the server.
#[derive(Debug)]
pub enum ServerError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The campaign layer failed (opening the cache, persisting).
    Campaign(CampaignError),
    /// The peer spoke something that isn't the expected protocol.
    Protocol(String),
    /// A non-2xx response with the server's error detail.
    Status(u16, String),
    /// An established event stream went silent past the dead-server
    /// threshold (no events, no heartbeats): the server is presumed
    /// dead or partitioned. Retriable — watchers should reconnect or
    /// reassign the work.
    Disconnected(String),
}

impl ServerError {
    /// Whether retrying against another (or the same, later) server is
    /// the right reaction — today, exactly the dead-stream case.
    pub fn is_disconnect(&self) -> bool {
        matches!(self, ServerError::Disconnected(_))
    }
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "i/o: {e}"),
            ServerError::Campaign(e) => write!(f, "campaign: {e}"),
            ServerError::Protocol(msg) => write!(f, "protocol: {msg}"),
            ServerError::Status(code, detail) => write!(f, "server returned {code}: {detail}"),
            ServerError::Disconnected(msg) => write!(f, "stream disconnected: {msg}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Io(e) => Some(e),
            ServerError::Campaign(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Io(e)
    }
}

impl From<CampaignError> for ServerError {
    fn from(e: CampaignError) -> Self {
        ServerError::Campaign(e)
    }
}
