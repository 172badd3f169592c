//! The `synapse serve` daemon: epoll reactor front, the job queue
//! worker pool and the process-wide result cache (the route table and
//! its handlers live in `routes.rs`).
//!
//! Concurrency model: ONE reactor thread owns every connection —
//! nonblocking accept, incremental request parsing, response flushing
//! and event-stream pumping are all readiness-driven (`epoll` via the
//! vendored libc stub), so a thousand idle watchers cost file
//! descriptors, not threads. CPU-bound request handling (spec parsing,
//! report assembly, cluster probes) is dispatched to a small handler
//! pool so the reactor never blocks; a fixed pool of queue workers at
//! the back drains jobs through [`synapse_campaign::run_campaign_live`].
//! Job events reach the reactor through an eventfd wakeup (the hook
//! wired into every [`Job`]), which coalesces bursts into single
//! wakes. All jobs share one [`ResultCache`] handle — the sharded
//! store is lock-protected per shard group, so concurrent sweeps
//! memoize into (and hit from) the same cache, which is the point of
//! keeping the process alive.
//!
//! Per-connection lifecycle (one state machine, no thread):
//!
//! ```text
//! accept ──▶ Reading ──(request parsed)──▶ Handling ──▶ Writing ──▶ close
//!   │           │  (shed: over capacity)      │  (events route)
//!   │           └──────────▶ 503 ─▶ Writing   └─▶ Streaming ──▶ close
//!   └─ over 2× capacity: dropped cold              │  ▲
//!                                 backpressure ◀───┘  │ job events / heartbeat
//!                                 (pump pauses at the high-water mark)
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::string_slice,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use serde::Serialize;
use serde_json::json;
use synapse_campaign::{
    expand_range, run_campaign_live, AggregateMetrics, CampaignEngine, CampaignError, CampaignSpec,
    PointEvent, ResultCache, ResultText, RunConfig, RunStats, Slice, AGGREGATES_VERSION,
};

use synapse_trace::TraceRecorder;

use crate::http::{self, HttpError, Request, RequestParser};
use crate::job::{EventHook, EventRing, Job, JobKind, JobState};
use crate::metrics::ServerMetrics;
use crate::reactor::{self, Poller, Waker};
use crate::routes::{self, Reply};
use crate::{ClusterBackend, ServerError};

/// How many points must land since the last aggregate `snapshot`
/// delta before another may be emitted. Paired with
/// [`SNAPSHOT_MIN_INTERVAL`]: BOTH thresholds must pass, so a fast
/// sweep's snapshot count is bounded by wall time (O(runtime ·
/// slices) stream bytes for an aggregate-mode watcher, never
/// O(points)) while a slow sweep's is bounded by progress.
pub const SNAPSHOT_EVERY: usize = 32;

/// Floor on the wall time between two mid-sweep `snapshot` deltas on
/// one job's stream (see [`SNAPSHOT_EVERY`]). The terminal snapshot
/// bypasses the cadence: a finished campaign's last delta always
/// lands before its terminal event.
pub const SNAPSHOT_MIN_INTERVAL: Duration = Duration::from_millis(250);

/// Terminal jobs retained in the table (live jobs never count): the
/// daemon serves status/report/replay for this many finished
/// campaigns, then forgets the oldest — a long-lived process must not
/// accumulate event buffers without bound.
pub const MAX_RETAINED_TERMINAL_JOBS: usize = 64;

/// Terminal *lease* jobs retained. Lease rings are unbounded (their
/// point events are the results a coordinator merges) and nobody
/// replays a drained lease, so they evict far sooner than campaigns —
/// a worker serving thousands of big leases must not retain 64 full
/// result sets.
pub const MAX_RETAINED_TERMINAL_LEASES: usize = 2;

/// Bounded retention: take the oldest terminal jobs beyond the caps
/// out of `jobs` (kept in submission order) and return them. Finished
/// leases go first and fastest — their rings hold full per-point
/// results — then terminal jobs of any kind beyond
/// [`MAX_RETAINED_TERMINAL_JOBS`]. Live jobs are never evicted, and an
/// attached streamer keeps an evicted job alive through its `Arc`
/// until it hangs up.
fn evict_terminal(jobs: &mut Vec<Arc<Job>>) -> Vec<Arc<Job>> {
    let mut evicted = take_oldest(jobs, MAX_RETAINED_TERMINAL_LEASES, |j| {
        matches!(j.kind, JobKind::Lease { .. }) && j.state().is_terminal()
    });
    evicted.extend(take_oldest(jobs, MAX_RETAINED_TERMINAL_JOBS, |j| {
        j.state().is_terminal()
    }));
    evicted
}

/// Take out of `jobs` the oldest of those `pick` selects, all but the
/// newest `keep` of them.
fn take_oldest(
    jobs: &mut Vec<Arc<Job>>,
    keep: usize,
    pick: impl Fn(&Job) -> bool,
) -> Vec<Arc<Job>> {
    let mut over = jobs.iter().filter(|j| pick(j)).count().saturating_sub(keep);
    jobs.extract_if(.., |j| {
        let take = over > 0 && pick(j);
        over -= usize::from(take);
        take
    })
    .collect()
}

/// How long an event stream may stay silent before a `heartbeat`
/// event is pulsed, keeping client read-timeouts satisfiable while a
/// job sits queued behind a long sweep. Public so clients can derive
/// their dead-server threshold from the same number.
pub const HEARTBEAT_EVERY: Duration = Duration::from_secs(10);

/// Serialize one event document to its NDJSON line.
#[expect(
    clippy::expect_used,
    reason = "serializing owned in-memory data is infallible"
)]
pub(crate) fn ndjson(value: &impl Serialize) -> String {
    serde_json::to_string(value).expect("event serializes")
}

/// Default cap on concurrently-served connections.
pub const DEFAULT_MAX_CONNECTIONS: usize = 256;

/// Default per-job event-ring retention (NDJSON lines).
pub const DEFAULT_EVENT_BUFFER: usize = 8192;

/// Default handler-pool size (CPU-bound request handling off the
/// reactor thread).
pub const DEFAULT_HANDLER_THREADS: usize = 4;

/// Budget for a connection to deliver its complete request, counted
/// from accept. A slow-loris peer feeding one header byte at a time
/// gets exactly this long in total — not a fresh timeout per byte.
pub const DEFAULT_REQUEST_TIMEOUT: Duration = Duration::from_secs(5);

/// Default per-connection output high-water mark: the stream pump
/// stops pulling ring events for a watcher whose unsent buffer grew
/// past this, and the job ring's own truncation covers whatever the
/// stalled watcher misses meanwhile.
pub const DEFAULT_STREAM_HIGH_WATER: usize = 256 * 1024;

/// Default for [`ServerConfig::write_stall_timeout`]: a connection
/// with unsent bytes and no write progress for this long is presumed
/// dead and reclaimed.
pub const DEFAULT_WRITE_STALL_TIMEOUT: Duration = Duration::from_secs(30);

/// How many landed points a lease stream packs into one `batch` frame
/// before writing (a protocol constant, see `docs/PROTOCOL.md` §4). 64
/// turns a warm 55k-point grid from 55k line writes into ~900 while
/// keeping first-result latency in the low milliseconds on a cold
/// sweep (the tail flushes whatever is pending at lease end). The
/// frame layout is specified in `docs/PROTOCOL.md`.
pub const DEFAULT_BATCH_POINTS: usize = 64;

/// Version stamped into every `batch` frame (`"v"`). Consumers must
/// reject frames with a version they don't know — the payload layout
/// inside `points` is only defined per version.
pub const BATCH_FRAME_VERSION: u64 = 1;

/// Upper bound on one `epoll_wait`, so timer scans (request deadlines,
/// heartbeats, stall reclaim) run even on a quiet socket set.
const REACTOR_TICK_MS: i32 = 250;

/// After shutdown is requested, how long in-flight responses and
/// terminal stream events get to flush before connections are cut.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);

/// How the daemon is set up.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:8787` (port 0 for ephemeral).
    pub addr: String,
    /// Result-cache directory (`None` ⇒ in-memory for this process).
    pub cache_dir: Option<PathBuf>,
    /// Queue workers = jobs sweeping concurrently.
    pub queue_workers: usize,
    /// Worker threads *per job's* sweep (0 ⇒ auto).
    pub job_workers: usize,
    /// Concurrent-connection cap: requests past it are shed with `503`
    /// instead of accepting unbounded connections (0 ⇒ unlimited).
    pub max_connections: usize,
    /// Event lines retained per job for replay; older lines truncate
    /// with a `truncated` marker (0 ⇒ unbounded — test use only).
    pub event_buffer: usize,
    /// Handler-pool threads for CPU-bound request handling (0 ⇒
    /// [`DEFAULT_HANDLER_THREADS`]). The reactor itself is one thread
    /// regardless of how many connections are open.
    pub handler_threads: usize,
    /// Total budget for a connection to deliver its request
    /// (slow-loris cutoff).
    pub request_timeout: Duration,
    /// Per-connection output high-water mark (stream backpressure).
    pub stream_high_water: usize,
    /// Reclaim a connection whose unsent output made no progress for
    /// this long (the peer stopped reading and never came back).
    pub write_stall_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:8787".into(),
            cache_dir: None,
            queue_workers: 2,
            job_workers: 0,
            max_connections: DEFAULT_MAX_CONNECTIONS,
            event_buffer: DEFAULT_EVENT_BUFFER,
            handler_threads: 0,
            request_timeout: DEFAULT_REQUEST_TIMEOUT,
            stream_high_water: DEFAULT_STREAM_HIGH_WATER,
            write_stall_timeout: DEFAULT_WRITE_STALL_TIMEOUT,
        }
    }
}

/// Shared server state: the job table, the submission queue and the
/// process-wide cache handle.
pub(crate) struct ServerState {
    pub(crate) cache: ResultCache,
    pub(crate) jobs: Mutex<Vec<Arc<Job>>>,
    queue: Mutex<VecDeque<Arc<Job>>>,
    queue_ready: Condvar,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    job_workers: usize,
    event_buffer: usize,
    pub(crate) max_connections: usize,
    pub(crate) active_connections: AtomicUsize,
    /// The reactor's wakeup handle, set once `run()` starts; jobs
    /// created after that carry it as their event hook.
    reactor_waker: OnceLock<Arc<Waker>>,
    /// Distributed-execution backend (coordinator mode); `None` for a
    /// plain worker/standalone server.
    pub(crate) cluster: Option<Arc<dyn ClusterBackend>>,
    /// Live flight recorders by causality id, so the handler pool can
    /// stamp per-endpoint spans onto the trace a request belongs to
    /// (via `X-Synapse-Trace` or the `/campaigns/<id>` path). Entries
    /// live from submit until the job's trace is finalized.
    recorders: Mutex<HashMap<String, Arc<TraceRecorder>>>,
    pub(crate) started: Instant,
}

impl ServerState {
    pub(crate) fn job(&self, public_id: &str) -> Option<Arc<Job>> {
        let id: u64 = public_id.strip_prefix('j')?.parse().ok()?;
        self.jobs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .find(|j| j.id == id)
            .cloned()
    }

    pub(crate) fn submit(
        &self,
        spec: CampaignSpec,
        total: usize,
        kind: JobKind,
        recorder: Option<Arc<TraceRecorder>>,
        lease_trace: Option<String>,
    ) -> Arc<Job> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        // Lease rings are never truncated: their point events *are*
        // the results the coordinator merges, so dropping any would
        // lose grid points for good. The buffer is bounded by the
        // lease's own size (the coordinator controls that), and the
        // job is evicted with the terminal-job retention like any
        // other.
        let event_cap = match kind {
            JobKind::Lease { .. } => 0,
            _ => self.event_buffer,
        };
        let hook = self.reactor_waker.get().map(|waker| {
            let waker = waker.clone();
            Arc::new(move || waker.wake()) as Arc<EventHook>
        });
        let job = Arc::new(Job::with_hook(
            id,
            spec,
            total,
            self.job_workers,
            kind,
            event_cap,
            hook,
        ));
        // Wire causality BEFORE the job becomes reachable (queue/table):
        // a queue worker must never observe a recorded job without its
        // recorder, and span stamping resolves through `recorders`.
        if let Some(recorder) = recorder {
            self.recorders
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .insert(recorder.trace_id().to_string(), recorder.clone());
            job.attach_recorder(recorder);
        }
        if let Some(trace_id) = lease_trace {
            job.set_lease_trace(trace_id);
        }
        let evicted = {
            let mut jobs = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
            jobs.push(job.clone());
            evict_terminal(&mut jobs)
        };
        self.queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push_back(job.clone());
        self.queue_ready.notify_one();
        // A shutdown can land between the handler's early check and
        // the insertions above — after the shutdown sweep settled the
        // job table. Nobody would ever settle this job, leaving its
        // event stream open forever; settle it here.
        if self.shutting_down() && job.settle_if_queued() {
            self.finalize_trace(&job);
        }
        // Freeing a finished job's event ring (a full sweep's point
        // lines) is the table's last reference going: it happens here,
        // after the new job is queued, and outside the jobs lock.
        drop(evicted);
        job
    }

    /// Retire a finished job's live recorder so span stamping stops
    /// (its trace was sealed before the job turned terminal).
    /// Idempotent; every path that terminates a job calls it.
    pub(crate) fn finalize_trace(&self, job: &Arc<Job>) {
        if let Some(recorder) = job.recorder() {
            self.recorders
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .remove(recorder.trace_id());
        }
    }

    /// Stamp one handled request onto the trace it belongs to, if any:
    /// resolved by `X-Synapse-Trace` header first (cluster clients
    /// propagate it), else through the job table by the `:id` its
    /// route matched (worker ids never name a job). Requests landing
    /// after the trace is sealed are not recorded — the document is
    /// already immutable by then.
    fn record_span(&self, request: &Request, endpoint: &str, id: &str, secs: f64) {
        let recorder = match request.header("x-synapse-trace") {
            Some(trace) => self
                .recorders
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .get(trace)
                .cloned(),
            None => self.job(id).and_then(|job| job.recorder().cloned()),
        };
        if let Some(recorder) = recorder {
            recorder.record_span(endpoint, secs);
        }
    }

    /// Block until a job is queued or shutdown is requested.
    fn next_job(&self) -> Option<Arc<Job>> {
        let mut queue = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return None;
            }
            if let Some(job) = queue.pop_front() {
                return Some(job);
            }
            queue = self
                .queue_ready
                .wait_timeout(queue, Duration::from_millis(200))
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }

    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        // Stop in-flight sweeps; settle jobs no queue worker will ever
        // reach, so their event streams terminate instead of leaving
        // streamers blocked forever.
        let settled: Vec<Arc<Job>> = self
            .jobs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .filter(|job| job.settle_if_queued())
            .cloned()
            .collect();
        for job in settled {
            self.finalize_trace(&job);
        }
        self.queue_ready.notify_all();
        if let Some(waker) = self.reactor_waker.get() {
            waker.wake();
        }
    }

    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    config: ServerConfig,
}

/// Remote control for a running [`Server`] (tests, embedders).
#[derive(Clone)]
pub struct ServerHandle {
    state: Arc<ServerState>,
    addr: std::net::SocketAddr,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Ask the reactor, queue workers and in-flight sweeps to stop.
    /// Returns once the request is registered (the `run()` call
    /// unblocks shortly after).
    pub fn shutdown(&self) {
        // request_shutdown wakes the reactor through its eventfd; the
        // connect poke covers a server whose run() has not started
        // serving yet.
        self.state.request_shutdown();
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
    }
}

impl Server {
    /// Bind the listener and open (or create) the shared result cache.
    pub fn bind(config: ServerConfig) -> Result<Server, ServerError> {
        let listener = TcpListener::bind(&config.addr)?;
        let cache = match &config.cache_dir {
            Some(dir) => ResultCache::open_with_workers(dir, 0)?,
            None => ResultCache::in_memory(),
        };
        // Expose the store's lock/reconcile counters in `/metrics` by
        // binding the very atomics `/store/stats` reads — one source
        // behind both formats, so the two views cannot drift. Re-bind
        // on every bind(): the registry keeps the latest cache's
        // handles (tests open many servers in one process).
        let counters = cache.store_counters();
        let registry = synapse_telemetry::global();
        registry.bind_counter(
            "synapse_store_lock_acquisitions_total",
            "Shard-group lock acquisitions by this process.",
            counters.lock_acquisitions,
        );
        registry.bind_counter(
            "synapse_store_lock_contention_total",
            "Lock acquisitions that waited out another process.",
            counters.lock_contention,
        );
        registry.bind_counter(
            "synapse_store_reconciled_docs_total",
            "Results merged back from other processes sharing the cache dir.",
            counters.reconciled_docs,
        );
        let state = Arc::new(ServerState {
            cache,
            jobs: Mutex::new(Vec::new()),
            queue: Mutex::new(VecDeque::new()),
            queue_ready: Condvar::new(),
            next_id: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            job_workers: config.job_workers,
            event_buffer: config.event_buffer,
            max_connections: config.max_connections,
            active_connections: AtomicUsize::new(0),
            reactor_waker: OnceLock::new(),
            cluster: None,
            recorders: Mutex::new(HashMap::new()),
            started: Instant::now(),
        });
        Ok(Server {
            listener,
            state,
            config,
        })
    }

    /// Attach a distributed-execution backend, turning this server
    /// into a cluster coordinator: `/cluster/*` endpoints come alive
    /// and `POST /campaigns?cluster=1` fans out through the backend.
    pub fn with_cluster(mut self, backend: Arc<dyn ClusterBackend>) -> Server {
        // The state Arc has not been shared yet (no handle, no run), so
        // the mutation is safe — enforce that by consuming self.
        #[expect(
            clippy::expect_used,
            reason = "builder runs before the state Arc is shared; get_mut cannot fail"
        )]
        let state = Arc::get_mut(&mut self.state).expect("with_cluster before handles exist");
        state.cluster = Some(backend);
        self
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, ServerError> {
        Ok(self.listener.local_addr()?)
    }

    /// A remote-control handle (usable from other threads).
    pub fn handle(&self) -> Result<ServerHandle, ServerError> {
        Ok(ServerHandle {
            state: self.state.clone(),
            addr: self.listener.local_addr()?,
        })
    }

    /// Serve until [`ServerHandle::shutdown`] (or `POST /shutdown`).
    ///
    /// Blocks the calling thread: the reactor runs here, queue workers
    /// and the handler pool on scoped threads behind it.
    pub fn run(self) -> Result<(), ServerError> {
        let Server {
            listener,
            state,
            config,
        } = self;
        let waker = Arc::new(Waker::new()?);
        let _ = state.reactor_waker.set(waker.clone());
        listener.set_nonblocking(true)?;
        let dispatch = Dispatch {
            tasks: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            completions: Mutex::new(Vec::new()),
        };
        let served: std::io::Result<()> = std::thread::scope(|scope| {
            for worker in 0..config.queue_workers.max(1) {
                let state = &state;
                #[expect(
                    clippy::expect_used,
                    reason = "thread spawn at server startup; failing fast before serving is intended"
                )]
                std::thread::Builder::new()
                    .name(format!("synapse-queue-{worker}"))
                    .spawn_scoped(scope, move || queue_worker(state))
                    .expect("spawn queue worker");
            }
            let handlers = match config.handler_threads {
                0 => DEFAULT_HANDLER_THREADS,
                n => n,
            };
            for handler in 0..handlers {
                let (state, dispatch, waker) = (&state, &dispatch, &*waker);
                #[expect(
                    clippy::expect_used,
                    reason = "thread spawn at server startup; failing fast before serving is intended"
                )]
                std::thread::Builder::new()
                    .name(format!("synapse-handler-{handler}"))
                    .spawn_scoped(scope, move || handler_worker(state, dispatch, waker))
                    .expect("spawn handler");
            }
            let served = (|| {
                let mut reactor = Reactor {
                    state: &state,
                    listener: &listener,
                    poller: Poller::new()?,
                    waker: waker.clone(),
                    dispatch: &dispatch,
                    conns: HashMap::new(),
                    next_token: FIRST_CONN_TOKEN,
                    request_timeout: config.request_timeout,
                    high_water: config.stream_high_water.max(4 * 1024),
                    write_stall: config.write_stall_timeout,
                    scratch: Vec::with_capacity(64 * 1024),
                };
                reactor.serve()
            })();
            // The reactor exiting — clean shutdown or fatal error —
            // must take the helper threads with it, or the scope join
            // hangs forever.
            state.request_shutdown();
            dispatch.ready.notify_all();
            served
        });
        served?;
        state.cache.persist()?;
        Ok(())
    }
}

/// One queue worker: take jobs until shutdown.
fn queue_worker(state: &ServerState) {
    while let Some(job) = state.next_job() {
        run_job(state, &job);
    }
}

/// Sweep one job, publishing NDJSON events as points land.
fn run_job(state: &ServerState, job: &Arc<Job>) {
    if job.cancel.is_cancelled() {
        // Cancelled while still queued. DELETE (or shutdown) may have
        // settled it already — emit the terminal event only once.
        let already_settled = job.with_progress(|p| {
            if p.state.is_terminal() {
                true
            } else {
                job.seal_trace();
                p.state = JobState::Cancelled;
                false
            }
        });
        if !already_settled {
            job.push_shared_event(
                ndjson(&json!({"event": "cancelled", "id": job.public_id(), "done": 0, "total": job.total})),
            );
            job.close_events();
        }
        state.finalize_trace(job);
        return;
    }
    // A DELETE may settle the job between the check above and here;
    // transition to Running only from a non-terminal state, so a
    // settled job is never revived (and never re-streams `started`
    // into its closed event buffer).
    let proceed = job.with_progress(|p| {
        if p.state.is_terminal() {
            false
        } else {
            p.state = JobState::Running;
            true
        }
    });
    if !proceed {
        return;
    }
    match job.kind {
        JobKind::Sweep => run_sweep_job(state, job),
        JobKind::Lease { start, end } => run_lease_job(state, job, start, end),
        JobKind::Distributed => run_distributed_job(state, job),
    }
    job.close_events();
    state.finalize_trace(job);
}

/// Serialize the hot per-point event by hand: at ~100k points/s the
/// `json!` Value tree (a dozen allocations per event, built on the
/// sweep thread) was the single biggest observer cost. Keys are in
/// the same sorted order the tree serializer emits, and numbers go
/// through the codec's own kernels, so the wire shape is
/// indistinguishable. The label goes into its JSON string unescaped:
/// a point's names are catalog spellings, which hold nothing the
/// escaper would change.
fn point_event_line(
    result: &synapse_campaign::PointResult,
    cached: bool,
    done: usize,
    total: usize,
) -> String {
    use serde_json::{write_f64, write_u64};
    let mut line = String::with_capacity(416);
    line.push_str("{\"app_tx\":");
    write_f64(&mut line, result.app_tx);
    line.push_str(",\"cached\":");
    line.push_str(if cached { "true" } else { "false" });
    line.push_str(",\"done\":");
    write_u64(&mut line, done as u64);
    line.push_str(",\"error_pct\":");
    write_f64(&mut line, result.error_pct());
    line.push_str(",\"event\":\"point\",\"fingerprint\":\"");
    line.push_str(&result.fingerprint.hex());
    line.push_str("\",\"index\":");
    write_u64(&mut line, result.point.index as u64);
    line.push_str(",\"label\":\"");
    result.point.write_label(&mut line);
    line.push_str("\",\"total\":");
    write_u64(&mut line, total as u64);
    line.push_str(",\"tx\":");
    write_f64(&mut line, result.tx);
    line.push('}');
    line
}

/// Serialize one lease-stream `batch` frame: `n` landed points packed
/// into a single NDJSON line so a warm lease is hundreds of ring
/// pushes and socket writes instead of tens of thousands. Layout
/// (also specified byte-level in `docs/PROTOCOL.md`):
///
/// ```json
/// {"event":"batch","v":1,"n":2,"len":<bytes>,"points":[
///   {"cached":false,"result":{…PointResult…}}, …]}
/// ```
///
/// A point is anything that writes a result's JSON: a decoded
/// `PointResult`, or the [`ResultText`] a lease job lands, which is
/// copied in as it is.
///
/// `len` is the byte length of the `points` array text (brackets
/// included) — a length prefix the consumer checks against the frame
/// it actually received, so a reframed or spliced line fails loudly
/// instead of merging partial results. `points` is always the final
/// key, which is what makes the check a pure suffix computation.
/// Results round-trip f64-exactly through the JSON layer, so merged
/// reports stay byte-stable.
///
/// When the lease carries a coordinator causality id (`X-Synapse-Trace`
/// on the `POST /leases`), the frame echoes it as a `trace` key before
/// `points`, so merged streams stay attributable to the campaign trace.
pub fn lease_batch_line<T: serde::Serialize>(
    points: &[(Arc<T>, bool)],
    trace: Option<&str>,
) -> String {
    use serde_json::write_u64;
    // A result renders to ~560 bytes; room for 640 each keeps a full
    // frame to one allocation per buffer.
    let mut payload = String::with_capacity(points.len() * 640 + 2);
    payload.push('[');
    for (i, (result, cached)) in points.iter().enumerate() {
        if i > 0 {
            payload.push(',');
        }
        payload.push_str("{\"cached\":");
        payload.push_str(if *cached { "true" } else { "false" });
        payload.push_str(",\"result\":");
        result.write_json(&mut payload);
        payload.push('}');
    }
    payload.push(']');
    let mut line = String::with_capacity(payload.len() + 96 + trace.map_or(0, str::len));
    line.push_str("{\"event\":\"batch\",\"v\":");
    write_u64(&mut line, BATCH_FRAME_VERSION);
    line.push_str(",\"n\":");
    write_u64(&mut line, points.len() as u64);
    line.push_str(",\"len\":");
    write_u64(&mut line, payload.len() as u64);
    if let Some(trace) = trace {
        line.push_str(",\"trace\":");
        serde_json::write_escaped(&mut line, trace);
    }
    line.push_str(",\"points\":");
    line.push_str(&payload);
    line.push('}');
    line
}

/// The progress observer shared by local sweeps and distributed runs:
/// per-point NDJSON events with running counters, the job's live
/// aggregates, and periodic aggregate snapshots. It is the only thing
/// that fills the live view; a distributed run's collector calls it
/// once per grid index, so no point counts twice.
fn point_observer(job: &Arc<Job>) -> impl Fn(PointEvent) + Sync + '_ {
    move |event: PointEvent| {
        // The flight recorder sees the identical event stream the
        // NDJSON observers render — one seam, two consumers.
        if let Some(recorder) = job.recorder() {
            recorder.observe(&event);
        }
        match event {
            PointEvent::Started { total } => {
                job.push_shared_event(ndjson(&json!({
                    "event": "started",
                    "id": job.public_id(),
                    "name": job.spec.name,
                    "total": total,
                })));
            }
            PointEvent::PointDone {
                result,
                cached,
                done,
                total,
            } => {
                job.with_progress(|p| {
                    p.done = done;
                    p.cache_hits += usize::from(cached);
                });
                job.live().record(&result);
                job.push_event(point_event_line(&result, cached, done, total));
                // The final point's delta travels with the terminal
                // snapshot instead (publish_outcome), so a watcher
                // never sees a mid-sweep snapshot after the last point.
                if done < total {
                    emit_snapshot_delta(job, false);
                }
            }
            // Terminal events are published below, where the report and
            // final state are in hand.
            PointEvent::Finished { .. } | PointEvent::Cancelled { .. } => {}
        }
    }
}

/// Emit one aggregate `snapshot` **delta** event onto both of the
/// job's rings — only the slices whose live aggregates changed since
/// the last emission, never the full table. Skipped when nothing
/// changed, or (unless `force`) when the hybrid cadence says it is
/// too soon: both [`SNAPSHOT_EVERY`] points *and*
/// [`SNAPSHOT_MIN_INTERVAL`] must have passed since the last one.
fn emit_snapshot_delta(job: &Arc<Job>, force: bool) {
    let live = job.live();
    let (done, cache_hits) = job.with_progress(|p| (p.done, p.cache_hits));
    // Decide and advance under the cursor lock, so concurrent sweep
    // threads cannot double-emit one delta window.
    let slices = job.with_snapshot_cursor(|cursor| {
        let due = force
            || (done.saturating_sub(cursor.done) >= SNAPSHOT_EVERY
                && cursor.emitted_at.elapsed() >= SNAPSHOT_MIN_INTERVAL);
        if !due || live.version() == cursor.version {
            return None;
        }
        let (slices, version) = live.delta_since(cursor.version);
        cursor.version = version;
        cursor.done = done;
        cursor.emitted_at = Instant::now();
        Some(slices)
    });
    let Some(slices) = slices else {
        return;
    };
    let line = ndjson(&Snapshot {
        cache_hits,
        done,
        event: "snapshot",
        mean_abs_error_pct: live.mean_abs_error_pct().unwrap_or(0.0),
        simulated: done - cache_hits,
        slices,
        total: job.total,
        v: AGGREGATES_VERSION,
    });
    let metrics = AggregateMetrics::get();
    metrics.snapshots_emitted.inc();
    metrics.snapshot_bytes.observe(line.len() as f64);
    job.push_shared_event(line);
}

/// One `snapshot` delta event.
#[derive(Serialize)]
struct Snapshot {
    cache_hits: usize,
    done: usize,
    event: &'static str,
    mean_abs_error_pct: f64,
    simulated: usize,
    slices: Vec<Slice>,
    total: usize,
    v: u64,
}

/// Publish a finished (or failed) outcome: sealed trace, final state,
/// report, and exactly one terminal event.
fn publish_outcome(
    job: &Arc<Job>,
    outcome: Result<synapse_campaign::CampaignOutcome, CampaignError>,
) {
    // The guaranteed terminal snapshot: whatever the cadence held
    // back since the last delta lands before the terminal event, so
    // an aggregate-mode watcher always ends holding the complete
    // view. Leases skip it — their stream is the coordinator merge
    // protocol, and they keep no live view.
    if !matches!(job.kind, JobKind::Lease { .. }) {
        emit_snapshot_delta(job, true);
    }
    // Stage timings land in the trace here, not in the engine's
    // Finished event — expand/aggregate walls are only known once the
    // full run returns. Then the trace is sealed, before the state
    // turns terminal.
    if let (Ok(outcome), Some(recorder)) = (&outcome, job.recorder()) {
        recorder.record_stats(&outcome.stats);
    }
    job.seal_trace();
    match outcome {
        Ok(outcome) => {
            let stats = outcome.stats;
            job.set_report(outcome.report);
            job.with_progress(|p| {
                p.state = JobState::Completed;
                p.stats = Some(stats);
            });
            let mut doc = completed_doc(job, &stats);
            doc.insert("points_per_sec".into(), json!(stats.points_per_sec()));
            job.push_shared_event(ndjson(&serde_json::Value::Object(doc)));
        }
        Err(CampaignError::Cancelled { done, total }) => {
            job.with_progress(|p| p.state = JobState::Cancelled);
            // A DELETE racing the queue pop may have settled the job
            // (and closed its stream) already; don't emit twice.
            if !job.events_closed() {
                job.push_shared_event(ndjson(&json!({
                    "event": "cancelled",
                    "id": job.public_id(),
                    "done": done,
                    "total": total,
                })));
            }
        }
        Err(e) => {
            let message = e.to_string();
            job.with_progress(|p| {
                p.state = JobState::Failed;
                p.error = Some(message.clone());
            });
            job.push_shared_event(ndjson(
                &json!({"event": "failed", "id": job.public_id(), "error": message}),
            ));
        }
    }
}

/// The terminal `completed` event both job runners publish: the run
/// summary plus the job's identity; each runner inserts its own keys.
fn completed_doc(job: &Job, stats: &RunStats) -> serde_json::Map<String, serde_json::Value> {
    let mut doc = stats.summary_json();
    doc.insert("event".into(), json!("completed"));
    doc.insert("id".into(), json!(job.public_id()));
    doc.insert("name".into(), json!(job.spec.name));
    doc
}

/// Sweep one full-grid job in this process.
fn run_sweep_job(state: &ServerState, job: &Arc<Job>) {
    let config = RunConfig {
        workers: job.workers,
    };
    let observer = point_observer(job);
    let outcome = run_campaign_live(
        &job.spec,
        &config,
        &state.cache,
        &observer,
        job.live(),
        &job.cancel,
    );
    publish_outcome(job, outcome);
}

/// Fan one distributed job out through the cluster backend.
fn run_distributed_job(state: &ServerState, job: &Arc<Job>) {
    let Some(backend) = &state.cluster else {
        // Guarded at submit time; a job can only get here if the
        // backend vanished, which cannot happen — but fail loudly
        // rather than panic a queue worker.
        publish_outcome(
            job,
            Err(CampaignError::Cluster(
                "this server has no cluster backend".into(),
            )),
        );
        return;
    };
    let observer = point_observer(job);
    let recorder = job.recorder().map(|r| &**r);
    let outcome = backend.run_distributed(
        &job.spec,
        &state.cache,
        &observer,
        job.live(),
        recorder,
        &job.cancel,
    );
    publish_outcome(job, outcome);
}

/// Sweep one lease (a contiguous slice of the grid) on behalf of a
/// coordinator: landed points travel back as `batch` frames carrying
/// full serialized results, and the terminal event reports
/// lease-relative counters. No report is assembled — merging is the
/// coordinator's job. Points land as [`ResultText`]: a cache hit goes
/// into its frame as the stored text, never decoded here.
fn run_lease_job(state: &ServerState, job: &Arc<Job>, start: usize, end: usize) {
    // Materialize only the leased slice (points keep their global
    // indices) — a worker serving 8 leases of a huge grid must not
    // expand the whole grid 8 times.
    let points = expand_range(&job.spec, start, end);
    let slice = points.as_slice();
    let config = RunConfig {
        workers: job.workers,
    };
    // The engine observer is called from every sweep thread, so the
    // pending batch lives behind a mutex; frames are built and pushed
    // under it, keeping frame order = landing order.
    // The coordinator's causality id (if the lease carried one): echoed
    // in the lease's own events and batch frames so a merged stream —
    // or a recorded trace — attributes every frame to its campaign.
    let trace = job.lease_trace();
    let with_trace = |mut doc: serde_json::Value| {
        if let (Some(id), serde_json::Value::Object(obj)) = (trace, &mut doc) {
            obj.insert("trace".into(), json!(id));
        }
        doc
    };
    let pending: Mutex<Vec<(Arc<ResultText>, bool)>> =
        Mutex::new(Vec::with_capacity(DEFAULT_BATCH_POINTS));
    let flush = |buf: &mut Vec<(Arc<ResultText>, bool)>| {
        if !buf.is_empty() {
            job.push_event(lease_batch_line(buf, trace));
            buf.clear();
        }
    };
    let observer = |event: PointEvent<ResultText>| match event {
        PointEvent::Started { total } => {
            job.push_event(ndjson(&with_trace(json!({
                "event": "started",
                "id": job.public_id(),
                "name": job.spec.name,
                "lease": {"start": start, "end": end},
                "total": total,
            }))));
        }
        PointEvent::PointDone {
            result,
            cached,
            done,
            ..
        } => {
            job.with_progress(|p| {
                p.done = done;
                p.cache_hits += usize::from(cached);
            });
            let mut buf = pending.lock().unwrap_or_else(|e| e.into_inner());
            buf.push((result, cached));
            if buf.len() >= DEFAULT_BATCH_POINTS {
                flush(&mut buf);
            }
        }
        PointEvent::Finished { .. } | PointEvent::Cancelled { .. } => {}
    };
    let engine = CampaignEngine::landing(slice, &state.cache, &config);
    let outcome = engine.run(&observer, &job.cancel);
    // Whatever landed stays landed: flush the partial tail frame even
    // on error/cancel — the coordinator's merge dedups replays, and a
    // half-delivered lease re-runs elsewhere anyway.
    flush(&mut pending.lock().unwrap_or_else(|e| e.into_inner()));
    // Landed points must survive the process for the shared cache dir.
    if let Err(e) = state.cache.persist() {
        publish_outcome(job, Err(e));
        return;
    }
    match outcome {
        Ok((_, stats)) => {
            job.with_progress(|p| {
                p.state = JobState::Completed;
                p.stats = Some(stats);
            });
            let mut doc = completed_doc(job, &stats);
            doc.insert("lease".into(), json!({"start": start, "end": end}));
            job.push_event(ndjson(&with_trace(serde_json::Value::Object(doc))));
        }
        Err(e) => publish_outcome(job, Err(e)),
    }
}

// ---------------------------------------------------------------------------
// The reactor: nonblocking accept + per-connection state machines.
// ---------------------------------------------------------------------------

const TOKEN_WAKER: u64 = 0;
const TOKEN_LISTENER: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// The handler-pool mailboxes: parsed requests in, replies out.
struct Dispatch {
    /// (connection token, parsed request, dispatch instant) — the
    /// instant anchors the per-endpoint latency histogram, so queue
    /// wait inside the handler pool is part of what it measures.
    tasks: Mutex<VecDeque<(u64, Request, Instant)>>,
    ready: Condvar,
    completions: Mutex<Vec<(u64, Reply)>>,
}

/// One handler-pool thread: route requests until shutdown (draining
/// whatever is still queued first, so accepted requests always get
/// their response).
fn handler_worker(state: &ServerState, dispatch: &Dispatch, waker: &Waker) {
    loop {
        let task = {
            let mut tasks = dispatch.tasks.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(task) = tasks.pop_front() {
                    break Some(task);
                }
                if state.shutting_down() {
                    break None;
                }
                tasks = dispatch
                    .ready
                    .wait_timeout(tasks, Duration::from_millis(200))
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            }
        };
        let Some((token, request, dispatched)) = task else {
            return;
        };
        let resolved = routes::resolve(&request.method, request.path());
        let reply = routes::dispatch(&request, state, &resolved);
        let endpoint = resolved.label;
        ServerMetrics::get()
            .request_seconds(endpoint)
            .observe_since(dispatched);
        // Same wall the histogram just observed, stamped into the
        // flight recorder this request belongs to (if one is live).
        let secs = dispatched.elapsed().as_secs_f64();
        state.record_span(&request, endpoint, resolved.id, secs);
        dispatch
            .completions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((token, reply));
        waker.wake();
    }
}

/// Where one connection's state machine stands.
enum ConnState {
    /// Accumulating request bytes through the incremental parser.
    Reading(RequestParser),
    /// Request dispatched to the handler pool; awaiting its reply.
    Handling,
    /// Flushing `out`; close when drained.
    Writing,
    /// Live event stream: the pump appends ring events to `out` as
    /// they arrive (up to the high-water mark), the reactor flushes on
    /// write readiness. `done` = terminator appended, close after the
    /// final flush.
    Streaming {
        job: Arc<Job>,
        ring: EventRing,
        cursor: usize,
        done: bool,
    },
}

/// One accepted connection.
struct Conn {
    stream: TcpStream,
    state: ConnState,
    /// Unsent output; `out[..written]` already went down the socket.
    out: Vec<u8>,
    written: usize,
    /// Accepted past the connection cap: answer `503` after reading
    /// the request (answering before consuming it would RST the
    /// socket before the client sees the status).
    shed: bool,
    /// Peer shut its write side (EOF seen) after delivering its
    /// request: stop watching for input, keep delivering output.
    read_shut: bool,
    /// Reading-phase cutoff (slow-loris budget).
    deadline: Option<Instant>,
    /// Last successful socket write (stall reclaim).
    last_progress: Instant,
    /// Last stream payload enqueued (heartbeat cadence).
    last_emit: Instant,
    /// Currently-registered epoll interest.
    interest: u32,
}

impl Conn {
    fn pending(&self) -> usize {
        self.out.len() - self.written
    }
}

/// What a readiness-driven read pass concluded.
enum ReadOutcome {
    /// Transport drained, nothing decided.
    Idle,
    /// Peer hung up mid-request (or transport error): reclaim.
    Close,
    /// Peer shut its write side AFTER its request completed — a
    /// half-closing client (`curl --no-keepalive`, `nc -N`, proxies)
    /// is still reading; its response/stream must be delivered. The
    /// old blocking front never read past the request, so it was
    /// naturally immune; the reactor must opt out of read interest
    /// explicitly or the level-triggered EOF would spin.
    ReadShut,
    /// A complete request landed.
    Complete(Request),
    /// The bytes were not a parseable request.
    Fail(HttpError),
}

/// Pull everything the socket has, feeding the parser while the
/// connection is reading. Bytes arriving in any other state are
/// discarded (no pipelining; every response closes the connection).
fn read_conn(conn: &mut Conn) -> ReadOutcome {
    let mut buf = [0u8; 16 * 1024];
    loop {
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                return if matches!(conn.state, ConnState::Reading(_)) {
                    ReadOutcome::Close
                } else {
                    ReadOutcome::ReadShut
                }
            }
            Ok(n) => {
                if let ConnState::Reading(parser) = &mut conn.state {
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "n was just returned by read(), so n <= buf.len()"
                    )]
                    let read = &buf[..n];
                    match parser.feed(read) {
                        Ok(Some(request)) => return ReadOutcome::Complete(request),
                        Ok(None) => {}
                        Err(e) => return ReadOutcome::Fail(e),
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return ReadOutcome::Idle,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return ReadOutcome::Close,
        }
    }
}

/// The reactor: owns the poller and every connection; runs on the
/// thread that called [`Server::run`].
struct Reactor<'a> {
    state: &'a ServerState,
    listener: &'a TcpListener,
    poller: Poller,
    waker: Arc<Waker>,
    dispatch: &'a Dispatch,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    request_timeout: Duration,
    high_water: usize,
    write_stall: Duration,
    /// Reusable pump buffer (ring bytes are staged here so the chunk
    /// frame can be length-prefixed without per-line allocations).
    scratch: Vec<u8>,
}

impl Reactor<'_> {
    fn serve(&mut self) -> std::io::Result<()> {
        self.poller
            .add(self.waker.fd(), TOKEN_WAKER, reactor::READABLE)?;
        self.poller
            .add(self.listener.as_raw_fd(), TOKEN_LISTENER, reactor::READABLE)?;
        let mut events: Vec<reactor::Event> = Vec::new();
        let mut shutdown_grace: Option<Instant> = None;
        let mut last_scan = Instant::now();
        let mut last_pump = Instant::now();
        let metrics = ServerMetrics::get();
        loop {
            events.clear();
            self.poller.wait(&mut events, REACTOR_TICK_MS)?;
            // Quiet ticks (the 250 ms timeout with nothing ready) are
            // not recorded — the histograms describe work per wake,
            // not the idle heartbeat.
            let pass_started = (!events.is_empty()).then(|| {
                metrics.wake_batch.observe(events.len() as f64);
                Instant::now()
            });
            let mut woke = false;
            for &event in &events {
                match event.token {
                    TOKEN_WAKER => {
                        self.waker.drain();
                        woke = true;
                    }
                    TOKEN_LISTENER => self.accept_ready(),
                    token => self.conn_ready(token, event),
                }
            }
            self.drain_completions();
            // Pump when job activity woke us, or on a short tick that
            // bounds the latency of a partial hook batch (job hooks
            // fire every HOOK_BATCH events / HOOK_LATENCY). Pumping on
            // *every* pass would make unrelated request churn
            // O(open streams) per socket event.
            if woke || last_pump.elapsed() >= Duration::from_millis(25) {
                last_pump = Instant::now();
                self.pump_all_streams();
            }
            // Timer work is coarse (5 s deadlines, 10 s heartbeats,
            // 30 s stalls): scanning every connection on every wake
            // would make busy streams O(conns) per event batch.
            if last_scan.elapsed() >= Duration::from_millis(100) {
                last_scan = Instant::now();
                self.scan_timers();
            }
            if let Some(started) = pass_started {
                metrics.poll_seconds.observe_since(started);
            }
            if self.state.shutting_down() {
                if shutdown_grace.is_none() {
                    self.begin_shutdown();
                    shutdown_grace = Some(Instant::now() + SHUTDOWN_GRACE);
                }
                // Settled jobs closed their rings: pump the terminal
                // events out so watchers end cleanly.
                self.pump_all_streams();
                #[expect(
                    clippy::expect_used,
                    reason = "the shutdown arm above sets the grace deadline unconditionally"
                )]
                let grace = shutdown_grace.expect("grace set above");
                if self.conns.is_empty() || Instant::now() >= grace {
                    return Ok(());
                }
            }
        }
    }

    /// Accept until the backlog drains. Capacity policy: past
    /// `max_connections` a connection is still accepted but flagged to
    /// shed (read the request, answer `503`); past twice the cap it is
    /// dropped cold — the gauge is incremented and decremented within
    /// this function, so the count stays exact.
    fn accept_ready(&mut self) {
        let metrics = ServerMetrics::get();
        loop {
            let (stream, _) = match self.listener.accept() {
                Ok(accepted) => accepted,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            if self.state.shutting_down() {
                continue; // dropped: the listener closes right behind it
            }
            let active = self.state.active_connections.fetch_add(1, Ordering::AcqRel) + 1;
            let cap = self.state.max_connections;
            let over = cap > 0 && active > cap;
            if over && active > cap.saturating_mul(2) {
                self.state.active_connections.fetch_sub(1, Ordering::AcqRel);
                metrics.connections_dropped.inc();
                continue;
            }
            // Nagle off: event streams write many small chunked
            // frames; holding one back for the previous frame's ACK
            // would serialize the stream on round trips.
            let _ = stream.set_nodelay(true);
            let now = Instant::now();
            let token = self.next_token;
            self.next_token += 1;
            if reactor::set_nonblocking(stream.as_raw_fd()).is_err()
                || self
                    .poller
                    .add(stream.as_raw_fd(), token, reactor::READABLE)
                    .is_err()
            {
                self.state.active_connections.fetch_sub(1, Ordering::AcqRel);
                continue;
            }
            metrics.connections_accepted.inc();
            if over {
                metrics.connections_shed.inc();
            }
            self.conns.insert(
                token,
                Conn {
                    stream,
                    state: ConnState::Reading(RequestParser::new()),
                    out: Vec::new(),
                    written: 0,
                    shed: over,
                    read_shut: false,
                    deadline: Some(now + self.request_timeout),
                    last_progress: now,
                    last_emit: now,
                    interest: reactor::READABLE,
                },
            );
        }
    }

    fn conn_ready(&mut self, token: u64, event: reactor::Event) {
        if event.hangup() {
            // Full hangup: both directions dead, nothing deliverable.
            self.close(token);
            return;
        }
        if event.readable() {
            self.conn_readable(token);
        }
        if event.writable() && self.conns.contains_key(&token) {
            self.flush(token);
        }
    }

    fn conn_readable(&mut self, token: u64) {
        let outcome = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            read_conn(conn)
        };
        match outcome {
            ReadOutcome::Idle => {}
            ReadOutcome::Close => self.close(token),
            ReadOutcome::ReadShut => {
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.read_shut = true;
                }
                self.update_interest(token);
            }
            ReadOutcome::Complete(request) => self.request_complete(token, request),
            ReadOutcome::Fail(e) => {
                let (status, reason) = e.status();
                let body = http::json_bytes(status, reason, &json!({"error": e.to_string()}));
                self.respond(token, body);
            }
        }
    }

    /// Queue a complete response on the connection and start flushing.
    fn respond(&mut self, token: u64, bytes: Vec<u8>) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.out.extend_from_slice(&bytes);
            conn.state = ConnState::Writing;
            conn.deadline = None;
        }
        self.flush(token);
    }

    fn request_complete(&mut self, token: u64, request: Request) {
        let limit = self.state.max_connections;
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.deadline = None;
        if conn.shed {
            let body = http::json_bytes(
                503,
                "Service Unavailable",
                &json!({"error": format!("connection limit {limit} reached, retry later")}),
            );
            let _ = conn;
            self.respond(token, body);
            return;
        }
        conn.state = ConnState::Handling;
        self.dispatch
            .tasks
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push_back((token, request, Instant::now()));
        self.dispatch.ready.notify_one();
    }

    /// Apply replies the handler pool finished. A reply for a
    /// connection that hung up meanwhile is dropped on the floor.
    fn drain_completions(&mut self) {
        let completed: Vec<(u64, Reply)> = std::mem::take(
            &mut *self
                .dispatch
                .completions
                .lock()
                .unwrap_or_else(|e| e.into_inner()),
        );
        for (token, reply) in completed {
            match reply {
                Reply::Full(bytes) => self.respond(token, bytes),
                Reply::Shutdown(bytes) => {
                    self.respond(token, bytes);
                    self.state.request_shutdown();
                }
                Reply::Stream {
                    job,
                    preamble,
                    ring,
                } => {
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.out
                            .extend_from_slice(&http::stream_head_bytes("application/x-ndjson"));
                        if let Some(line) = preamble {
                            let mut framed = line.into_bytes();
                            framed.push(b'\n');
                            http::append_chunk(&mut conn.out, &framed);
                        }
                        conn.last_emit = Instant::now();
                        conn.state = ConnState::Streaming {
                            job,
                            ring,
                            cursor: 0,
                            done: false,
                        };
                        self.pump_stream(token);
                    }
                }
            }
        }
    }

    fn pump_all_streams(&mut self) {
        let streaming: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| matches!(c.state, ConnState::Streaming { done: false, .. }))
            .map(|(&t, _)| t)
            .collect();
        for token in streaming {
            self.pump_stream(token);
        }
    }

    /// Move ring events into the connection's output buffer, up to the
    /// high-water mark (backpressure: a watcher that stops reading
    /// stops consuming ring events; the ring's truncation marker tells
    /// it what it missed when it resumes). Emits the chunked
    /// terminator once the ring closes and is fully drained.
    ///
    /// Pump and flush alternate until the ring has nothing more or the
    /// peer genuinely cannot keep up — a burst larger than the
    /// high-water mark must not strand its tail behind a coalesced
    /// wakeup when the watcher is reading just fine.
    fn pump_stream(&mut self, token: u64) {
        let high_water = self.high_water;
        loop {
            let hit_capacity = {
                let scratch = &mut self.scratch;
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                let ConnState::Streaming {
                    job,
                    ring,
                    cursor,
                    done,
                } = &mut conn.state
                else {
                    return;
                };
                let mut hit_capacity = false;
                while !*done {
                    if conn.out.len() - conn.written >= high_water {
                        hit_capacity = true;
                        break;
                    }
                    // One chunked frame per pump pass, not per event
                    // line: a burst of points costs one write, which
                    // is most of the reactor's throughput win over the
                    // old flush-per-event streamer.
                    scratch.clear();
                    let (next, any, closed) =
                        job.ring_events_into(*ring, *cursor, scratch, high_water);
                    *cursor = next;
                    if !any {
                        if closed {
                            conn.out.extend_from_slice(http::CHUNK_TERMINATOR);
                            *done = true;
                        }
                        break;
                    }
                    http::append_chunk(&mut conn.out, scratch);
                    ServerMetrics::get().stream_bytes.add(scratch.len() as u64);
                    conn.last_emit = Instant::now();
                }
                hit_capacity
            };
            self.flush_raw(token);
            if !hit_capacity {
                return;
            }
            // Stopped for capacity: if the flush freed room, keep
            // draining the ring now; otherwise the peer is backed up
            // and the next write-readiness edge resumes the pump.
            match self.conns.get(&token) {
                Some(conn) if conn.pending() < high_water => continue,
                _ => return,
            }
        }
    }

    /// [`Reactor::flush_raw`], then restart the stream pump if the
    /// write freed room below the high-water mark. Every generic
    /// flush path needs this: a watcher that resumed reading may have
    /// drained through *any* of them (the write-readiness edge, a
    /// heartbeat pulse) with its job's ring already closed — no event
    /// hook will ever fire for it again, so whichever flush emptied
    /// the buffer is the only thing left to restart its pump.
    fn flush(&mut self, token: u64) {
        self.flush_raw(token);
        let resumable = self.conns.get(&token).is_some_and(|c| {
            matches!(c.state, ConnState::Streaming { done: false, .. })
                && c.pending() < self.high_water
        });
        if resumable {
            self.pump_stream(token);
        }
    }

    /// Write out buffered bytes until the socket would block. Closes
    /// the connection when a terminal state finishes flushing, and
    /// keeps the epoll interest in sync with whether bytes remain.
    fn flush_raw(&mut self, token: u64) {
        let mut close = false;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            loop {
                if conn.written == conn.out.len() {
                    break;
                }
                #[expect(
                    clippy::indexing_slicing,
                    reason = "written only advances by counts write() reported, so written <= out.len()"
                )]
                let pending = &conn.out[conn.written..];
                match conn.stream.write(pending) {
                    Ok(0) => {
                        close = true;
                        break;
                    }
                    Ok(n) => {
                        conn.written += n;
                        conn.last_progress = Instant::now();
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        close = true;
                        break;
                    }
                }
            }
            if !close {
                if conn.written == conn.out.len() {
                    conn.out.clear();
                    conn.written = 0;
                    close = matches!(
                        conn.state,
                        ConnState::Writing | ConnState::Streaming { done: true, .. }
                    );
                } else if conn.written > 32 * 1024 {
                    // Reclaim the flushed prefix of a long-lived
                    // stream buffer.
                    conn.out.drain(..conn.written);
                    conn.written = 0;
                }
            }
        }
        if close {
            self.close(token);
        } else {
            self.update_interest(token);
        }
    }

    /// Register write interest only while bytes are pending — epoll is
    /// level-triggered, so a permanently-armed EPOLLOUT would spin.
    fn update_interest(&mut self, token: u64) {
        let poller = &self.poller;
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut want = if conn.read_shut {
            // EOF already observed: EPOLLIN/EPOLLRDHUP are
            // level-triggered and would refire forever. A later full
            // close still surfaces (EPOLLHUP is always reported, and
            // writes fail).
            0
        } else {
            reactor::READABLE
        };
        if conn.pending() > 0 {
            want |= reactor::WRITABLE;
        }
        if want != conn.interest && poller.modify(conn.stream.as_raw_fd(), token, want).is_ok() {
            conn.interest = want;
        }
    }

    /// Time-based bookkeeping: request deadlines (slow-loris / shed
    /// read budget), stream heartbeats, and stalled-writer reclaim.
    fn scan_timers(&mut self) {
        let now = Instant::now();
        let mut expired: Vec<(u64, bool)> = Vec::new();
        let mut pulse: Vec<u64> = Vec::new();
        let mut stalled: Vec<u64> = Vec::new();
        for (&token, conn) in &mut self.conns {
            if conn.pending() > 0 && now.duration_since(conn.last_progress) >= self.write_stall {
                stalled.push(token);
                continue;
            }
            match &conn.state {
                ConnState::Reading(_) if conn.deadline.is_some_and(|d| now >= d) => {
                    expired.push((token, conn.shed));
                }
                ConnState::Streaming { done: false, .. }
                    if now.duration_since(conn.last_emit) >= HEARTBEAT_EVERY =>
                {
                    http::append_chunk(&mut conn.out, b"{\"event\":\"heartbeat\"}\n");
                    conn.last_emit = now;
                    pulse.push(token);
                }
                _ => {}
            }
        }
        ServerMetrics::get()
            .connections_reclaimed
            .add((expired.len() + stalled.len()) as u64);
        let limit = self.state.max_connections;
        for (token, shed) in expired {
            // Sheds answer 503 even when the request never fully
            // arrived (mirroring the old bounded-read shed thread);
            // ordinary connections that sat on a partial request get
            // the honest timeout status.
            let body = if shed {
                http::json_bytes(
                    503,
                    "Service Unavailable",
                    &json!({"error": format!("connection limit {limit} reached, retry later")}),
                )
            } else {
                http::json_bytes(
                    408,
                    "Request Timeout",
                    &json!({"error": format!("request not received within {:?}", self.request_timeout)}),
                )
            };
            self.respond(token, body);
        }
        for token in pulse {
            self.flush(token);
        }
        for token in stalled {
            self.close(token);
        }
    }

    /// Stop accepting and cut connections that have no response owed
    /// (still reading). Streams and in-flight handlers get the grace
    /// period to emit their terminal events and flush.
    fn begin_shutdown(&mut self) {
        let _ = self.poller.delete(self.listener.as_raw_fd());
        let reading: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| matches!(c.state, ConnState::Reading(_)))
            .map(|(&t, _)| t)
            .collect();
        for token in reading {
            self.close(token);
        }
    }

    /// The single exit path for a connection: deregister, drop (which
    /// closes the socket) and decrement the gauge — exactly once,
    /// guarded by the map removal.
    fn close(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            // No epoll_ctl(DEL): closing the only fd referencing the
            // socket deregisters it implicitly, and this path runs
            // once per connection served.
            drop(conn);
            self.state.active_connections.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CampaignSpec {
        CampaignSpec::from_toml(
            r#"
            name = "fmt"
            machines = ["thinkie"]
            kernels = ["asm"]

            [[workloads]]
            app = "gromacs"
            steps = [10000]
            "#,
        )
        .unwrap()
    }

    /// A point event as the tree serializer writes it.
    fn tree_point_line(
        result: &synapse_campaign::PointResult,
        cached: bool,
        done: usize,
        total: usize,
    ) -> String {
        ndjson(&json!({
            "event": "point",
            "index": result.point.index,
            "label": result.point.label(),
            "fingerprint": result.fingerprint,
            "tx": result.tx,
            "app_tx": result.app_tx,
            "error_pct": result.error_pct(),
            "cached": cached,
            "done": done,
            "total": total,
        }))
    }

    #[test]
    fn hand_rolled_point_line_matches_the_tree_serializer() {
        use synapse_campaign::grid::Name;
        use synapse_campaign::{Fingerprint, PointResult, ScenarioPoint};
        let points = synapse_campaign::expand(&spec());
        let cache = ResultCache::in_memory();
        let (results, _) = CampaignEngine::new(&points, &cache, &RunConfig::default())
            .run(&|_| {}, &synapse_campaign::CancelToken::new())
            .unwrap();
        for (i, result) in results.iter().enumerate() {
            let fast = point_event_line(result, i % 2 == 0, i + 1, results.len());
            let tree = tree_point_line(result, i % 2 == 0, i + 1, results.len());
            assert_eq!(fast, tree, "hot-path serializer must be byte-identical");
        }

        // Results built by hand: every catalog name, non-integral and
        // extreme numbers, and negative errors.
        let catalogs: [&[&str]; 7] = [
            &["gromacs", "amber"],
            &[
                "thinkie", "stampede", "archer", "supermic", "comet", "titan",
            ],
            &["asm", "c", "spin"],
            &["openmp", "mpi"],
            &["default", "local", "lustre", "nfs"],
            &[
                "compute",
                "memory",
                "compute+memory",
                "storage",
                "compute+storage",
                "memory+storage",
                "no-network",
                "network",
                "compute+network",
                "memory+network",
                "no-storage",
                "storage+network",
                "no-memory",
                "no-compute",
                "all",
            ],
            &["preserve", "shuffle"],
        ];
        let [apps, machines, kernels, modes, filesystems, atom_sets, orders] = catalogs;
        let counts = [0, 1, 9, 10, 99_999, 1 << 40, u64::MAX];
        let rates = [0.1, 2.5, 10.0, 1e-7, 123_456.789, 1e21, 0.1 + 0.2];
        let times = [0.5, 1234.5678, 3.0, 1e-9, 2e17, 0.0];
        let mut negative = 0;
        for i in 0..90 {
            let pick = |catalog: &[&str], step: usize| {
                Name::resolve(catalog[i / step % catalog.len()]).expect("a catalog spelling")
            };
            let point = ScenarioPoint {
                index: i * 1_000_003,
                workload: pick(apps, 1),
                steps: counts[i % counts.len()],
                machine: pick(machines, 1),
                kernel: pick(kernels, 2),
                mode: pick(modes, 3),
                threads: [1, 7, u32::MAX][i % 3],
                io_block: counts[(i + 3) % counts.len()],
                sample_rate: rates[i % rates.len()],
                fs: pick(filesystems, 5),
                atoms: pick(atom_sets, 1),
                sample_order: pick(orders, 7),
                profile_machine: pick(machines, 11),
                noise_cv: 0.02,
                seed: i as u64,
            };
            let result = PointResult {
                point,
                fingerprint: Fingerprint::of(&point),
                tx: times[i % times.len()],
                app_tx: times[(i / 2 + 1) % times.len()],
                samples: i,
                directed_cycles: 0,
                consumed_cycles: 0,
                instructions: 0,
                bytes_written: 0,
            };
            let (done, total) = (i + 1, usize::MAX - i);
            let fast = point_event_line(&result, i % 2 == 1, done, total);
            let tree = tree_point_line(&result, i % 2 == 1, done, total);
            assert_eq!(fast, tree, "point {i}");
            negative += usize::from(result.error_pct() < 0.0);
        }
        assert!(negative > 0);
    }

    /// The live plane's two documents against the tree serializer: the
    /// `snapshot` line a job emits, and `/aggregates` unfiltered and
    /// filtered by axis, metric and both, whose job keys sit between
    /// the view's in sorted order.
    #[test]
    fn derived_live_documents_match_the_tree_serializer() {
        let mut spec = spec();
        spec.name = "a \"quoted\" view\n".into();
        spec.machines = vec!["thinkie".into(), "comet".into()];
        spec.kernels = vec!["asm".into(), "c".into()];
        let points = synapse_campaign::expand(&spec);
        let (results, _) =
            CampaignEngine::new(&points, &ResultCache::in_memory(), &RunConfig::default())
                .run(&|_| {}, &synapse_campaign::CancelToken::new())
                .unwrap();
        let job = Arc::new(Job::new(7, spec, points.len(), 1, JobKind::Sweep, 0));
        let live = job.live();
        let (mut version, mut cursor) = (0, 0);
        for (at, result) in results.iter().enumerate() {
            let (done, cache_hits) = (at + 1, at / 2);
            job.with_progress(|p| (p.done, p.cache_hits) = (done, cache_hits));
            live.record(result);
            let (slices, next) = live.delta_since(version);
            version = next;
            let tree = ndjson(&json!({
                "event": "snapshot",
                "done": done,
                "total": job.total,
                "cache_hits": cache_hits,
                "simulated": done - cache_hits,
                "mean_abs_error_pct": live.mean_abs_error_pct().unwrap(),
                "slices": slices,
                "v": AGGREGATES_VERSION,
            }));
            emit_snapshot_delta(&job, true);
            let mut line = Vec::new();
            (cursor, _, _) = job.ring_events_into(EventRing::Aggregates, cursor, &mut line, 1);
            assert_eq!(
                line,
                format!("{tree}\n").into_bytes(),
                "after {done} points"
            );

            for (axis, metric) in [(None, None), (Some("machine"), None)]
                .into_iter()
                .chain([(None, Some("tx")), (Some("kernel"), Some("error_pct"))])
            {
                let query = [("axis", axis), ("metric", metric)]
                    .iter()
                    .filter_map(|(key, value)| Some(format!("{key}={}&", (*value)?)))
                    .collect::<String>();
                let request = Request {
                    method: "GET".into(),
                    target: format!("/campaigns/j7/aggregates?{query}"),
                    headers: Vec::new(),
                    body: Vec::new(),
                };
                let Reply::Full(reply) = routes::aggregates_reply(&request, &job) else {
                    panic!("a full reply");
                };
                let reply = String::from_utf8(reply).unwrap();
                let mut tree = serde_json::to_value(live.view(axis, metric)).unwrap();
                if let serde_json::Value::Object(obj) = &mut tree {
                    obj.insert("id".into(), json!(job.public_id()));
                    obj.insert("name".into(), json!(job.spec.name));
                    obj.insert("status".into(), json!(job.state().name()));
                    obj.insert("done".into(), json!(done));
                    obj.insert("total".into(), json!(job.total));
                }
                let body = reply.split_once("\r\n\r\n").unwrap().1;
                assert_eq!(body, ndjson(&tree), "{axis:?} {metric:?} after {done}");
            }
        }
    }

    #[test]
    fn retention_evicts_the_oldest_terminal_jobs_and_never_a_live_one() {
        let lease = JobKind::Lease { start: 0, end: 1 };
        let spec = spec();
        let mut jobs: Vec<Arc<Job>> = Vec::new();
        let mut submit = |id: u64, kind: JobKind, live: bool| {
            let job = Arc::new(Job::new(id, spec.clone(), 1, 1, kind, 0));
            if !live {
                assert!(job.settle_if_queued(), "a queued job settles");
            }
            jobs.push(job);
            let evicted = evict_terminal(&mut jobs);
            assert!(evicted.iter().all(|j| j.state().is_terminal()));
            let terminal = |lease_only: bool| {
                jobs.iter()
                    .filter(|j| j.state().is_terminal())
                    .filter(|j| !lease_only || matches!(j.kind, JobKind::Lease { .. }))
                    .count()
            };
            assert!(terminal(true) <= MAX_RETAINED_TERMINAL_LEASES);
            assert!(terminal(false) <= MAX_RETAINED_TERMINAL_JOBS);
            jobs.iter().map(|j| j.id).collect::<Vec<_>>()
        };
        submit(0, JobKind::Sweep, true);
        submit(1, lease, true);
        let mut table = Vec::new();
        for id in 2..100 {
            let kind = if id % 10 == 0 { lease } else { JobKind::Sweep };
            table = submit(id, kind, false);
            if id == 30 {
                // The third finished lease pushes out the first; no
                // sweep has reached its cap yet.
                assert!(!table.contains(&10) && table.contains(&20));
                assert_eq!(table.len(), 30);
            }
        }
        // Live jobs stay; the two newest finished leases stay; of the
        // rest, the newest finished jobs fill the cap.
        let mut kept = vec![0, 1];
        kept.extend((32..100).filter(|id| ![40, 50, 60, 70].contains(id)));
        assert_eq!(table, kept);
        assert_eq!(table.len() - 2, MAX_RETAINED_TERMINAL_JOBS);
    }
}
