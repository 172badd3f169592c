//! The coordinator: throughput-aware lease dispatch, worker drivers,
//! straggler tail-splitting, failure-driven reassignment, and the
//! local fallback that guarantees completion.
//!
//! One driver thread per live worker claims leases from the shared
//! [`LeaseTable`] and runs them to completion on its worker (`POST
//! /leases`, then watch the event stream, feeding every point — they
//! arrive packed in `batch` frames — into the merge [`Collector`]).
//! The table itself is planned by [`plan_leases`]: workers with no
//! throughput history get a small probe lease first, and main leases
//! are sized proportionally to the per-worker rates this coordinator
//! observed on earlier campaigns (kept in its [`WorkerRegistry`]),
//! largest first. The claim loop is work-stealing: fast workers naturally
//! take more leases, a dying worker's released lease is picked up by
//! whoever claims next, and an *idle* driver facing one straggling
//! lease speculatively re-runs its unlanded tail
//! ([`LeaseTable::split_tail`]) — completion is decided point-wise by
//! the collector, so the fast copy of the tail finishes the campaign
//! and the straggler's job is cancelled instead of setting the
//! makespan. When *every* remote worker is gone the coordinator
//! sweeps the remaining leases through its own engine — a cluster
//! degrades to a single process, never to a hung job.
//!
//! Drivers reach workers, and wait, only through the coordinator's
//! [`Transport`]: HTTP in production, an in-process fake whose
//! back-off returns at once under the fault harness
//! (`tests/faults.rs`).
//!
//! The collector hands each grid index to the job observer exactly
//! once, whichever worker (or the local fallback) delivered it. That
//! observer also feeds the job's live aggregates, and the report reads
//! its slices from them, so the coordinator keeps no aggregation state
//! of its own.

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

use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use serde_json::Value;
use synapse_campaign::{
    expand_range, plan_leases, CampaignEngine, CampaignError, CampaignOutcome, CampaignReport,
    CampaignSpec, CancelToken, Lease, LeaseTable, LiveAggregates, PointEvent, ResultCache,
    RunConfig, RunStats,
};
use synapse_server::{Client, ClusterBackend, ServerError};
use synapse_trace::TraceRecorder;

use crate::merge::Collector;
use crate::metrics::ClusterMetrics;
use crate::protocol::{self, WorkerEvent};
use crate::registry::WorkerRegistry;

/// Coordinator configuration. It has no settable field: every
/// coordinator knob is a pinned constant of this module.
#[derive(Debug, Clone, Default)]
pub struct ClusterConfig {}

/// How the coordinator reaches its workers and how its drivers wait:
/// the one seam between the lease logic and the network and clock.
/// The production value speaks HTTP to `synapse serve` workers; an
/// in-process fake can stand in for a whole cluster, and skip the
/// back-off.
pub trait Transport: Send + Sync {
    /// A link to the worker at `addr`. Every request it makes carries
    /// `trace`, when given, as the campaign's causality id.
    fn link<'a>(&'a self, addr: &str, trace: Option<&str>) -> Box<dyn Link + 'a>;

    /// Block the calling driver for `pause` (the retry back-off).
    fn sleep(&self, pause: Duration);
}

/// One worker as a lease driver sees it: the four calls a lease run
/// makes, with the meaning of the same-named [`Client`] methods.
pub trait Link {
    /// `POST /leases`: queue a lease job, returning the ack.
    fn submit_lease(&self, body: &str) -> Result<Value, ServerError>;

    /// Stream the job's events, heartbeats included, into `on_line`
    /// until the job ends or `on_line` returns `false`; returns the
    /// last event.
    fn watch_with_keepalive(
        &self,
        id: &str,
        on_line: &mut dyn FnMut(&str) -> bool,
    ) -> Result<Value, ServerError>;

    /// `DELETE /campaigns/<id>`: stop the job's sweep.
    fn cancel(&self, id: &str) -> Result<Value, ServerError>;

    /// `GET /healthz`: the liveness probe.
    fn healthz(&self) -> Result<Value, ServerError>;
}

/// Socket timeout on a worker's plain request/response round trips:
/// a frozen worker whose kernel still accepts connections must fail
/// the liveness probe promptly, or the local-fallback sweep waits a
/// whole socket timeout. Established lease streams use
/// [`synapse_server::STREAM_SILENCE_TIMEOUT`] instead.
pub const PROBE_TIMEOUT: Duration = Duration::from_secs(5);

/// The production [`Transport`]: HTTP through [`Client`] and real
/// sleeps.
struct HttpTransport;

impl Transport for HttpTransport {
    fn link<'a>(&'a self, addr: &str, trace: Option<&str>) -> Box<dyn Link + 'a> {
        let client = Client::new(addr).with_socket_timeout(PROBE_TIMEOUT);
        Box::new(match trace {
            Some(trace) => client.with_trace(trace),
            None => client,
        })
    }

    fn sleep(&self, pause: Duration) {
        std::thread::sleep(pause);
    }
}

impl Link for Client {
    fn submit_lease(&self, body: &str) -> Result<Value, ServerError> {
        Client::submit_lease(self, body)
    }

    fn watch_with_keepalive(
        &self,
        id: &str,
        on_line: &mut dyn FnMut(&str) -> bool,
    ) -> Result<Value, ServerError> {
        Client::watch_with_keepalive(self, id, on_line)
    }

    fn cancel(&self, id: &str) -> Result<Value, ServerError> {
        Client::cancel(self, id)
    }

    fn healthz(&self) -> Result<Value, ServerError> {
        Client::healthz(self)
    }
}

/// Leases planned per live worker: >1 gives reassignment granularity
/// and lets fast workers steal work from slow ones.
pub const LEASES_PER_WORKER: usize = 4;

/// A lease claimed this many times without completing poisons the job
/// (prevents a spec that crashes every worker from spinning forever).
pub const MAX_LEASE_ATTEMPTS: usize = 6;

/// Don't bother splitting a straggler's tail below this many unlanded
/// points — the speculative re-run would cost more in lease dispatch
/// than it saves in makespan.
pub const MIN_SPLIT_POINTS: usize = 4;

/// Back-off between retries against a live-but-erring worker: this
/// step times the lease's attempt count, capped at
/// [`LEASE_BACKOFF_MAX_STEPS`] steps.
pub const LEASE_BACKOFF_STEP: Duration = Duration::from_millis(200);

/// Attempt count past which the retry back-off stops growing.
pub const LEASE_BACKOFF_MAX_STEPS: usize = 5;

/// How long an idle driver waits before looking at the lease table
/// again on its own — the cadence at which it re-probes stragglers for
/// a tail worth splitting. Anything that changes what it could claim
/// wakes it sooner through [`Progress`].
const IDLE_POLL: Duration = Duration::from_millis(25);

/// Wakes idle drivers the moment there may be something for them to
/// do — a lease completed, released or split, or the grid finished —
/// instead of leaving them to sleep out their poll interval while the
/// job waits on them to exit.
#[derive(Default)]
struct Progress {
    /// Counts wake-worthy changes. A driver reads it *before* it looks
    /// for work and waits only while it still reads the same, so a
    /// change between the look and the wait is not slept through.
    epoch: Mutex<u64>,
    changed: Condvar,
}

impl Progress {
    fn epoch(&self) -> u64 {
        *self.epoch.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn bump(&self) {
        *self.epoch.lock().unwrap_or_else(|e| e.into_inner()) += 1;
        self.changed.notify_all();
    }

    /// Block until the epoch moves past `seen`, or `timeout` passes.
    fn wait_past(&self, seen: u64, timeout: Duration) {
        let guard = self.epoch.lock().unwrap_or_else(|e| e.into_inner());
        // A poisoned wait still returns the guard; either way the
        // caller re-checks everything it cares about.
        drop(
            self.changed
                .wait_timeout_while(guard, timeout, |epoch| *epoch == seen),
        );
    }
}

/// The distributed-execution backend a coordinator-mode server plugs
/// into [`synapse_server::Server::with_cluster`].
pub struct Coordinator {
    transport: Arc<dyn Transport>,
    registry: WorkerRegistry,
}

/// One distributed run's shared state, borrowed by every driver.
struct Run<'a> {
    spec: &'a CampaignSpec,
    table: Mutex<LeaseTable>,
    collector: Collector,
    progress: Progress,
    /// Why the job is poisoned, once a lease fails
    /// [`MAX_LEASE_ATTEMPTS`] times.
    fatal: OnceLock<String>,
    observer: &'a (dyn Fn(PointEvent) + Sync),
    recorder: Option<&'a TraceRecorder>,
    cancel: &'a CancelToken,
}

impl Run<'_> {
    /// Whether drivers must stop: the campaign was cancelled or a
    /// lease poisoned it. Open lease streams hang up on either.
    fn stopped(&self) -> bool {
        self.cancel.is_cancelled() || self.fatal.get().is_some()
    }

    fn record_lease(&self, phase: &str, worker_id: &str, lease: &Lease) {
        if let Some(recorder) = self.recorder {
            recorder.record_lease(phase, worker_id, lease.start, lease.end);
        }
    }
}

/// How one lease run on one worker ended.
enum LeaseRun {
    /// Every point of the lease arrived (or the grid finished while
    /// it streamed); lease is done.
    Completed,
    /// The campaign was cancelled or poisoned mid-lease; stop driving.
    Stopped,
    /// Transport broke or the worker reported failure; retry
    /// elsewhere.
    Failed(String),
}

impl Coordinator {
    /// A coordinator with an empty worker registry that reaches its
    /// workers over HTTP.
    pub fn new(_: ClusterConfig) -> Coordinator {
        Coordinator::with_transport(Arc::new(HttpTransport))
    }

    /// A coordinator with an empty worker registry that reaches its
    /// workers, and waits, through `transport`.
    pub fn with_transport(transport: Arc<dyn Transport>) -> Coordinator {
        Coordinator {
            transport,
            registry: WorkerRegistry::new(),
        }
    }

    /// The worker registry (registration happens through the server's
    /// `/cluster/workers` endpoint or directly here).
    pub fn registry(&self) -> &WorkerRegistry {
        &self.registry
    }

    /// Liveness probe of one worker, timed into the probe histogram.
    fn probe(link: &dyn Link) -> bool {
        let started = Instant::now();
        let alive = link.healthz().is_ok();
        ClusterMetrics::get().probe_seconds.observe_since(started);
        alive
    }

    /// Drive one lease on one worker, feeding points into the
    /// collector as they stream in. Also returns whether the worker
    /// is still alive.
    ///
    /// Every run leaves through one exit. A worker whose call failed,
    /// or whose lease failed, is probed. Then a worker-side job this
    /// coordinator hung up on, or lost the stream of, is cancelled —
    /// after a failed call only if the probe found the worker alive,
    /// so a frozen worker never costs a socket timeout twice.
    fn run_lease(&self, link: &dyn Link, lease: &Lease, run: &Run) -> (LeaseRun, bool) {
        let body = protocol::lease_request_json(run.spec, lease);
        let reply = link.submit_lease(&body);
        let job = reply
            .as_ref()
            .ok()
            .and_then(|reply| reply.get("id"))
            .and_then(Value::as_str)
            .map(str::to_string);
        let (outcome, hung_up, broke) = match (reply, &job) {
            (Err(e), _) => (LeaseRun::Failed(format!("lease submit: {e}")), false, true),
            (Ok(_), None) => (
                LeaseRun::Failed("lease submit reply carries no job id".into()),
                false,
                false,
            ),
            (Ok(_), Some(id)) => Self::watch_lease(link, id, lease, run),
        };
        let alive = !(broke || matches!(outcome, LeaseRun::Failed(_))) || Self::probe(link);
        if alive && (hung_up || broke) {
            if let Some(job) = &job {
                let _ = link.cancel(job);
            }
        }
        (outcome, alive)
    }

    /// Watch one submitted lease job to its end: how the lease ended,
    /// whether this coordinator hung up on the stream, and whether the
    /// stream itself failed.
    fn watch_lease(link: &dyn Link, id: &str, lease: &Lease, run: &Run) -> (LeaseRun, bool, bool) {
        let mut worker_error: Option<String> = None;
        let mut hung_up = false;
        // Keepalive delivery matters: a lease queued behind a busy
        // worker emits only heartbeats, and the stop check below must
        // still run on each one.
        let watched = link.watch_with_keepalive(id, &mut |line| {
            // Split tails overlap their parent lease, so the grid can
            // finish while this stream is mid-lease, or only
            // heartbeating; hang up instead of waiting out the
            // straggler.
            let proceed = !run.stopped()
                && !run.collector.is_complete()
                && match protocol::parse_event(line) {
                    Some(WorkerEvent::Batch(points)) => {
                        ClusterMetrics::get()
                            .batch_points
                            .observe(points.len() as f64);
                        let range = lease.start..lease.end;
                        match run
                            .collector
                            .record_lease_batch(range, points, run.observer)
                        {
                            Ok(_) => {
                                let complete = run.collector.is_complete();
                                if complete {
                                    run.progress.bump();
                                }
                                !complete
                            }
                            Err(index) => {
                                worker_error = Some(format!(
                                    "malformed batch frame: index {index} outside lease {}..{}",
                                    lease.start, lease.end
                                ));
                                false
                            }
                        }
                    }
                    // A line that is not JSON, or a frame that does not
                    // check out, may have carried results; merging past
                    // it could leave holes. Fail the lease and re-run it.
                    None => {
                        worker_error = Some("lease stream line is not JSON".into());
                        false
                    }
                    Some(WorkerEvent::Malformed { reason }) => {
                        worker_error = Some(format!("malformed batch frame: {reason}"));
                        false
                    }
                    Some(WorkerEvent::Failed { error }) => {
                        worker_error = Some(error);
                        true
                    }
                    // Should be impossible (lease rings are unbounded)
                    // but dropped lines were results.
                    Some(WorkerEvent::Truncated { dropped }) => {
                        worker_error =
                            Some(format!("lease stream truncated ({dropped} lines lost)"));
                        false
                    }
                    _ => true,
                };
            hung_up |= !proceed;
            proceed
        });
        let broke = watched.is_err();
        let outcome = if run.stopped() {
            // Points already collected stay collected.
            LeaseRun::Stopped
        } else if run.collector.is_complete() {
            // Every grid point landed (this lease's tail may have
            // finished on another worker): its range is covered.
            LeaseRun::Completed
        } else if let Some(error) = worker_error {
            LeaseRun::Failed(error)
        } else {
            match watched {
                Ok(summary)
                    if summary.get("event").and_then(Value::as_str) == Some("completed") =>
                {
                    LeaseRun::Completed
                }
                Ok(summary) => LeaseRun::Failed(format!(
                    "lease stream ended with {:?}",
                    summary
                        .get("event")
                        .and_then(Value::as_str)
                        .unwrap_or("nothing")
                )),
                Err(e) => LeaseRun::Failed(format!("lease stream: {e}")),
            }
        };
        (outcome, hung_up, broke)
    }

    /// Pick the assigned lease with the most unlanded points and
    /// re-offer that tail as a brand-new available lease. Returns
    /// whether a split happened. The tail *overlaps* the straggler's
    /// range — its owner keeps streaming — and the collector's
    /// first-arrival-wins merge resolves the race; each lease splits
    /// at most once, and tails below [`MIN_SPLIT_POINTS`] are left
    /// alone, so speculation is bounded.
    fn split_straggler_tail(&self, run: &Run, worker_id: &str) -> bool {
        let candidates = run
            .table
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .split_candidates();
        let mut best: Option<(Lease, usize)> = None;
        for lease in candidates {
            let missing = run.collector.missing_in(lease.start, lease.end);
            if missing >= MIN_SPLIT_POINTS && best.is_none_or(|(_, m)| missing > m) {
                best = Some((lease, missing));
            }
        }
        let Some((lease, missing)) = best else {
            return false;
        };
        // Points land roughly front-to-back within a lease, so the
        // unlanded range is approximately the suffix of `missing`
        // points; out-of-order landings only mean the tail overlaps a
        // little more than it had to.
        let mid = lease.end - missing;
        let mut table = run.table.lock().unwrap_or_else(|e| e.into_inner());
        match table.split_tail(lease.id, mid) {
            Some(tail) => {
                run.progress.bump();
                ClusterMetrics::get().leases_split.inc();
                run.record_lease("split", worker_id, &tail);
                true
            }
            // Raced: the lease completed, released, or split since the
            // snapshot above.
            None => false,
        }
    }

    /// One worker's driver loop: claim, run, complete/release, until
    /// the table drains, the campaign cancels, a lease poisons the
    /// job, or this worker dies.
    fn drive_worker(&self, worker_id: &str, addr: &str, run: &Run) {
        // Propagate the campaign's causality id on every request this
        // driver makes (`X-Synapse-Trace`): workers echo it in lease
        // events and batch frames, tying their streams to the trace.
        let link = self
            .transport
            .link(addr, run.recorder.map(TraceRecorder::trace_id));
        loop {
            // Read before anything below is looked at, so that a change
            // after the look cannot be slept through.
            let seen = run.progress.epoch();
            // Completion is point-wise: once every grid index landed
            // (wherever it ran), this driver is done even if some
            // lease is still nominally assigned to a straggler.
            if run.stopped() || run.collector.is_complete() {
                return;
            }
            let metrics = ClusterMetrics::get();
            let claimed = {
                let mut table = run.table.lock().unwrap_or_else(|e| e.into_inner());
                if table.is_complete() {
                    return;
                }
                table
                    .claim(worker_id)
                    .map(|lease| (lease, table.attempts(lease.id)))
            };
            let Some((lease, attempts_now)) = claimed else {
                // Nothing to claim, grid unfinished: every remaining
                // lease is assigned to some other driver. If one of
                // them is straggling, speculatively re-offer its
                // unlanded tail as a fresh lease (claimed on the next
                // iteration — by this idle driver, in practice);
                // otherwise wait for the table or the grid to change.
                if !self.split_straggler_tail(run, worker_id) {
                    run.progress.wait_past(seen, IDLE_POLL);
                }
                continue;
            };
            metrics.leases_assigned.inc();
            if attempts_now > 1 {
                metrics.leases_reassigned.inc();
            }
            let phase = if attempts_now > 1 {
                "reassigned"
            } else {
                "assigned"
            };
            run.record_lease(phase, worker_id, &lease);
            let lease_started = Instant::now();
            let (outcome, alive) = self.run_lease(&*link, &lease, run);
            let backoff = match outcome {
                LeaseRun::Completed => {
                    run.table
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .complete(lease.id);
                    run.progress.bump();
                    metrics.leases_completed.inc();
                    run.record_lease("completed", worker_id, &lease);
                    let secs = lease_started.elapsed().as_secs_f64();
                    let rate = (secs > 0.0).then(|| lease.len() as f64 / secs);
                    self.registry.credit_lease(worker_id, rate);
                    if let Some(rate) = rate {
                        ClusterMetrics::worker_throughput(worker_id).set(rate);
                    }
                    None
                }
                LeaseRun::Stopped => {
                    run.table
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .release(lease.id);
                    run.progress.bump();
                    None
                }
                LeaseRun::Failed(reason) => {
                    let attempts = {
                        let mut table = run.table.lock().unwrap_or_else(|e| e.into_inner());
                        table.release(lease.id);
                        table.attempts(lease.id)
                    };
                    self.registry.record_failure(worker_id);
                    metrics.leases_failed.inc();
                    run.record_lease("failed", worker_id, &lease);
                    if attempts >= MAX_LEASE_ATTEMPTS {
                        let _ = run.fatal.set(format!(
                            "lease {} ({}..{}) failed {attempts} times, last: {reason}",
                            lease.id, lease.start, lease.end
                        ));
                    }
                    run.progress.bump();
                    // Alive but failing (momentarily at its connection
                    // cap, draining for shutdown): back off so a
                    // transient blip cannot burn every attempt in
                    // milliseconds and poison the job.
                    Some(LEASE_BACKOFF_STEP * attempts.min(LEASE_BACKOFF_MAX_STEPS) as u32)
                }
            };
            // Worker death vs. transient failure: the lease run probed
            // it. A dead worker retires this driver; its released
            // lease reassigns to the survivors (or the local fallback).
            if !alive {
                self.registry.mark_dead(worker_id);
                return;
            }
            if let Some(pause) = backoff.filter(|_| !run.stopped()) {
                self.transport.sleep(pause);
            }
        }
    }
}

impl ClusterBackend for Coordinator {
    fn run_distributed(
        &self,
        spec: &CampaignSpec,
        cache: &ResultCache,
        observer: &(dyn Fn(PointEvent) + Sync),
        live: &LiveAggregates,
        recorder: Option<&TraceRecorder>,
        cancel: &CancelToken,
    ) -> Result<CampaignOutcome, CampaignError> {
        let started = Instant::now();
        let total = spec.point_count();
        observer(PointEvent::Started { total });

        let workers = self.registry.live();
        let lease_count = workers.len().max(1) * LEASES_PER_WORKER;
        // Throughput-aware plan: the per-worker rates this coordinator
        // observed on earlier campaigns weight the main lease sizes
        // (largest first); every worker with no history yet gets a
        // small probe lease up front so its first assignment measures
        // it cheaply.
        let weights: Vec<f64> = workers
            .iter()
            .map(|(id, _)| self.registry.rate(id))
            .collect();
        let probes = weights.iter().filter(|w| **w <= 0.0 || w.is_nan()).count();
        let run = Run {
            spec,
            table: Mutex::new(LeaseTable::from_leases(plan_leases(
                total,
                lease_count,
                probes,
                &weights,
            ))),
            collector: Collector::new(total),
            progress: Progress::default(),
            fatal: OnceLock::new(),
            observer,
            recorder,
            cancel,
        };

        if !workers.is_empty() {
            std::thread::scope(|scope| {
                for (worker_id, addr) in &workers {
                    let run = &run;
                    scope.spawn(move || self.drive_worker(worker_id, addr, run));
                }
            });
        }
        let Run {
            table,
            collector,
            fatal,
            ..
        } = run;
        if let Some(reason) = fatal.into_inner() {
            return Err(CampaignError::Cluster(reason));
        }

        // Whatever no remote worker completed (none registered, all
        // died, or stragglers released on cancel) sweeps locally —
        // the coordinator is always its own last worker. Skipped when
        // the collector already has every point: drivers exit the
        // moment the grid is point-complete, which can leave leases
        // nominally assigned even though their ranges are covered.
        let leftover = table
            .into_inner()
            .unwrap_or_else(|e| e.into_inner())
            .drain_incomplete();
        if !leftover.is_empty() && !cancel.is_cancelled() && !collector.is_complete() {
            let config = RunConfig::default();
            let shim = |event: PointEvent| {
                if let PointEvent::PointDone { result, cached, .. } = event {
                    collector.record(result, cached, observer);
                }
            };
            for lease in leftover {
                if cancel.is_cancelled() {
                    break;
                }
                // A split tail (or a replayed lease) may already be
                // fully covered by what other workers delivered.
                if collector.missing_in(lease.start, lease.end) == 0 {
                    continue;
                }
                ClusterMetrics::get().leases_local_fallback.inc();
                if let Some(recorder) = recorder {
                    recorder.record_lease("local", "coordinator", lease.start, lease.end);
                }
                // Materialize only this lease's slice — finishing one
                // straggler lease of a huge grid must cost the lease,
                // not the grid.
                let slice = expand_range(spec, lease.start, lease.end);
                match CampaignEngine::new(&slice, cache, &config).run(&shim, cancel) {
                    Ok(_) | Err(CampaignError::Cancelled { .. }) => {}
                    Err(e) => return Err(e),
                }
            }
            cache.persist()?;
        }

        let (done, cache_hits, simulated) = collector.counts();
        if cancel.is_cancelled() && done < total {
            observer(PointEvent::Cancelled { done, total });
            return Err(CampaignError::Cancelled { done, total });
        }
        if done < total {
            return Err(CampaignError::Cluster(format!(
                "grid incomplete after fan-out: {done}/{total} points"
            )));
        }
        // Stage walls mirror the local pipeline's: fan-out is the
        // sweep, merge + assembly is aggregation, expansion is lazy
        // (per-lease slices) and therefore folded into the sweep.
        let sweep_secs = started.elapsed().as_secs_f64();
        let aggregate_started = Instant::now();
        let results = collector.into_results()?;
        let report = CampaignReport::assemble_from_view(spec, &results, live)?;
        let stats = RunStats {
            points: total,
            simulated,
            cache_hits,
            wall_secs: started.elapsed().as_secs_f64(),
            expand_secs: 0.0,
            sweep_secs,
            aggregate_secs: aggregate_started.elapsed().as_secs_f64(),
        };
        observer(PointEvent::Finished { stats });
        Ok(CampaignOutcome { report, stats })
    }

    fn register_worker(&self, addr: &str) -> serde_json::Value {
        self.registry.register(addr)
    }

    fn deregister_worker(&self, id: &str) -> Option<serde_json::Value> {
        self.registry.deregister(id)
    }

    fn heartbeat(&self, id: &str) -> Option<serde_json::Value> {
        self.registry.heartbeat(id)
    }

    fn status(&self) -> serde_json::Value {
        // The status probe doubles as the pull-side heartbeat: every
        // `synapse cluster status` refreshes liveness for real.
        self.registry
            .status_json(|addr| Self::probe(&*self.transport.link(addr, None)))
    }
}
