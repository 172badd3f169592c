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
//! are sized proportionally to the per-worker rates observed on
//! earlier campaigns (the `worker_points_per_sec` gauges), largest
//! first. The claim loop is work-stealing: fast workers naturally
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
//! The collector hands each grid index to the job observer exactly
//! once, whichever worker (or the local fallback) delivered it. That
//! observer also feeds the job's live aggregates, so the coordinator
//! keeps no aggregation state of its own.

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

use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use serde_json::Value;
use synapse_campaign::{
    expand_range, plan_leases, CampaignEngine, CampaignError, CampaignOutcome, CampaignReport,
    CampaignSpec, CancelToken, Lease, LeaseTable, PointEvent, ResultCache, RunConfig, RunStats,
};
use synapse_server::{Client, ClusterBackend};
use synapse_trace::TraceRecorder;

use crate::merge::Collector;
use crate::metrics::ClusterMetrics;
use crate::protocol::{self, WorkerEvent};
use crate::registry::WorkerRegistry;

/// Coordinator tuning knobs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Silence threshold on a worker's lease stream before the worker
    /// is presumed dead and the lease reassigned. Workers heartbeat
    /// every [`synapse_server::HEARTBEAT_EVERY`], so the default (two
    /// missed heartbeats) detects a frozen or partitioned worker in
    /// ~20 s instead of hanging on a flat socket timeout.
    pub stream_silence: Duration,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            stream_silence: synapse_server::STREAM_SILENCE_TIMEOUT,
        }
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
    config: ClusterConfig,
    registry: WorkerRegistry,
}

/// How one lease run on one worker ended.
enum LeaseRun {
    /// Every point of the lease arrived (or the grid finished while
    /// it streamed); lease is done.
    Completed,
    /// The campaign's cancel token fired mid-lease; stop driving.
    Stopped,
    /// Transport broke or the worker reported failure; retry
    /// elsewhere.
    Failed(String),
}

impl Coordinator {
    /// A coordinator with an empty worker registry.
    pub fn new(config: ClusterConfig) -> Coordinator {
        Coordinator {
            config,
            registry: WorkerRegistry::new(),
        }
    }

    /// The worker registry (registration happens through the server's
    /// `/cluster/workers` endpoint or directly here).
    pub fn registry(&self) -> &WorkerRegistry {
        &self.registry
    }

    /// Drive one lease on one worker, feeding points into the
    /// collector as they stream in.
    #[allow(
        clippy::too_many_arguments,
        reason = "one lease's run needs the campaign's shared state, borrowed from run_distributed's frame"
    )]
    fn run_lease(
        &self,
        client: &Client,
        spec: &CampaignSpec,
        lease: &Lease,
        collector: &Collector,
        progress: &Progress,
        observer: &(dyn Fn(PointEvent) + Sync),
        cancel: &CancelToken,
    ) -> LeaseRun {
        let body = protocol::lease_request_json(spec, lease);
        let reply = match client.submit_lease(&body) {
            Ok(reply) => reply,
            Err(e) => return LeaseRun::Failed(format!("lease submit: {e}")),
        };
        let Some(id) = reply.get("id").and_then(Value::as_str).map(str::to_string) else {
            return LeaseRun::Failed("lease submit reply carries no job id".into());
        };
        let mut worker_error: Option<String> = None;
        // Keepalive delivery matters: a lease queued behind a busy
        // worker emits only heartbeats, and the cancel check below
        // must still run on each one.
        let watched = client.watch_with_keepalive(&id, |line| {
            if cancel.is_cancelled() {
                return false; // hang up; the job is cancelled below
            }
            match protocol::parse_event(line) {
                Some(WorkerEvent::Batch(points)) => {
                    ClusterMetrics::get()
                        .batch_points
                        .observe(points.len() as f64);
                    collector.record_batch(points, observer);
                    // Split tails overlap their parent lease, so the
                    // grid can finish while this stream is mid-lease;
                    // hang up instead of waiting out the straggler.
                    if collector.is_complete() {
                        progress.bump();
                        return false;
                    }
                }
                Some(WorkerEvent::Malformed { reason }) => {
                    // The frame may have carried results; merging past
                    // it could leave holes. Fail the lease and re-run.
                    worker_error = Some(format!("malformed batch frame: {reason}"));
                    return false;
                }
                Some(WorkerEvent::Failed { error }) => worker_error = Some(error),
                Some(WorkerEvent::Truncated { dropped }) => {
                    // Should be impossible (lease rings are unbounded)
                    // but dropped lines were results: abort and re-run
                    // the lease rather than silently losing points.
                    worker_error = Some(format!("lease stream truncated ({dropped} lines lost)"));
                    return false;
                }
                _ => {}
            }
            true
        });
        if cancel.is_cancelled() {
            // Points already collected stay collected; stop the
            // worker-side sweep cooperatively.
            let _ = client.cancel(&id);
            return LeaseRun::Stopped;
        }
        if collector.is_complete() {
            // Every grid point landed (this lease's tail may have
            // finished on another worker). Stop the worker-side sweep
            // if it is still running and count the lease done — its
            // range is covered.
            let _ = client.cancel(&id);
            return LeaseRun::Completed;
        }
        if let Some(error) = worker_error {
            return LeaseRun::Failed(error);
        }
        match watched {
            Ok(summary) if summary.get("event").and_then(Value::as_str) == Some("completed") => {
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
    }

    /// Pick the assigned lease with the most unlanded points and
    /// re-offer that tail as a brand-new available lease. Returns
    /// whether a split happened. The tail *overlaps* the straggler's
    /// range — its owner keeps streaming — and the collector's
    /// first-arrival-wins merge resolves the race; each lease splits
    /// at most once, and tails below [`MIN_SPLIT_POINTS`] are left
    /// alone, so speculation is bounded.
    fn split_straggler_tail(
        &self,
        table: &Mutex<LeaseTable>,
        collector: &Collector,
        progress: &Progress,
        worker_id: &str,
        recorder: Option<&TraceRecorder>,
    ) -> bool {
        let candidates = table
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .split_candidates();
        let mut best: Option<(Lease, usize)> = None;
        for lease in candidates {
            let missing = collector.missing_in(lease.start, lease.end);
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
        let mut table = table.lock().unwrap_or_else(|e| e.into_inner());
        match table.split_tail(lease.id, mid) {
            Some(_) => {
                progress.bump();
                ClusterMetrics::get().leases_split.inc();
                if let Some(recorder) = recorder {
                    recorder.record_lease("split", worker_id, mid, lease.end);
                }
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
    #[allow(
        clippy::too_many_arguments,
        reason = "one worker's loop needs the campaign's shared state, borrowed from run_distributed's frame"
    )]
    fn drive_worker(
        &self,
        worker_id: &str,
        addr: &str,
        spec: &CampaignSpec,
        table: &Mutex<LeaseTable>,
        collector: &Collector,
        progress: &Progress,
        fatal: &Mutex<Option<String>>,
        observer: &(dyn Fn(PointEvent) + Sync),
        recorder: Option<&TraceRecorder>,
        cancel: &CancelToken,
    ) {
        // Both timeouts bounded by the silence threshold (probe cap
        // 5 s): a frozen worker whose kernel still accepts connections
        // must fail the post-disconnect liveness probe promptly, or
        // the local-fallback sweep waits a whole socket timeout.
        let mut client = Client::new(addr.to_string())
            .with_stream_silence(self.config.stream_silence)
            .with_socket_timeout(self.config.stream_silence.min(Duration::from_secs(5)));
        // Propagate the campaign's causality id on every request this
        // driver makes (`X-Synapse-Trace`): workers echo it in lease
        // events and batch frames, tying their streams to the trace.
        if let Some(recorder) = recorder {
            client = client.with_trace(recorder.trace_id());
        }
        loop {
            // Read before anything below is looked at, so that a change
            // after the look cannot be slept through.
            let seen = progress.epoch();
            if cancel.is_cancelled() || fatal.lock().unwrap_or_else(|e| e.into_inner()).is_some() {
                return;
            }
            // Completion is point-wise: once every grid index landed
            // (wherever it ran), this driver is done even if some
            // lease is still nominally assigned to a straggler.
            if collector.is_complete() {
                return;
            }
            let metrics = ClusterMetrics::get();
            let claimed = {
                let mut table = table.lock().unwrap_or_else(|e| e.into_inner());
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
                if !self.split_straggler_tail(table, collector, progress, worker_id, recorder) {
                    progress.wait_past(seen, IDLE_POLL);
                }
                continue;
            };
            metrics.leases_assigned.inc();
            if attempts_now > 1 {
                metrics.leases_reassigned.inc();
            }
            if let Some(recorder) = recorder {
                let phase = if attempts_now > 1 {
                    "reassigned"
                } else {
                    "assigned"
                };
                recorder.record_lease(phase, worker_id, lease.start, lease.end);
            }
            let lease_started = Instant::now();
            match self.run_lease(&client, spec, &lease, collector, progress, observer, cancel) {
                LeaseRun::Completed => {
                    table
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .complete(lease.id);
                    progress.bump();
                    self.registry.credit_lease(worker_id);
                    metrics.leases_completed.inc();
                    if let Some(recorder) = recorder {
                        recorder.record_lease("completed", worker_id, lease.start, lease.end);
                    }
                    let secs = lease_started.elapsed().as_secs_f64();
                    if secs > 0.0 {
                        ClusterMetrics::worker_throughput(worker_id)
                            .set((lease.end - lease.start) as f64 / secs);
                    }
                }
                LeaseRun::Stopped => {
                    table
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .release(lease.id);
                    progress.bump();
                    return;
                }
                LeaseRun::Failed(reason) => {
                    let attempts = {
                        let mut table = table.lock().unwrap_or_else(|e| e.into_inner());
                        table.release(lease.id);
                        table.attempts(lease.id)
                    };
                    progress.bump();
                    self.registry.record_failure(worker_id);
                    metrics.leases_failed.inc();
                    if let Some(recorder) = recorder {
                        recorder.record_lease("failed", worker_id, lease.start, lease.end);
                    }
                    if attempts >= MAX_LEASE_ATTEMPTS {
                        *fatal.lock().unwrap_or_else(|e| e.into_inner()) = Some(format!(
                            "lease {} ({}..{}) failed {attempts} times, last: {reason}",
                            lease.id, lease.start, lease.end
                        ));
                        return;
                    }
                    // Worker death vs. transient failure: probe. A dead
                    // worker retires this driver; its released lease
                    // reassigns to the survivors (or the local
                    // fallback).
                    let probe_started = Instant::now();
                    let probe = client.healthz();
                    metrics.probe_seconds.observe_since(probe_started);
                    if probe.is_err() {
                        self.registry.mark_dead(worker_id);
                        return;
                    }
                    // Alive but failing (momentarily at its connection
                    // cap, draining for shutdown): back off so a
                    // transient blip cannot burn every attempt in
                    // milliseconds and poison the job.
                    std::thread::sleep(
                        LEASE_BACKOFF_STEP * attempts.min(LEASE_BACKOFF_MAX_STEPS) as u32,
                    );
                }
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
        recorder: Option<&TraceRecorder>,
        cancel: &CancelToken,
    ) -> Result<CampaignOutcome, CampaignError> {
        let started = Instant::now();
        let total = spec.point_count();
        observer(PointEvent::Started { total });

        let workers = self.registry.live();
        let lease_count = workers.len().max(1) * LEASES_PER_WORKER;
        // Throughput-aware plan: per-worker rates observed on earlier
        // campaigns weight the main lease sizes (largest first); every
        // worker with no history yet gets a small probe lease up front
        // so its first assignment measures it cheaply.
        let weights: Vec<f64> = workers
            .iter()
            .map(|(id, _)| ClusterMetrics::worker_throughput(id).get())
            .collect();
        let probes = weights.iter().filter(|w| **w <= 0.0 || w.is_nan()).count();
        let table = Mutex::new(LeaseTable::from_leases(plan_leases(
            total,
            lease_count,
            probes,
            &weights,
        )));
        let collector = Collector::new(total);
        let fatal: Mutex<Option<String>> = Mutex::new(None);
        let progress = Progress::default();

        if !workers.is_empty() {
            std::thread::scope(|scope| {
                for (worker_id, addr) in &workers {
                    let (table, collector, progress, fatal) =
                        (&table, &collector, &progress, &fatal);
                    scope.spawn(move || {
                        self.drive_worker(
                            worker_id, addr, spec, table, collector, progress, fatal, observer,
                            recorder, cancel,
                        )
                    });
                }
            });
        }
        if let Some(reason) = fatal.into_inner().unwrap_or_else(|e| e.into_inner()) {
            return Err(CampaignError::Cluster(reason));
        }

        // Whatever no remote worker completed (none registered, all
        // died, or stragglers released on cancel) sweeps locally —
        // the coordinator is always its own last worker. Skipped when
        // the collector already has every point: drivers exit the
        // moment the grid is point-complete, which can leave leases
        // nominally assigned even though their ranges are covered.
        let leftover = table
            .lock()
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
        let report = CampaignReport::assemble(spec, &results)?;
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
        self.registry.status_json(|addr| {
            let started = Instant::now();
            let alive = Client::new(addr.to_string()).healthz().is_ok();
            ClusterMetrics::get().probe_seconds.observe_since(started);
            alive
        })
    }
}
