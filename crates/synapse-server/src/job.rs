//! One submitted campaign: state machine, progress counters and the
//! buffered NDJSON event log its streams replay.
//!
//! Events are serialized once (by the worker that produced them) into
//! a bounded ring; any number of concurrent stream readers replay the
//! retained buffer from the top and then follow the reactor's wakeups
//! for more.
//! That makes `GET /campaigns/<id>/events` joinable at any time — a
//! client attaching mid-sweep first drains history, then follows live
//! — and means a slow client never stalls the sweep (the workers never
//! wait on a socket). The ring holds at most the configured event cap:
//! a 55k-point grid cannot grow an unbounded replay buffer; readers
//! that fall behind (or attach late) receive a synthesized `truncated`
//! event counting the dropped lines, then the retained tail.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use serde::{Deserialize, Serialize};
use std::sync::OnceLock;
use synapse_campaign::{CampaignReport, CampaignSpec, CancelToken, LiveAggregates, RunStats};
use synapse_trace::TraceRecorder;

/// Wire form of `POST /leases`: sweep grid indices `start..end` of the
/// expanded `spec` on this worker, streaming full per-point results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeaseRequest {
    /// The full (already-validated, canonical) campaign spec; the
    /// worker re-validates after the network hop.
    pub spec: CampaignSpec,
    /// First grid index of the lease (inclusive).
    pub start: usize,
    /// One past the last grid index (exclusive).
    pub end: usize,
}

/// Reader's view of one lease-stream `batch` frame (written by
/// [`lease_batch_line`](crate::lease_batch_line), laid out in
/// `docs/PROTOCOL.md`). Deriving it is what lets a coordinator decode
/// a frame straight into results, with no document tree in between.
/// The header fields are optional here so that the consumer, not the
/// codec, words what a frame without them is missing; keys this
/// version does not know (`trace`, anything newer) are skipped.
#[derive(Debug, Deserialize)]
pub struct BatchFrame {
    /// `"batch"` for a batch frame.
    pub event: String,
    /// Frame layout version ([`BATCH_FRAME_VERSION`](crate::BATCH_FRAME_VERSION)).
    pub v: Option<u64>,
    /// Declared number of points.
    pub n: Option<u64>,
    /// Declared byte length of the `points` array text.
    pub len: Option<u64>,
    /// The landed points.
    pub points: Option<Vec<BatchEntry>>,
}

/// One point of a [`BatchFrame`].
#[derive(Debug, Deserialize)]
pub struct BatchEntry {
    /// Whether the worker's cache satisfied the point.
    pub cached: bool,
    /// The full result.
    pub result: synapse_campaign::PointResult,
}

/// How a submitted job executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// A full-grid sweep in this process (the classic `POST
    /// /campaigns` path): report assembled at the end.
    Sweep,
    /// A lease: sweep only grid indices `start..end` on behalf of a
    /// cluster coordinator. Point events carry the full serialized
    /// [`synapse_campaign::PointResult`] so the coordinator can merge
    /// a byte-stable report; no local report is assembled.
    Lease {
        /// First grid index (inclusive).
        start: usize,
        /// One past the last grid index (exclusive).
        end: usize,
    },
    /// A distributed campaign: this process coordinates, fanning
    /// leases out to registered workers and merging their streams.
    Distributed,
}

/// Bounded NDJSON event ring with an absolute-position cursor space.
struct EventLog {
    /// Retained lines; `lines[0]` is absolute position `base`.
    lines: VecDeque<String>,
    /// Absolute position of the first retained line (= total dropped).
    base: usize,
    /// Retention cap.
    cap: usize,
    /// Lines pushed since the hook last fired (wake batching).
    unflushed: usize,
    /// When the hook last fired (wake-latency bound).
    last_hook: std::time::Instant,
}

/// Fire the event hook at most every `HOOK_BATCH` pushed lines…
///
/// A fast sweep emits tens of thousands of events per second; waking
/// the reactor for every one makes the scheduler ping-pong between
/// the sweep thread and the reactor on every point. Batching the
/// wakes lets the ring absorb a burst and the reactor drain it in one
/// pump.
const HOOK_BATCH: usize = 16;

/// …or whenever this much time passed since the last fire, so a slow
/// sweep's points still reach watchers promptly (the reactor's own
/// tick bounds the worst case for a sweep that stops mid-batch).
const HOOK_LATENCY: Duration = Duration::from_millis(25);

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a queue worker.
    Queued,
    /// A queue worker is sweeping the grid.
    Running,
    /// Every point landed; report available.
    Completed,
    /// Cancelled before the grid drained.
    Cancelled,
    /// The sweep errored.
    Failed,
}

impl JobState {
    /// Status string used across the HTTP API.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
        }
    }

    /// Whether the job will never produce further events.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Cancelled | JobState::Failed
        )
    }
}

/// Mutable progress snapshot (behind the job's lock).
#[derive(Debug, Clone)]
pub struct Progress {
    /// Current lifecycle state.
    pub state: JobState,
    /// Points landed so far.
    pub done: usize,
    /// Of those, served from the shared result cache.
    pub cache_hits: usize,
    /// Final run stats (set on completion).
    pub stats: Option<RunStats>,
    /// Failure message (set on error).
    pub error: Option<String>,
}

/// Which of a job's two event rings to read.
///
/// Every job feeds two bounded rings from the same publication path:
/// the **raw** ring carries everything (per-point events included);
/// the **aggregates** ring carries only the shared lines — lifecycle
/// transitions and `snapshot` aggregate deltas — so an
/// aggregate-mode watcher's stream stays O(slices · snapshots), never
/// O(points).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventRing {
    /// All events, per-point stream included.
    Raw,
    /// Lifecycle + snapshot deltas only.
    Aggregates,
}

/// Where snapshot-delta emission for a job stands: the aggregate
/// version covered by the last emitted snapshot, and when it was
/// emitted (the server's hybrid count+time cadence reads both).
pub struct SnapshotCursor {
    /// [`LiveAggregates::version`] already covered by emissions.
    pub version: u64,
    /// Points done at the last emission.
    pub done: usize,
    /// Instant of the last emission.
    pub emitted_at: std::time::Instant,
}

/// Out-of-band notification that a job published (or closed) events —
/// how the reactor learns to pump its streams without a thread parked
/// per job. Calls coalesce at the receiver (an eventfd
/// counter), so per-point invocation stays cheap.
pub type EventHook = dyn Fn() + Send + Sync;

/// One submitted campaign.
pub struct Job {
    /// Job id (monotonic per server process).
    pub id: u64,
    /// The validated spec as submitted.
    pub spec: CampaignSpec,
    /// Grid size (for leases: the lease's own point count).
    pub total: usize,
    /// Worker threads the sweep runs with.
    pub workers: usize,
    /// How this job executes.
    pub kind: JobKind,
    /// Cooperative cancellation flag (`DELETE /campaigns/<id>`).
    pub cancel: CancelToken,
    progress: Mutex<Progress>,
    /// Deterministic report of a completed job.
    report: Mutex<Option<CampaignReport>>,
    /// Incremental per-(axis, metric) aggregates, shared by every
    /// watcher, snapshot emission and `GET /campaigns/<id>/aggregates`.
    live: Arc<LiveAggregates>,
    /// Snapshot-delta emission state (see [`SnapshotCursor`]).
    snapshot: Mutex<SnapshotCursor>,
    /// Bounded ring of serialized NDJSON lines, in emission order.
    events: Mutex<EventLog>,
    /// Lifecycle + snapshot lines only (see [`EventRing`]).
    aggregate_events: Mutex<EventLog>,
    /// Cheap terminal check for streamers (avoids taking the progress
    /// lock per poll).
    done_events: AtomicUsize,
    /// Reactor wakeup.
    hook: Option<Arc<EventHook>>,
    /// Flight recorder capturing this job's causal stream
    /// (`POST /campaigns?record=1`). Attached before the job is queued,
    /// so the sweep observer and the recorder see the same events.
    recorder: OnceLock<Arc<TraceRecorder>>,
    /// Rendered trace document of a finished recorded job, served by
    /// `GET /campaigns/<id>/trace`.
    trace_doc: OnceLock<String>,
    /// Causality id a cluster coordinator sent in `X-Synapse-Trace`
    /// (lease jobs only), echoed in this job's lease events and batch
    /// frames so merged streams stay attributable.
    lease_trace: OnceLock<String>,
}

/// Sentinel for "no more events will ever arrive".
const EVENTS_CLOSED: usize = usize::MAX;

impl Job {
    /// A freshly-accepted job in the queued state, retaining at most
    /// `event_cap` NDJSON lines for replay (0 ⇒ unbounded).
    pub fn new(
        id: u64,
        spec: CampaignSpec,
        total: usize,
        workers: usize,
        kind: JobKind,
        event_cap: usize,
    ) -> Job {
        Job::with_hook(id, spec, total, workers, kind, event_cap, None)
    }

    /// [`Job::new`], plus an [`EventHook`] fired on every publish and
    /// on close (the server wires the reactor's waker in here).
    #[allow(
        clippy::too_many_arguments,
        reason = "the job's fixed fields plus its hook; Job::new is the short form"
    )]
    pub fn with_hook(
        id: u64,
        spec: CampaignSpec,
        total: usize,
        workers: usize,
        kind: JobKind,
        event_cap: usize,
        hook: Option<Arc<EventHook>>,
    ) -> Job {
        let ring = || {
            Mutex::new(EventLog {
                lines: VecDeque::new(),
                base: 0,
                cap: if event_cap == 0 {
                    usize::MAX
                } else {
                    event_cap
                },
                unflushed: 0,
                last_hook: std::time::Instant::now(),
            })
        };
        Job {
            id,
            spec,
            total,
            workers,
            kind,
            cancel: CancelToken::new(),
            progress: Mutex::new(Progress {
                state: JobState::Queued,
                done: 0,
                cache_hits: 0,
                stats: None,
                error: None,
            }),
            report: Mutex::new(None),
            live: Arc::new(LiveAggregates::new()),
            snapshot: Mutex::new(SnapshotCursor {
                version: 0,
                done: 0,
                emitted_at: std::time::Instant::now(),
            }),
            events: ring(),
            aggregate_events: ring(),
            done_events: AtomicUsize::new(0),
            hook,
            recorder: OnceLock::new(),
            trace_doc: OnceLock::new(),
            lease_trace: OnceLock::new(),
        }
    }

    /// Attach a flight recorder (once, before the job is queued).
    pub fn attach_recorder(&self, recorder: Arc<TraceRecorder>) {
        let _ = self.recorder.set(recorder);
    }

    /// The attached flight recorder, if the job was submitted with
    /// `?record=1`.
    pub fn recorder(&self) -> Option<&Arc<TraceRecorder>> {
        self.recorder.get()
    }

    /// Seal a recorded job's trace: render the document from whatever
    /// was captured (completed, cancelled and failed runs all leave a
    /// coherent trace). Every path that ends a job calls it before
    /// the job's state turns terminal, so a client that sees the job
    /// end can fetch the trace at once. Idempotent — the first render
    /// wins, matching the determinism contract.
    pub fn seal_trace(&self) {
        if let Some(recorder) = self.recorder() {
            if self.trace_doc.get().is_none() {
                let _ = self.trace_doc.set(recorder.render());
            }
        }
    }

    /// The finished job's rendered trace, if it was recorded.
    pub fn trace_doc(&self) -> Option<&str> {
        self.trace_doc.get().map(String::as_str)
    }

    /// Remember the coordinator's `X-Synapse-Trace` causality id (once,
    /// before the lease job is queued).
    pub fn set_lease_trace(&self, trace_id: String) {
        let _ = self.lease_trace.set(trace_id);
    }

    /// The causality id this lease's events should echo, if any.
    pub fn lease_trace(&self) -> Option<&str> {
        self.lease_trace.get().map(String::as_str)
    }

    /// The id in its API form (`j<id>`).
    pub fn public_id(&self) -> String {
        format!("j{}", self.id)
    }

    /// Run a closure over the locked progress (read or mutate).
    pub fn with_progress<T>(&self, f: impl FnOnce(&mut Progress) -> T) -> T {
        f(&mut self.progress.lock().expect("progress lock"))
    }

    /// Current lifecycle state.
    pub fn state(&self) -> JobState {
        self.with_progress(|p| p.state)
    }

    /// Store the completed job's deterministic report.
    pub fn set_report(&self, report: CampaignReport) {
        *self.report.lock().expect("report lock") = Some(report);
    }

    /// The completed job's report, if any.
    pub fn report_json(&self) -> Option<String> {
        self.report
            .lock()
            .expect("report lock")
            .as_ref()
            .and_then(|r| r.to_json().ok())
    }

    /// The job's shared live-aggregate view.
    pub fn live(&self) -> &Arc<LiveAggregates> {
        &self.live
    }

    /// Run a closure over the locked snapshot-emission cursor (the
    /// server's cadence check reads and advances it atomically).
    pub fn with_snapshot_cursor<T>(&self, f: impl FnOnce(&mut SnapshotCursor) -> T) -> T {
        f(&mut self.snapshot.lock().expect("snapshot cursor lock"))
    }

    /// Push one line onto one ring; returns whether the hook should
    /// fire (batching state is per ring).
    fn push_line(&self, ring: &Mutex<EventLog>, line: String) -> bool {
        let mut events = ring.lock().expect("events lock");
        if events.lines.len() >= events.cap {
            events.lines.pop_front();
            events.base += 1;
            crate::metrics::ServerMetrics::get()
                .ring_truncated_lines
                .inc();
        }
        events.lines.push_back(line);
        events.unflushed += 1;
        let fire = events.unflushed >= HOOK_BATCH || events.last_hook.elapsed() >= HOOK_LATENCY;
        if fire {
            events.unflushed = 0;
            events.last_hook = std::time::Instant::now();
        }
        fire
    }

    /// Append one NDJSON event line and wake streamers. When the ring
    /// is at capacity the oldest line falls off (its absolute position
    /// survives in `base`, so late readers learn how much they missed).
    pub fn push_event(&self, line: String) {
        if self.push_line(&self.events, line) {
            if let Some(hook) = &self.hook {
                hook();
            }
        }
    }

    /// Append one NDJSON line to *both* rings — lifecycle transitions
    /// and snapshot deltas, the lines aggregate-mode watchers see too.
    pub fn push_shared_event(&self, line: String) {
        let fire_raw = self.push_line(&self.events, line.clone());
        let fire_agg = self.push_line(&self.aggregate_events, line);
        if fire_raw || fire_agg {
            if let Some(hook) = &self.hook {
                hook();
            }
        }
    }

    /// Mark the event stream closed (terminal state reached) and wake
    /// streamers so they can drain and hang up.
    pub fn close_events(&self) {
        {
            let _events = self.events.lock().expect("events lock");
            self.done_events.store(EVENTS_CLOSED, Ordering::Release);
        }
        if let Some(hook) = &self.hook {
            hook();
        }
    }

    /// Whether the stream is closed (no further events will arrive).
    pub fn events_closed(&self) -> bool {
        self.done_events.load(Ordering::Acquire) == EVENTS_CLOSED
    }

    /// Settle a still-queued job as cancelled: flip the token, move
    /// `Queued → Cancelled`, emit the terminal event and close the
    /// stream. Returns whether this call did the settling (false when
    /// the job already ran, is running, or was settled before — the
    /// running path emits its own terminal event). One helper so the
    /// three callers (DELETE, submit-during-shutdown, the shutdown
    /// sweep) can never diverge on the settle protocol.
    pub fn settle_if_queued(&self) -> bool {
        self.cancel.cancel();
        let settled = self.with_progress(|p| {
            if p.state == JobState::Queued {
                self.seal_trace();
                p.state = JobState::Cancelled;
                true
            } else {
                false
            }
        });
        if settled {
            let event = serde_json::json!({
                "event": "cancelled",
                "id": self.public_id(),
                "done": 0,
                "total": self.total,
            });
            self.push_shared_event(serde_json::to_string(&event).expect("event serializes"));
            self.close_events();
        }
        settled
    }

    /// Append the lines one ring retains at absolute positions
    /// `[from..]` (newline-terminated) straight into a caller buffer,
    /// up to `max_bytes` of appended payload. The reactor's stream pump
    /// runs this per wake batch; the aggregates ring serves
    /// `GET /campaigns/<id>/events?aggregates=1` watchers. Returns
    /// `(next_cursor, appended_any, closed)` — after draining, the
    /// reader may hang up once a call returns empty+closed.
    ///
    /// A reader whose cursor fell behind the ring's retention (late
    /// attach to a huge sweep, or a stalled consumer) first receives a
    /// synthesized `truncated` event counting the dropped lines, then
    /// the retained tail — the stream stays well-formed NDJSON.
    pub fn ring_events_into(
        &self,
        ring: EventRing,
        from: usize,
        out: &mut Vec<u8>,
        max_bytes: usize,
    ) -> (usize, bool, bool) {
        use std::fmt::Write as _;
        let ring = match ring {
            EventRing::Raw => &self.events,
            EventRing::Aggregates => &self.aggregate_events,
        };
        let events = ring.lock().expect("events lock");
        let start = out.len();
        let mut from = from;
        if from < events.base {
            let mut marker = String::with_capacity(48);
            let _ = write!(
                marker,
                "{{\"event\":\"truncated\",\"dropped\":{}}}",
                events.base - from
            );
            out.extend_from_slice(marker.as_bytes());
            out.push(b'\n');
            from = events.base;
        }
        let mut next = from;
        for line in events.lines.iter().skip(from - events.base) {
            if out.len() - start >= max_bytes {
                break;
            }
            out.extend_from_slice(line.as_bytes());
            out.push(b'\n');
            next += 1;
        }
        (next, out.len() > start, self.events_closed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CampaignSpec {
        CampaignSpec::from_toml(
            r#"
            name = "job"
            machines = ["thinkie"]
            kernels = ["asm"]

            [[workloads]]
            app = "gromacs"
            steps = [1000]
            "#,
        )
        .unwrap()
    }

    /// Poll the raw ring from `from`: `(next_cursor, lines, closed)`.
    fn read_raw(job: &Job, from: usize) -> (usize, Vec<String>, bool) {
        let mut raw = Vec::new();
        let (next, _, closed) = job.ring_events_into(EventRing::Raw, from, &mut raw, usize::MAX);
        let text = String::from_utf8(raw).expect("ring lines are UTF-8");
        (next, text.lines().map(str::to_string).collect(), closed)
    }

    #[test]
    fn state_names_and_terminality() {
        assert_eq!(JobState::Queued.name(), "queued");
        assert!(!JobState::Queued.is_terminal());
        assert!(!JobState::Running.is_terminal());
        assert!(JobState::Completed.is_terminal());
        assert!(JobState::Cancelled.is_terminal());
        assert!(JobState::Failed.is_terminal());
    }

    #[test]
    fn events_replay_then_follow_then_close() {
        let job = Job::new(7, spec(), 1, 1, JobKind::Sweep, 0);
        assert_eq!(job.public_id(), "j7");
        job.push_event("{\"event\":\"a\"}".into());
        job.push_event("{\"event\":\"b\"}".into());
        // Replay from the top.
        let (next, lines, closed) = read_raw(&job, 0);
        assert_eq!(lines.len(), 2);
        assert_eq!(next, 2);
        assert!(!closed);
        // Nothing new: polls empty.
        let (next, lines, closed) = read_raw(&job, 2);
        assert!(lines.is_empty());
        assert_eq!(next, 2);
        assert!(!closed);
        // Close: reader drains and sees the closed flag.
        job.close_events();
        let (_, lines, closed) = read_raw(&job, 2);
        assert!(lines.is_empty());
        assert!(closed);
    }

    #[test]
    fn bounded_ring_drops_oldest_and_synthesizes_truncation() {
        let job = Job::new(2, spec(), 1, 1, JobKind::Sweep, 3);
        for i in 0..8 {
            job.push_event(format!("{{\"n\":{i}}}"));
        }
        // Only the 3 newest lines are retained; a reader starting from
        // 0 learns exactly how many it missed.
        let (next, lines, _) = read_raw(&job, 0);
        assert_eq!(
            lines[0], "{\"event\":\"truncated\",\"dropped\":5}",
            "{lines:?}"
        );
        assert_eq!(&lines[1..], &["{\"n\":5}", "{\"n\":6}", "{\"n\":7}"]);
        assert_eq!(next, 8);
        // A caught-up reader sees no marker.
        let (_, lines, _) = read_raw(&job, 6);
        assert_eq!(lines, vec!["{\"n\":6}".to_string(), "{\"n\":7}".into()]);
        // A reader mid-ring gets only the partial drop count.
        let (_, lines, _) = read_raw(&job, 4);
        assert_eq!(lines[0], "{\"event\":\"truncated\",\"dropped\":1}");
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn truncation_marker_counts_drops_relative_to_the_cursor() {
        // 8 events through a 3-line ring: positions 0..5 are the
        // truncated gap, 5..8 the retained tail.
        let job = Job::new(9, spec(), 1, 1, JobKind::Sweep, 3);
        for i in 0..8 {
            job.push_event(format!("{{\"n\":{i}}}"));
        }
        // Cursor at the gap start (position 0): every dropped line is
        // counted for THIS cursor.
        let (next, lines, _) = read_raw(&job, 0);
        assert_eq!(lines[0], "{\"event\":\"truncated\",\"dropped\":5}");
        assert_eq!(next, 8);
        // Cursor mid-gap (position 3): only the lines this reader
        // actually missed — not the count from the ring's own start.
        let (next, lines, _) = read_raw(&job, 3);
        assert_eq!(
            lines[0], "{\"event\":\"truncated\",\"dropped\":2}",
            "mid-gap cursor counts 3..5, not 0..5"
        );
        assert_eq!(&lines[1..], &["{\"n\":5}", "{\"n\":6}", "{\"n\":7}"]);
        assert_eq!(next, 8);
        // Cursor exactly at the ring head (position 5 = first retained
        // line): nothing was missed, no marker is synthesized.
        let (next, lines, _) = read_raw(&job, 5);
        assert_eq!(lines, vec!["{\"n\":5}", "{\"n\":6}", "{\"n\":7}"]);
        assert_eq!(next, 8);
    }

    #[test]
    fn truncation_marker_is_emitted_exactly_once_per_gap() {
        let job = Job::new(10, spec(), 1, 1, JobKind::Sweep, 2);
        for i in 0..5 {
            job.push_event(format!("{{\"n\":{i}}}"));
        }
        // First read from a stale cursor: one marker, cursor advances
        // past the gap.
        let (next, lines, _) = read_raw(&job, 1);
        assert_eq!(lines[0], "{\"event\":\"truncated\",\"dropped\":2}");
        assert_eq!(next, 5);
        // Resuming from the returned cursor never replays the marker.
        let (next2, lines, _) = read_raw(&job, next);
        assert!(lines.is_empty(), "{lines:?}");
        assert_eq!(next2, 5);
        // A *new* gap (the ring rolled again past this cursor) is a
        // new marker — counted from this cursor, exactly once.
        for i in 5..9 {
            job.push_event(format!("{{\"n\":{i}}}"));
        }
        let (next3, lines, _) = read_raw(&job, next2);
        assert_eq!(lines[0], "{\"event\":\"truncated\",\"dropped\":2}");
        assert_eq!(&lines[1..], &["{\"n\":7}", "{\"n\":8}"]);
        assert_eq!(next3, 9);
        let (_, lines, _) = read_raw(&job, next3);
        assert!(lines.is_empty(), "exactly once: {lines:?}");
    }

    #[test]
    fn event_hook_batches_pushes_and_always_fires_on_close() {
        let fired = Arc::new(AtomicUsize::new(0));
        let hook = {
            let fired = fired.clone();
            Arc::new(move || {
                fired.fetch_add(1, Ordering::SeqCst);
            }) as Arc<EventHook>
        };
        let job = Job::with_hook(11, spec(), 1, 1, JobKind::Sweep, 0, Some(hook));
        // A burst wakes the hook per batch, not per event (the
        // latency-bound fallback may add at most a couple more).
        for i in 0..(4 * HOOK_BATCH) {
            job.push_event(format!("{{\"n\":{i}}}"));
        }
        let after_burst = fired.load(Ordering::SeqCst);
        assert!(
            (4..=8).contains(&after_burst),
            "4 batches of {HOOK_BATCH} → ~4 wakes, not {}: {after_burst}",
            4 * HOOK_BATCH
        );
        // Closing always fires so terminal events are never stranded
        // behind a partial batch.
        job.close_events();
        assert_eq!(fired.load(Ordering::SeqCst), after_burst + 1);
    }

    #[test]
    fn shared_events_reach_both_rings_point_events_only_the_raw_one() {
        let job = Job::new(12, spec(), 1, 1, JobKind::Sweep, 0);
        job.push_event("{\"event\":\"point\"}".into());
        job.push_shared_event("{\"event\":\"snapshot\"}".into());
        let mut raw = Vec::new();
        let (next, any, _) = job.ring_events_into(EventRing::Raw, 0, &mut raw, usize::MAX);
        assert_eq!(next, 2);
        assert!(any);
        let mut agg = Vec::new();
        let (next, any, _) = job.ring_events_into(EventRing::Aggregates, 0, &mut agg, usize::MAX);
        assert_eq!(next, 1, "the point event never reaches the aggregates ring");
        assert!(any);
        assert_eq!(agg, b"{\"event\":\"snapshot\"}\n");
        // Cursor spaces are per ring: each ring closes with its own
        // tail intact.
        job.close_events();
        let (_, _, closed) = job.ring_events_into(EventRing::Aggregates, 1, &mut agg, usize::MAX);
        assert!(closed);
    }

    #[test]
    fn job_kinds_carry_lease_ranges() {
        let lease = JobKind::Lease { start: 4, end: 9 };
        assert_eq!(lease, JobKind::Lease { start: 4, end: 9 });
        assert_ne!(lease, JobKind::Sweep);
        let job = Job::new(3, spec(), 5, 1, lease, 0);
        assert_eq!(job.kind, lease);
    }
}
