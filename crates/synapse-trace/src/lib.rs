#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! `synapse-trace` — the campaign flight recorder.
//!
//! A campaign's event stream used to be ephemeral: once the sweep
//! finished, the per-point causal history (which point landed, in what
//! order, from which worker, after how long) was gone, and validating
//! determinism meant re-simulating the whole grid. This crate records
//! that stream as a **versioned `.jsonl` trace** and replays it
//! through the same [`PointEvent`] observer seam the live engine
//! drives — instant, free, and deterministic.
//!
//! A trace has two strata:
//!
//! * **Causal events** (`"kind":"header"` / `"kind":"event"`) — the
//!   spec, engine version, seed, and every per-point result, written
//!   in canonical grid order. This projection is *byte-deterministic*:
//!   two recordings of the same spec+seed are identical regardless of
//!   worker count, cache warmth, completion order, or which machine
//!   (or cluster) executed the sweep. [`Trace::canonical_bytes`]
//!   extracts it; the CI replay gate compares it.
//! * **Annotations** (`"kind":"timing"` / `"lease"` / `"span"`) —
//!   execution-dependent observability: stage walls, lease lifecycle
//!   (which worker ran which index range, and when), and per-endpoint
//!   request spans. All times are **monotonic offsets from campaign
//!   start** (`off_secs`) — no absolute wall-clock value appears
//!   anywhere in a trace. Replay ignores annotations; the
//!   trace-summary surface renders them.
//!
//! Causality: every trace carries a deterministic
//! [`campaign_trace_id`], minted at submit, propagated to cluster
//! workers as the `X-Synapse-Trace` request header, echoed in their
//! lease/batch events, and stamped on request spans — so a merged
//! cluster trace reconstructs which worker produced which points and
//! when.
//!
//! Replay has two modes: [`ReplayMode::Strict`] (any divergence is an
//! error — the zero-flake CI gate) and [`ReplayMode::Lenient`]
//! (divergences are collected and reported — the audit tool).
//! [`Trace::verify`] is a fast structural scan (no per-point parsing);
//! [`Trace::replay_on`] re-drives an observer with fully parsed
//! events; [`Trace::reconstruct_report`] rebuilds the byte-identical
//! [`CampaignReport`]. None of them enters the engine —
//! `tests/replay_no_resim.rs` pins that.

mod metrics;

use std::fmt::{self, Write as _};
use std::fs;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::{Deserialize, Serialize};
use synapse_campaign::{
    campaign_trace_id, CampaignError, CampaignReport, CampaignSpec, PointEvent, PointResult,
    RunStats, ENGINE_VERSION,
};

use crate::metrics::TraceMetrics;

/// Version of the trace file format this crate reads and writes.
///
/// Readers accept any `v <=` this and refuse newer files with a clean
/// [`TraceError::Version`] (never a panic); writers always stamp the
/// current version. Bump when a causal line's schema changes;
/// annotation-only additions are compatible without a bump.
pub const TRACE_VERSION: u32 = 1;

/// Canonical prefix of a per-point causal line (the fast-scan key).
const POINT_PREFIX: &str = "{\"kind\":\"event\",\"t\":\"point\",\"index\":";
/// Prefix of the sweep-start causal line.
const STARTED_PREFIX: &str = "{\"kind\":\"event\",\"t\":\"started\",";
/// Prefix of the sweep-completion causal line.
const FINISHED_PREFIX: &str = "{\"kind\":\"event\",\"t\":\"finished\",";
/// Prefix of the cancellation causal line.
const CANCELLED_PREFIX: &str = "{\"kind\":\"event\",\"t\":\"cancelled\",";
/// Prefix of a ring-truncation marker (a server event ring dropped
/// events before they could be recorded).
const TRUNCATED_PREFIX: &str = "{\"kind\":\"event\",\"t\":\"truncated\",";

/// Everything that can go wrong recording, reading, or replaying.
#[derive(Debug)]
pub enum TraceError {
    /// Filesystem failure reading or writing a trace.
    Io(std::io::Error),
    /// The first line is not a parseable trace header.
    Header(String),
    /// The trace was written by a newer format version.
    Version {
        /// Version stamped in the file.
        found: u32,
        /// Newest version this reader understands.
        supported: u32,
    },
    /// A causal line is malformed.
    Corrupt {
        /// 1-based line number in the trace file.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// Strict replay found a divergence from a complete causal stream.
    Divergence(String),
    /// Report reconstruction failed downstream of the trace itself.
    Campaign(CampaignError),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::Header(reason) => write!(f, "invalid trace header: {reason}"),
            TraceError::Version { found, supported } => write!(
                f,
                "trace format v{found} is newer than supported v{supported}; \
                 upgrade synapse to replay this trace"
            ),
            TraceError::Corrupt { line, reason } => {
                write!(f, "corrupt trace line {line}: {reason}")
            }
            TraceError::Divergence(msg) => write!(f, "replay divergence: {msg}"),
            TraceError::Campaign(e) => write!(f, "replay report assembly failed: {e}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> TraceError {
        TraceError::Io(e)
    }
}

impl From<CampaignError> for TraceError {
    fn from(e: CampaignError) -> TraceError {
        TraceError::Campaign(e)
    }
}

/// First line of every trace: format version, provenance, and the full
/// spec (so replay needs nothing but the trace file).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceHeader {
    /// Always `"header"`.
    pub kind: String,
    /// Trace format version ([`TRACE_VERSION`] at write time).
    pub v: u32,
    /// Engine version that produced the recorded results.
    pub engine_version: u32,
    /// Deterministic causality id ([`campaign_trace_id`]).
    pub trace_id: String,
    /// Campaign name from the spec.
    pub name: String,
    /// Master seed.
    pub seed: u64,
    /// Total scenario points the grid expands to.
    pub points: usize,
    /// The full campaign spec.
    pub spec: CampaignSpec,
}

/// One per-point causal line (serialized shape of the trace's densest
/// record; field order is the canonical byte layout).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct PointLine {
    kind: String,
    t: String,
    index: usize,
    result: PointResult,
}

/// How replay treats divergences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayMode {
    /// Any divergence is an error — the CI gate. It checks framing,
    /// order and that each result decodes, not that a result is the
    /// one recorded: point lines carry no result digest, so an edited
    /// number that still decodes verifies clean. A per-point digest
    /// would close that, as a trace format change with its own
    /// [`TRACE_VERSION`] bump.
    Strict,
    /// Divergences are collected into the summary — the audit tool.
    Lenient,
}

/// What a replay validation pass found.
#[derive(Debug, Clone)]
pub struct ReplaySummary {
    /// Points the header promises.
    pub total: usize,
    /// Causally-ordered points actually present.
    pub points: usize,
    /// Annotation lines skipped (timing/lease/span).
    pub annotations: usize,
    /// Divergences found (empty in a clean strict pass).
    pub divergences: Vec<String>,
}

impl ReplaySummary {
    /// Whether the trace replayed with zero divergences.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// Record (or fail with) one divergence according to the mode.
fn diverge(mode: ReplayMode, divergences: &mut Vec<String>, msg: String) -> Result<(), TraceError> {
    TraceMetrics::get().replay_divergences.inc();
    match mode {
        ReplayMode::Strict => Err(TraceError::Divergence(msg)),
        ReplayMode::Lenient => {
            divergences.push(msg);
            Ok(())
        }
    }
}

/// Fast structural probe of a per-point line: its grid index, without
/// parsing the embedded result. Returns `None` unless the line has the
/// exact canonical layout.
fn point_line_index(line: &str) -> Option<usize> {
    let rest = line.strip_prefix(POINT_PREFIX)?;
    let comma = rest.find(',')?;
    let index: usize = rest[..comma].parse().ok()?;
    if !rest[comma..].starts_with(",\"result\":{") || !line.ends_with("}}") {
        return None;
    }
    Some(index)
}

/// The result a per-point line carries, checked as every result that
/// comes from outside the process is: it decodes, and its
/// [times are valid](PointResult::times_are_valid). A trace is a file
/// anyone can edit; nothing downstream (the report's sums and sorts)
/// meets a result this has not admitted.
fn point_result(line: &str) -> Result<PointResult, String> {
    let parsed: PointLine =
        serde_json::from_str(line).map_err(|e| format!("point does not deserialize: {e}"))?;
    if !parsed.result.times_are_valid() {
        return Err("point has a time that is not finite and non-negative".to_string());
    }
    Ok(parsed.result)
}

/// One annotation field as JSON text, through the workspace's one
/// codec — its float rule for `f64`s, its escaper for strings.
fn json<T: serde::Serialize + ?Sized>(field: &T) -> String {
    serde_json::to_string(field).expect("scalar serializes")
}

/// Mutable recording state behind the recorder's one lock.
struct RecorderInner {
    started: bool,
    /// Rendered per-point lines, slotted by grid index so the file is
    /// written in canonical order no matter the completion order.
    points: Vec<Option<String>>,
    /// Rendered `finished`/`cancelled` line.
    terminal: Option<String>,
    /// Rendered annotation lines, in record order.
    annotations: Vec<String>,
}

/// A flight recorder for one campaign run.
///
/// `Sync` and cheap enough to sit inside the engine's observer seam:
/// recording a point renders one JSON line under a mutex. Points are
/// slotted by grid index at record time, so the rendered trace is in
/// canonical order regardless of completion order — the normalization
/// that makes identical sweeps produce byte-identical causal streams.
///
/// Wall-clock instants never enter the trace: annotations carry
/// monotonic offsets from the recorder's creation (`off_secs`), and
/// transport keepalives (heartbeats) are invisible to the observer
/// seam, so they are structurally excluded.
pub struct TraceRecorder {
    header_line: String,
    trace_id: String,
    total: usize,
    started_at: Instant,
    inner: Mutex<RecorderInner>,
}

impl TraceRecorder {
    /// A recorder for one run of `spec`, minting its causality id.
    pub fn new(spec: &CampaignSpec) -> TraceRecorder {
        let trace_id = campaign_trace_id(spec);
        let total = spec.point_count();
        let header = TraceHeader {
            kind: "header".to_string(),
            v: TRACE_VERSION,
            engine_version: ENGINE_VERSION,
            trace_id: trace_id.clone(),
            name: spec.name.clone(),
            seed: spec.seed,
            points: total,
            spec: spec.clone(),
        };
        let header_line = serde_json::to_string(&header).expect("trace header serializes");
        TraceRecorder {
            header_line,
            trace_id,
            total,
            started_at: Instant::now(),
            inner: Mutex::new(RecorderInner {
                started: false,
                points: vec![None; total],
                terminal: None,
                annotations: Vec::new(),
            }),
        }
    }

    /// The campaign's deterministic causality id.
    pub fn trace_id(&self) -> &str {
        &self.trace_id
    }

    /// Total points the spec expands to.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Record one engine event (the observer seam: call this from the
    /// campaign observer, alongside whatever else it does).
    pub fn observe(&self, event: &PointEvent) {
        let m = TraceMetrics::get();
        match event {
            PointEvent::Started { .. } => {
                self.inner.lock().expect("trace lock").started = true;
                m.events_recorded.inc();
            }
            PointEvent::PointDone { result, .. } => {
                let index = result.point.index;
                let mut line = String::with_capacity(640);
                let _ = write!(line, "{POINT_PREFIX}{index},\"result\":");
                result.write_json(&mut line);
                line.push('}');
                let mut inner = self.inner.lock().expect("trace lock");
                if index < inner.points.len() {
                    inner.points[index] = Some(line);
                    m.events_recorded.inc();
                }
            }
            PointEvent::Finished { .. } => {
                let line = format!("{FINISHED_PREFIX}\"points\":{}}}", self.total);
                self.inner.lock().expect("trace lock").terminal = Some(line);
                m.events_recorded.inc();
            }
            PointEvent::Cancelled { done, total } => {
                let line = format!("{CANCELLED_PREFIX}\"done\":{done},\"total\":{total}}}");
                self.inner.lock().expect("trace lock").terminal = Some(line);
                m.events_recorded.inc();
            }
        }
    }

    /// Record the run's stage walls and cache counters as a `timing`
    /// annotation (call after the run, when all stages are known).
    pub fn record_stats(&self, stats: &RunStats) {
        self.push_annotation(format!(
            "{{\"kind\":\"timing\",\"t\":\"stages\",\"expansion_secs\":{},\"sweep_secs\":{},\
             \"aggregation_secs\":{},\"wall_secs\":{},\"simulated\":{},\"cache_hits\":{},\
             \"off_secs\":{}}}",
            json(&stats.expand_secs),
            json(&stats.sweep_secs),
            json(&stats.aggregate_secs),
            json(&stats.wall_secs),
            stats.simulated,
            stats.cache_hits,
            json(&self.off_secs()),
        ));
    }

    /// Record one lease-lifecycle transition (cluster fan-out):
    /// `phase` ∈ assigned/completed/failed/reassigned/split/local,
    /// `worker` the executing server, `[start, end)` the index range.
    pub fn record_lease(&self, phase: &str, worker: &str, start: usize, end: usize) {
        self.push_annotation(format!(
            "{{\"kind\":\"lease\",\"phase\":{},\"worker\":{},\"start\":{start},\
             \"end\":{end},\"off_secs\":{},\"trace\":\"{}\"}}",
            json(phase),
            json(worker),
            json(&self.off_secs()),
            self.trace_id,
        ));
    }

    /// Record one request-handling span (the reactor stamps every
    /// request it can attribute to this campaign).
    pub fn record_span(&self, endpoint: &str, secs: f64) {
        self.push_annotation(format!(
            "{{\"kind\":\"span\",\"endpoint\":{},\"secs\":{},\"off_secs\":{},\
             \"trace\":\"{}\"}}",
            json(endpoint),
            json(&secs),
            json(&self.off_secs()),
            self.trace_id,
        ));
    }

    /// Monotonic offset from campaign start — the only clock traces
    /// know about.
    fn off_secs(&self) -> f64 {
        self.started_at.elapsed().as_secs_f64()
    }

    fn push_annotation(&self, line: String) {
        self.inner
            .lock()
            .expect("trace lock")
            .annotations
            .push(line);
        TraceMetrics::get().events_recorded.inc();
    }

    /// Render the full trace document (causal stream in canonical
    /// order, then annotations), counting the bytes written.
    pub fn render(&self) -> String {
        let inner = self.inner.lock().expect("trace lock");
        let mut out = String::with_capacity(self.header_line.len() + 64 * self.total);
        out.push_str(&self.header_line);
        out.push('\n');
        if inner.started {
            out.push_str(&format!("{STARTED_PREFIX}\"total\":{}}}\n", self.total));
        }
        for line in inner.points.iter().flatten() {
            out.push_str(line);
            out.push('\n');
        }
        if let Some(terminal) = &inner.terminal {
            out.push_str(terminal);
            out.push('\n');
        }
        for line in &inner.annotations {
            out.push_str(line);
            out.push('\n');
        }
        TraceMetrics::get().bytes_written.add(out.len() as u64);
        out
    }

    /// Render and write the trace to `path`.
    pub fn write_to(&self, path: &Path) -> Result<(), TraceError> {
        fs::write(path, self.render())?;
        Ok(())
    }
}

/// A parsed trace: validated header plus the raw body lines.
#[derive(Debug, Clone)]
pub struct Trace {
    /// The validated header.
    pub header: TraceHeader,
    header_line: String,
    /// Raw lines after the header (causal events and annotations).
    lines: Vec<String>,
}

impl Trace {
    /// Parse a trace document, validating only the header (body lines
    /// stay raw until [`verify`](Trace::verify) or
    /// [`replay_on`](Trace::replay_on) walks them).
    pub fn parse(text: &str) -> Result<Trace, TraceError> {
        let mut lines = text.lines();
        let header_line = lines
            .by_ref()
            .find(|l| !l.trim().is_empty())
            .ok_or_else(|| TraceError::Header("empty trace".to_string()))?;
        let probe: serde_json::Value = serde_json::from_str(header_line)
            .map_err(|e| TraceError::Header(format!("first line is not JSON: {e}")))?;
        if probe["kind"].as_str() != Some("header") {
            return Err(TraceError::Header(
                "first line is not a trace header".to_string(),
            ));
        }
        let v = probe["v"]
            .as_u64()
            .ok_or_else(|| TraceError::Header("header has no version".to_string()))?
            as u32;
        if v > TRACE_VERSION {
            return Err(TraceError::Version {
                found: v,
                supported: TRACE_VERSION,
            });
        }
        let header: TraceHeader = serde_json::from_str(header_line)
            .map_err(|e| TraceError::Header(format!("header does not deserialize: {e}")))?;
        Ok(Trace {
            header,
            header_line: header_line.to_string(),
            lines: lines
                .filter(|l| !l.trim().is_empty())
                .map(|l| l.to_string())
                .collect(),
        })
    }

    /// Load and parse a trace file.
    pub fn load(path: &Path) -> Result<Trace, TraceError> {
        Trace::parse(&fs::read_to_string(path)?)
    }

    /// The byte-deterministic projection: header plus causal event
    /// lines, annotations stripped. Two recordings of the same
    /// spec+seed are identical here regardless of worker count, cache
    /// warmth, or cluster topology — this is what the CI gate compares.
    pub fn canonical_bytes(&self) -> String {
        let mut out = String::with_capacity(self.header_line.len() + 64 * self.lines.len());
        out.push_str(&self.header_line);
        out.push('\n');
        for line in &self.lines {
            if line.starts_with("{\"kind\":\"event\",") {
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }

    /// Validate the causal stream — the replay scan: line framing,
    /// canonical grid order, index coverage, terminal completeness, and
    /// every point's result as [`replay_on`](Trace::replay_on) admits
    /// it (decodable, with valid times).
    ///
    /// Strict mode returns the first divergence as an error; lenient
    /// mode collects all of them into the summary. Both count every
    /// divergence in `synapse_trace_replay_divergences_total`.
    pub fn verify(&self, mode: ReplayMode) -> Result<ReplaySummary, TraceError> {
        let total = self.header.points;
        let started_expected = format!("{STARTED_PREFIX}\"total\":{total}}}");
        let finished_expected = format!("{FINISHED_PREFIX}\"points\":{total}}}");
        let mut divergences = Vec::new();
        let mut started = false;
        let mut finished = false;
        let mut terminal = false;
        let mut next = 0usize;
        let mut points = 0usize;
        let mut annotations = 0usize;
        for (offset, line) in self.lines.iter().enumerate() {
            let line_no = offset + 2; // header is line 1
            if let Some(index) = point_line_index(line) {
                if terminal {
                    diverge(
                        mode,
                        &mut divergences,
                        format!("line {line_no}: point {index} after the terminal event"),
                    )?;
                }
                if index != next {
                    diverge(
                        mode,
                        &mut divergences,
                        format!("line {line_no}: expected point {next}, found {index}"),
                    )?;
                }
                if let Err(reason) = point_result(line) {
                    diverge(mode, &mut divergences, format!("line {line_no}: {reason}"))?;
                }
                next = index + 1;
                points += 1;
            } else if line.starts_with(STARTED_PREFIX) {
                if started || points > 0 {
                    diverge(
                        mode,
                        &mut divergences,
                        format!("line {line_no}: duplicate or late started event"),
                    )?;
                }
                if *line != started_expected {
                    diverge(
                        mode,
                        &mut divergences,
                        format!("line {line_no}: started event disagrees with header"),
                    )?;
                }
                started = true;
            } else if line.starts_with(FINISHED_PREFIX) {
                if *line != finished_expected || points != total {
                    diverge(
                        mode,
                        &mut divergences,
                        format!("line {line_no}: finished with {points}/{total} points present"),
                    )?;
                }
                finished = true;
                terminal = true;
            } else if line.starts_with(CANCELLED_PREFIX) {
                diverge(
                    mode,
                    &mut divergences,
                    format!("line {line_no}: trace records a cancelled sweep"),
                )?;
                terminal = true;
            } else if line.starts_with(TRUNCATED_PREFIX) {
                diverge(
                    mode,
                    &mut divergences,
                    format!("line {line_no}: event ring truncated before recording"),
                )?;
            } else if line.starts_with("{\"kind\":\"timing\"")
                || line.starts_with("{\"kind\":\"lease\"")
                || line.starts_with("{\"kind\":\"span\"")
            {
                annotations += 1;
            } else if line.contains("\"event\":\"heartbeat\"") {
                // Transport keepalive captured from a raw stream dump;
                // never part of the causal record.
            } else {
                let shown: String = line.chars().take(60).collect();
                diverge(
                    mode,
                    &mut divergences,
                    format!("line {line_no}: unrecognized line {shown:?}"),
                )?;
            }
        }
        if !started {
            diverge(mode, &mut divergences, "no started event".to_string())?;
        }
        if !finished {
            diverge(
                mode,
                &mut divergences,
                format!("trace ends without a finished event ({points}/{total} points)"),
            )?;
        }
        Ok(ReplaySummary {
            total,
            points,
            annotations,
            divergences,
        })
    }

    /// Re-drive an observer from the recorded causal stream, exactly
    /// as the live engine would have: `Started`, every point in grid
    /// order with a monotone `done` counter, then `Finished`. Strict
    /// by construction — any structural or parse failure is an error.
    ///
    /// Returns the recorded results (grid order) and synthesized run
    /// stats (every point "served from the record": zero simulated,
    /// zero wall time).
    pub fn replay_on(
        &self,
        observer: &(dyn Fn(PointEvent) + Sync),
    ) -> Result<(Vec<PointResult>, RunStats), TraceError> {
        let total = self.header.points;
        let mut results: Vec<Arc<PointResult>> = Vec::with_capacity(total);
        observer(PointEvent::Started { total });
        for (offset, line) in self.lines.iter().enumerate() {
            let line_no = offset + 2;
            if let Some(index) = point_line_index(line) {
                if index != results.len() {
                    return Err(TraceError::Divergence(format!(
                        "line {line_no}: expected point {}, found {index}",
                        results.len()
                    )));
                }
                let result = point_result(line).map_err(|reason| TraceError::Corrupt {
                    line: line_no,
                    reason,
                })?;
                let shared = Arc::new(result);
                observer(PointEvent::PointDone {
                    result: shared.clone(),
                    cached: true,
                    done: index + 1,
                    total,
                });
                results.push(shared);
            } else if line.starts_with(CANCELLED_PREFIX) {
                return Err(TraceError::Divergence(
                    "trace records a cancelled sweep".to_string(),
                ));
            } else if line.starts_with(TRUNCATED_PREFIX) {
                return Err(TraceError::Divergence(
                    "event ring truncated before recording".to_string(),
                ));
            }
        }
        if results.len() != total {
            return Err(TraceError::Divergence(format!(
                "trace holds {}/{total} points",
                results.len()
            )));
        }
        let stats = RunStats {
            points: total,
            simulated: 0,
            cache_hits: total,
            wall_secs: 0.0,
            expand_secs: 0.0,
            sweep_secs: 0.0,
            aggregate_secs: 0.0,
        };
        observer(PointEvent::Finished { stats });
        let owned = results
            .into_iter()
            .map(|shared| Arc::try_unwrap(shared).unwrap_or_else(|held| (*held).clone()))
            .collect();
        Ok((owned, stats))
    }

    /// Rebuild the deterministic [`CampaignReport`] from the recorded
    /// results — byte-identical to the live run's report, with the
    /// simulator never invoked.
    pub fn reconstruct_report(&self) -> Result<CampaignReport, TraceError> {
        let (results, _) = self.replay_on(&|_| {})?;
        Ok(CampaignReport::assemble(&self.header.spec, &results)?)
    }

    /// Human-readable trace summary: provenance, per-stage walls, and
    /// per-worker lease timelines reconstructed from the annotations.
    pub fn summary(&self) -> String {
        let h = &self.header;
        let mut out = format!(
            "trace {} v{} — campaign {:?}: {} points, seed {}, engine v{}\n",
            h.trace_id, h.v, h.name, h.points, h.seed, h.engine_version
        );
        let mut leases: Vec<(String, String, usize, usize, f64)> = Vec::new();
        let mut spans: std::collections::BTreeMap<String, (usize, f64)> =
            std::collections::BTreeMap::new();
        for line in &self.lines {
            if !line.starts_with("{\"kind\":\"") {
                continue;
            }
            let Ok(value) = serde_json::from_str::<serde_json::Value>(line) else {
                continue;
            };
            match value["kind"].as_str() {
                Some("timing") => {
                    out.push_str(&format!(
                        "stages: expansion {:.3}s · sweep {:.3}s · aggregation {:.3}s · \
                         wall {:.3}s ({} simulated, {} cache hits)\n",
                        value["expansion_secs"].as_f64().unwrap_or(0.0),
                        value["sweep_secs"].as_f64().unwrap_or(0.0),
                        value["aggregation_secs"].as_f64().unwrap_or(0.0),
                        value["wall_secs"].as_f64().unwrap_or(0.0),
                        value["simulated"].as_u64().unwrap_or(0),
                        value["cache_hits"].as_u64().unwrap_or(0),
                    ));
                }
                Some("lease") => {
                    leases.push((
                        value["worker"].as_str().unwrap_or("?").to_string(),
                        value["phase"].as_str().unwrap_or("?").to_string(),
                        value["start"].as_u64().unwrap_or(0) as usize,
                        value["end"].as_u64().unwrap_or(0) as usize,
                        value["off_secs"].as_f64().unwrap_or(0.0),
                    ));
                }
                Some("span") => {
                    let endpoint = value["endpoint"].as_str().unwrap_or("?").to_string();
                    let entry = spans.entry(endpoint).or_insert((0, 0.0));
                    entry.0 += 1;
                    entry.1 += value["secs"].as_f64().unwrap_or(0.0);
                }
                _ => {}
            }
        }
        if !leases.is_empty() {
            let mut workers: Vec<&str> = leases.iter().map(|l| l.0.as_str()).collect();
            workers.sort_unstable();
            workers.dedup();
            out.push_str("workers:\n");
            for worker in workers {
                out.push_str(&format!("  {worker}:\n"));
                for (w, phase, start, end, off) in &leases {
                    if w == worker {
                        out.push_str(&format!(
                            "    +{off:.3}s {phase:<10} [{start}, {end}) ({} points)\n",
                            end.saturating_sub(*start)
                        ));
                    }
                }
            }
        }
        if !spans.is_empty() {
            out.push_str("request spans:\n");
            for (endpoint, (count, secs)) in &spans {
                out.push_str(&format!(
                    "  {endpoint:<28} {count:>5} requests, {secs:.3}s handling\n"
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synapse_campaign::{run_campaign_on, CancelToken, ResultCache, RunConfig};

    fn spec() -> CampaignSpec {
        CampaignSpec::from_toml(
            r#"
            name = "trace-unit"
            seed = 7
            machines = ["thinkie", "comet"]
            kernels = ["asm", "c"]

            [[workloads]]
            app = "gromacs"
            steps = [10000, 50000]
            "#,
        )
        .unwrap()
    }

    /// Run one cold sweep with a recorder attached; return the trace
    /// text and the live outcome.
    fn record_run(workers: usize) -> (String, synapse_campaign::CampaignOutcome) {
        let s = spec();
        let recorder = TraceRecorder::new(&s);
        let cache = ResultCache::in_memory();
        let outcome = run_campaign_on(
            &s,
            &RunConfig { workers },
            &cache,
            &|event| recorder.observe(&event),
            &CancelToken::new(),
        )
        .unwrap();
        recorder.record_stats(&outcome.stats);
        (recorder.render(), outcome)
    }

    #[test]
    fn record_verify_reconstruct_roundtrip() {
        let (text, outcome) = record_run(4);
        let trace = Trace::parse(&text).unwrap();
        assert_eq!(trace.header.v, TRACE_VERSION);
        assert_eq!(trace.header.engine_version, ENGINE_VERSION);
        assert_eq!(trace.header.points, 8);
        assert_eq!(trace.header.trace_id, campaign_trace_id(&spec()));
        let summary = trace.verify(ReplayMode::Strict).unwrap();
        assert!(summary.is_clean());
        assert_eq!(summary.points, 8);
        assert!(summary.annotations >= 1, "timing annotation present");
        let report = trace.reconstruct_report().unwrap();
        assert_eq!(
            report.to_json().unwrap(),
            outcome.report.to_json().unwrap(),
            "replayed report is byte-identical to the live run's"
        );
    }

    #[test]
    fn identical_sweeps_record_byte_identical_causal_streams() {
        // Different worker counts: completion order differs wildly,
        // canonical recordings must not.
        let (a, _) = record_run(1);
        let (b, _) = record_run(8);
        let ta = Trace::parse(&a).unwrap();
        let tb = Trace::parse(&b).unwrap();
        assert_eq!(
            ta.canonical_bytes(),
            tb.canonical_bytes(),
            "identical sweeps must produce byte-identical causal streams"
        );
        // Whatever differs between the full files is annotation-only
        // (timing offsets are execution-dependent by design).
        for (la, lb) in a.lines().zip(b.lines()) {
            if la != lb {
                assert!(
                    la.starts_with("{\"kind\":\"timing\"")
                        || la.starts_with("{\"kind\":\"lease\"")
                        || la.starts_with("{\"kind\":\"span\""),
                    "non-annotation line differs: {la}"
                );
            }
        }
    }

    #[test]
    fn replay_on_redrives_the_observer_seam() {
        let (text, _) = record_run(2);
        let trace = Trace::parse(&text).unwrap();
        let events: Mutex<Vec<String>> = Mutex::new(Vec::new());
        let (results, stats) = trace
            .replay_on(&|event| {
                let tag = match event {
                    PointEvent::Started { total } => format!("started:{total}"),
                    PointEvent::PointDone {
                        result,
                        cached,
                        done,
                        ..
                    } => format!("point:{}:{}:{}", result.point.index, cached, done),
                    PointEvent::Finished { .. } => "finished".to_string(),
                    PointEvent::Cancelled { .. } => "cancelled".to_string(),
                };
                events.lock().unwrap().push(tag);
            })
            .unwrap();
        assert_eq!(results.len(), 8);
        assert_eq!(stats.simulated, 0);
        assert_eq!(stats.cache_hits, 8);
        let events = events.into_inner().unwrap();
        assert_eq!(events.len(), 10, "start + 8 points + finish");
        assert_eq!(events[0], "started:8");
        assert_eq!(events[1], "point:0:true:1");
        assert_eq!(events[8], "point:7:true:8");
        assert_eq!(events[9], "finished");
    }

    #[test]
    fn a_point_whose_times_are_not_finite_and_non_negative_is_corrupt_and_a_divergence() {
        let (text, _) = record_run(2);
        // Point 3's line, its times rewritten as a hand edit would.
        let line_no = text
            .lines()
            .position(|l| l.starts_with("{\"kind\":\"event\",\"t\":\"point\",\"index\":3,"))
            .unwrap()
            + 1;
        let line = text.lines().nth(line_no - 1).unwrap();
        let field = |key: &str| {
            let at = line.find(&format!("\"{key}\":")).unwrap() + key.len() + 3;
            let len = line[at..].find([',', '}']).unwrap();
            format!("\"{key}\":{}", &line[at..at + len])
        };
        let (tx, app_tx) = (field("tx"), field("app_tx"));
        for edit in [
            vec![
                (tx.clone(), "\"tx\":-1e999"),
                (app_tx.clone(), "\"app_tx\":1e999"),
            ],
            vec![(tx.clone(), "\"tx\":-1e999")],
            vec![(app_tx.clone(), "\"app_tx\":1e999")],
        ] {
            let edited_line = edit
                .iter()
                .fold(line.to_string(), |l, (from, to)| l.replacen(from, to, 1));
            assert_ne!(edited_line, line);
            let edited = text.replacen(line, &edited_line, 1);
            let trace = Trace::parse(&edited).unwrap();
            match trace.replay_on(&|_| {}) {
                Err(TraceError::Corrupt { line, reason }) => {
                    assert_eq!(line, line_no);
                    assert!(reason.contains("finite and non-negative"), "{reason}");
                }
                other => panic!("{edit:?}: expected Corrupt, got {other:?}"),
            }
            assert!(matches!(
                trace.reconstruct_report(),
                Err(TraceError::Corrupt { .. })
            ));
            match trace.verify(ReplayMode::Strict) {
                Err(TraceError::Divergence(msg)) => {
                    assert!(msg.starts_with(&format!("line {line_no}:")), "{msg}")
                }
                other => panic!("{edit:?}: expected a divergence, got {other:?}"),
            }
            let lenient = trace.verify(ReplayMode::Lenient).unwrap();
            assert_eq!(lenient.points, 8);
            assert_eq!(lenient.divergences.len(), 1, "{:?}", lenient.divergences);
            assert!(lenient.divergences[0].contains("finite and non-negative"));
        }
    }

    #[test]
    fn future_version_fails_cleanly() {
        let (text, _) = record_run(1);
        // Object keys render sorted, so the version is the header
        // line's final field.
        let bumped = text.replacen("\"v\":1}", "\"v\":99}", 1);
        match Trace::parse(&bumped) {
            Err(TraceError::Version { found, supported }) => {
                assert_eq!(found, 99);
                assert_eq!(supported, TRACE_VERSION);
            }
            Err(other) => panic!("expected version error, got {other}"),
            Ok(_) => panic!("expected version error, got a parsed trace"),
        }
        // And the message tells the operator what to do.
        let msg = Trace::parse(&bumped).unwrap_err().to_string();
        assert!(msg.contains("newer than supported"));
    }

    #[test]
    fn garbage_trailing_lines_lenient_recovers_strict_fails() {
        let (text, _) = record_run(2);
        let dirty = format!("{text}not json at all\n{{\"half\":");
        let trace = Trace::parse(&dirty).unwrap();
        assert!(matches!(
            trace.verify(ReplayMode::Strict),
            Err(TraceError::Divergence(_))
        ));
        let summary = trace.verify(ReplayMode::Lenient).unwrap();
        assert_eq!(summary.points, 8, "all real points still counted");
        assert_eq!(summary.divergences.len(), 2, "one per garbage line");
        // The causal stream is still fully reconstructable.
        assert!(trace.reconstruct_report().is_ok());
    }

    #[test]
    fn truncation_marker_strict_fails_lenient_reports() {
        let (text, _) = record_run(2);
        // Splice a ring-truncation marker ahead of the terminal event,
        // as a server whose event ring overflowed would have.
        let marker = format!("{TRUNCATED_PREFIX}\"dropped\":3}}");
        let finished = format!("{FINISHED_PREFIX}\"points\":8}}");
        let spliced = text.replace(&finished, &format!("{marker}\n{finished}"));
        let trace = Trace::parse(&spliced).unwrap();
        let err = trace.verify(ReplayMode::Strict).unwrap_err();
        assert!(err.to_string().contains("truncated"));
        let summary = trace.verify(ReplayMode::Lenient).unwrap();
        assert_eq!(summary.divergences.len(), 1);
        assert!(summary.divergences[0].contains("truncated"));
        assert!(matches!(
            trace.replay_on(&|_| {}),
            Err(TraceError::Divergence(_))
        ));
    }

    #[test]
    fn missing_terminal_and_missing_points_diverge() {
        let (text, _) = record_run(2);
        let finished = format!("{FINISHED_PREFIX}\"points\":8}}");
        // Drop the finished line and the last point line.
        let truncated: Vec<&str> = text
            .lines()
            .filter(|l| *l != finished && point_line_index(l) != Some(7))
            .collect();
        let trace = Trace::parse(&truncated.join("\n")).unwrap();
        assert!(trace.verify(ReplayMode::Strict).is_err());
        let summary = trace.verify(ReplayMode::Lenient).unwrap();
        assert_eq!(summary.points, 7);
        assert!(!summary.is_clean());
        assert!(
            trace.reconstruct_report().is_err(),
            "7/8 points is not a report"
        );
    }

    #[test]
    fn heartbeats_are_tolerated_and_never_canonical() {
        let (text, _) = record_run(2);
        let with_pulse = format!("{text}{{\"event\":\"heartbeat\"}}\n");
        let trace = Trace::parse(&with_pulse).unwrap();
        assert!(trace.verify(ReplayMode::Strict).unwrap().is_clean());
        assert!(!trace.canonical_bytes().contains("heartbeat"));
    }

    #[test]
    fn cancelled_trace_is_a_divergence() {
        let s = spec();
        let recorder = TraceRecorder::new(&s);
        recorder.observe(&PointEvent::Started { total: 8 });
        recorder.observe(&PointEvent::Cancelled { done: 3, total: 8 });
        let trace = Trace::parse(&recorder.render()).unwrap();
        assert!(trace.verify(ReplayMode::Strict).is_err());
        let summary = trace.verify(ReplayMode::Lenient).unwrap();
        assert!(summary.divergences.iter().any(|d| d.contains("cancelled")));
    }

    #[test]
    fn annotations_render_into_the_summary() {
        let (text, _) = record_run(2);
        let trace = Trace::parse(&text).unwrap();
        // Graft cluster/span annotations on, as a coordinator would.
        let recorder = TraceRecorder::new(&spec());
        recorder.record_lease("assigned", "127.0.0.1:8801", 0, 4);
        recorder.record_lease("completed", "127.0.0.1:8801", 0, 4);
        recorder.record_span("/campaigns/{id}/events", 0.002);
        let annotated: String = recorder
            .render()
            .lines()
            .filter(|l| l.starts_with("{\"kind\":\"lease\"") || l.starts_with("{\"kind\":\"span\""))
            .fold(text, |acc, l| format!("{acc}{l}\n"));
        let trace = Trace::parse(&annotated).unwrap_or(trace);
        let summary = trace.summary();
        assert!(summary.contains("trace t"));
        assert!(summary.contains("stages:"));
        assert!(summary.contains("127.0.0.1:8801"));
        assert!(summary.contains("assigned"));
        assert!(summary.contains("/campaigns/{id}/events"));
    }

    #[test]
    fn trace_id_is_deterministic_and_seed_sensitive() {
        let a = campaign_trace_id(&spec());
        let b = campaign_trace_id(&spec());
        assert_eq!(a, b);
        assert!(a.starts_with('t') && a.len() == 17);
        let mut reseeded = spec();
        reseeded.seed = 8;
        assert_ne!(a, campaign_trace_id(&reseeded));
    }
}
