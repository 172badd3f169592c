//! Damaged bytes for the typed JSON readers a finished or running
//! campaign meets from outside the process: a recorded trace
//! (`Trace::parse`, then `verify` and `reconstruct_report`) and a
//! worker's batch frames (`protocol::parse_event`). The corpus is a
//! recording of `examples/campaign.toml` and batch frames of its
//! results, damaged by truncation, byte flips, junk, repeated lines,
//! hostile values, deep nesting and long arrays (the spec parsers'
//! mutators, `spec_damage.rs`), and by repeated and retyped keys.
//!
//! No input may panic or overflow the stack. A damaged input is
//! rejected — an `Err`, a `Malformed` frame, a line that is not JSON —
//! unless the damage left it a text the reader's own checks admit (a
//! flipped digit in a time, a repeated key with its own value): then a
//! trace that verifies must also rebuild its report, and a frame that
//! reads must carry every point it declares. The clean inputs read.

#[path = "../../../vendor/serde_json/tests/support/mod.rs"]
mod support;

#[path = "../../synapse-campaign/tests/damage/mod.rs"]
mod damage;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use damage::damage_json;
use support::Rng;
use synapse_campaign::{
    run_campaign_on, CampaignSpec, CancelToken, PointEvent, PointResult, ResultCache, RunConfig,
};
use synapse_cluster::protocol::{parse_event, WorkerEvent};
use synapse_server::lease_batch_line;
use synapse_trace::{ReplayMode, Trace, TraceRecorder};

/// Cases per corpus text.
const CASES: usize = 300;

/// The example campaign, run once and recorded: its trace text, its
/// report's JSON, and its results in grid order.
fn recording() -> (String, String, Vec<Arc<PointResult>>) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/campaign.toml");
    let spec = CampaignSpec::from_path(path).unwrap();
    let recorder = TraceRecorder::new(&spec);
    let results = Mutex::new(Vec::new());
    let outcome = run_campaign_on(
        &spec,
        &RunConfig::default(),
        &ResultCache::in_memory(),
        &|event| {
            if let PointEvent::PointDone { result, .. } = &event {
                results.lock().unwrap().push(Arc::clone(result));
            }
            recorder.observe(&event)
        },
        &CancelToken::new(),
    )
    .unwrap();
    recorder.record_stats(&outcome.stats);
    let mut results = results.into_inner().unwrap();
    results.sort_by_key(|result| result.point.index);
    let report = serde_json::to_string(&outcome.report).unwrap();
    (recorder.render(), report, results)
}

/// How a damaged input read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Rejected,
    /// Still admitted by the reader's own checks.
    Admitted,
}

/// `run` on `text`, which must not panic.
fn guarded(text: &str, what: &str, run: impl FnOnce() -> Outcome) -> Outcome {
    catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|_| {
        let shown: String = text.chars().take(600).collect();
        panic!("{what} panicked on {shown:?}")
    })
}

fn read_trace(text: &str) -> Outcome {
    let Ok(trace) = Trace::parse(text) else {
        return Outcome::Rejected;
    };
    // The audit walk reads every line whatever it finds.
    trace.verify(ReplayMode::Lenient).unwrap();
    match trace.verify(ReplayMode::Strict) {
        Err(_) => Outcome::Rejected,
        Ok(_) => {
            // What strict verification admits, replay admits too.
            trace.reconstruct_report().unwrap();
            Outcome::Admitted
        }
    }
}

fn read_frame(text: &str, declared: usize) -> Outcome {
    match parse_event(text) {
        None | Some(WorkerEvent::Malformed { .. }) => Outcome::Rejected,
        Some(WorkerEvent::Batch(points)) => {
            assert_eq!(points.len(), declared, "a frame read with a hole: {text:?}");
            Outcome::Admitted
        }
        other => panic!("a damaged frame read as {other:?}: {text:?}"),
    }
}

#[test]
fn damaged_traces_and_frames_are_rejected_never_a_panic() {
    let (trace, report, results) = recording();
    assert_eq!(results.len(), 192);

    // The clean inputs read: the trace rebuilds the live report byte
    // for byte, and each frame carries its results.
    let clean = Trace::parse(&trace).unwrap();
    assert!(clean.verify(ReplayMode::Strict).unwrap().is_clean());
    let rebuilt = clean.reconstruct_report().unwrap();
    assert_eq!(serde_json::to_string(&rebuilt).unwrap(), report);
    let frames: Vec<(String, usize)> = results
        .chunks(64)
        .enumerate()
        .map(|(i, chunk)| {
            let points: Vec<(Arc<PointResult>, bool)> = chunk
                .iter()
                .map(|result| (Arc::clone(result), i % 2 == 0))
                .collect();
            let line = lease_batch_line(&points, Some("t0123456789abcdef"));
            match parse_event(&line) {
                Some(WorkerEvent::Batch(read)) => {
                    let want: Vec<(PointResult, bool)> =
                        points.iter().map(|(r, c)| ((**r).clone(), *c)).collect();
                    assert_eq!(read, want);
                }
                other => panic!("clean frame read as {other:?}"),
            }
            (line, chunk.len())
        })
        .collect();

    let mut rng = Rng::new(0xda3a9e);
    let mut tally = [0usize; 2];
    let mut count = |outcome| tally[(outcome == Outcome::Admitted) as usize] += 1;
    for case in 0..CASES {
        let mut text = trace.clone();
        for _ in 0..1 + rng.below(3) {
            damage_json(&mut text, &mut rng);
        }
        count(guarded(&text, &format!("trace case {case}"), || {
            read_trace(&text)
        }));
        for (n, (frame, declared)) in frames.iter().enumerate() {
            let mut text = frame.clone();
            for _ in 0..1 + rng.below(3) {
                damage_json(&mut text, &mut rng);
            }
            count(guarded(&text, &format!("frame {n} case {case}"), || {
                read_frame(&text, *declared)
            }));
        }
    }
    let [rejected, admitted] = tally;
    // Nearly every damage is caught; the rest left a text as sound as
    // the clean one.
    assert!(
        rejected > 10 * admitted,
        "{rejected} rejected, {admitted} admitted"
    );
}
