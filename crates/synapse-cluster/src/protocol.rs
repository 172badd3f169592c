//! Wire forms of the coordinator↔worker protocol.
//!
//! Workers are plain `synapse serve` processes: a lease travels as the
//! JSON [`LeaseRequest`] body of `POST
//! /leases`, and results come back over the worker's ordinary NDJSON
//! event stream. The lease-specific extensions: results arrive packed
//! into versioned, length-prefixed `batch` frames, each point carrying
//! the full serialized [`PointResult`] under `"result"`, so
//! the coordinator can reassemble a byte-stable report without a
//! second fetch. The full wire spec, including the byte-level frame
//! layout and version-compatibility rules, lives in
//! `docs/PROTOCOL.md`.

use serde_json::Value;
use synapse_campaign::{CampaignSpec, Lease, PointResult};
use synapse_server::{BatchFrame, LeaseRequest, BATCH_FRAME_VERSION};

/// Serialize the `POST /leases` body for one lease of a spec.
pub fn lease_request_json(spec: &CampaignSpec, lease: &Lease) -> String {
    let request = LeaseRequest {
        spec: spec.clone(),
        start: lease.start,
        end: lease.end,
    };
    serde_json::to_string(&request).expect("lease request serializes")
}

/// One parsed line of a worker's lease event stream, reduced to what
/// the coordinator acts on.
#[derive(Debug)]
pub enum WorkerEvent {
    /// The lease sweep started on the worker.
    Started,
    /// One `batch` frame of landed points (version-checked and
    /// length-validated; see `docs/PROTOCOL.md` for the layout). Each
    /// entry is the reconstructed result plus whether the worker's
    /// cache satisfied it.
    Batch(Vec<(PointResult, bool)>),
    /// A frame that *claimed* to be a batch but failed validation —
    /// unknown version, count/length-prefix mismatch, an unparseable
    /// point, or one whose times are not finite and non-negative. The coordinator must treat the lease as
    /// failed (results may have been lost), unlike [`WorkerEvent::Other`]
    /// noise which is safely ignorable.
    Malformed {
        /// What check the frame failed.
        reason: String,
    },
    /// Every point of the lease landed.
    Completed,
    /// The lease stopped early (worker-side cancellation — e.g. the
    /// worker is shutting down).
    Cancelled,
    /// The worker's sweep errored.
    Failed {
        /// The worker's error message.
        error: String,
    },
    /// The worker's event ring dropped lines before this stream read
    /// them. Lease rings are unbounded so this cannot happen on a
    /// stock worker, but a coordinator must treat it as lease failure
    /// — the dropped lines were results.
    Truncated {
        /// How many lines were dropped.
        dropped: u64,
    },
    /// Snapshots, heartbeats — nothing to merge.
    Other,
}

/// Parse one NDJSON line of a lease stream. `None` only for a line
/// that is not JSON (a torn frame), which fails the lease; JSON
/// without a known string `event` is [`WorkerEvent::Other`], unless it
/// carries a `points` array: only a batch frame does, so it is read as
/// one (and is [`WorkerEvent::Malformed`] if its event was damaged)
/// rather than dropped with the results it carries.
pub fn parse_event(line: &str) -> Option<WorkerEvent> {
    // Batch frames are nearly every byte of a lease stream: a sound
    // one decodes straight into results. Anything else — including a
    // frame that fails a check — takes the tree below, which tells a
    // line that is not JSON at all (`None`) from a bad frame.
    if opens_as_batch(line) {
        if let event @ WorkerEvent::Batch(_) = parse_batch(line) {
            return Some(event);
        }
    }
    let value: Value = serde_json::from_str(line).ok()?;
    let event = match value["event"].as_str().unwrap_or_default() {
        "started" => WorkerEvent::Started,
        "batch" => parse_batch(line),
        "completed" => WorkerEvent::Completed,
        "cancelled" => WorkerEvent::Cancelled,
        "failed" => WorkerEvent::Failed {
            error: value["error"]
                .as_str()
                .unwrap_or("worker reported failure")
                .to_string(),
        },
        "truncated" => WorkerEvent::Truncated {
            dropped: value["dropped"].as_u64().unwrap_or(0),
        },
        _ if value["points"].as_array().is_some() => parse_batch(line),
        _ => WorkerEvent::Other,
    };
    Some(event)
}

/// Whether the line's first member is `"event":"batch"` — where
/// [`synapse_server::lease_batch_line`] puts it.
fn opens_as_batch(line: &str) -> bool {
    let mut parser = serde_json::Parser::new(line);
    let Ok(mut first) = parser.begin_object() else {
        return false;
    };
    matches!(parser.next_key(&mut first), Ok(Some(key)) if key == "event")
        && matches!(parser.parse_str(), Ok(name) if name == "batch")
}

/// Validate and unpack one `batch` frame. Every failure is
/// [`WorkerEvent::Malformed`], never a silent drop: a batch that
/// doesn't check out may have carried results, and the coordinator
/// must fail the lease rather than merge a hole into the grid.
fn parse_batch(line: &str) -> WorkerEvent {
    let malformed = |reason: String| WorkerEvent::Malformed { reason };
    let unsupported = |v: u64| malformed(format!("unsupported batch frame version {v}"));
    let frame = match serde_json::from_str::<BatchFrame>(line) {
        Ok(frame) if frame.event == "batch" => frame,
        Ok(frame) => return malformed(format!("{:?} event is not a batch frame", frame.event)),
        Err(e) => {
            // A newer worker's frame may not fit this layout at all:
            // when that is why it does not decode, say so.
            let version = serde_json::from_str::<Value>(line)
                .ok()
                .and_then(|value| value["v"].as_u64());
            return match version {
                Some(v) if v != BATCH_FRAME_VERSION => unsupported(v),
                _ => malformed(format!("batch frame does not decode: {e}")),
            };
        }
    };
    match frame.v {
        Some(BATCH_FRAME_VERSION) => {}
        Some(v) => return unsupported(v),
        None => return malformed("batch frame missing version".into()),
    }
    let Some(count) = frame.n else {
        return malformed("batch frame missing point count".into());
    };
    let Some(declared_len) = frame.len else {
        return malformed("batch frame missing length prefix".into());
    };
    // `points` is by construction the frame's final key, so its array
    // text occupies exactly the last `len + 1` bytes before the
    // closing brace. Recomputing the array's position from the
    // declared length and checking the structure around it catches
    // truncated, spliced, or re-framed lines.
    let line = line.trim_end();
    let arr_start = match usize::try_from(declared_len)
        .ok()
        .and_then(|len| (line.len() - 1).checked_sub(len))
    {
        Some(start) if line.ends_with('}') => start,
        _ => return malformed("batch length prefix exceeds frame".into()),
    };
    let prefix_ok = line.is_char_boundary(arr_start)
        && line[arr_start..].starts_with('[')
        && line[..arr_start].ends_with("\"points\":");
    if !prefix_ok {
        return malformed("batch length prefix does not match frame".into());
    }
    let Some(entries) = frame.points else {
        return malformed("batch frame missing points array".into());
    };
    if entries.len() as u64 != count {
        return malformed(format!(
            "batch frame declares {count} points but carries {}",
            entries.len()
        ));
    }
    if let Some(at) = entries.iter().position(|e| !e.result.times_are_valid()) {
        return malformed(format!(
            "batch point {at} has a time that is not finite and non-negative"
        ));
    }
    WorkerEvent::Batch(
        entries
            .into_iter()
            .map(|entry| (entry.result, entry.cached))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use synapse_campaign::expand;

    fn spec() -> CampaignSpec {
        CampaignSpec::from_toml(
            r#"
            name = "protocol"
            seed = 1
            machines = ["thinkie"]
            kernels = ["asm", "c"]

            [[workloads]]
            app = "gromacs"
            steps = [1000, 2000]
            "#,
        )
        .unwrap()
    }

    #[test]
    fn lease_request_roundtrips() {
        let s = spec();
        let lease = Lease {
            id: 1,
            start: 1,
            end: 3,
        };
        let json = lease_request_json(&s, &lease);
        let back: LeaseRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back.spec, s);
        assert_eq!((back.start, back.end), (1, 3));
    }

    #[test]
    fn batch_frames_roundtrip_exactly() {
        use std::sync::Arc;
        let s = spec();
        let results: Vec<_> = expand(&s)
            .iter()
            .map(|p| synapse_campaign::simulate_point(p).unwrap())
            .collect();
        let packed: Vec<(Arc<PointResult>, bool)> = results
            .iter()
            .enumerate()
            .map(|(i, r)| (Arc::new(r.clone()), i % 2 == 0))
            .collect();
        // A coordinator causality id travels as an extra `trace` key —
        // the parser must tolerate (and ignore) it.
        let line = synapse_server::lease_batch_line(&packed, Some("t0123456789abcdef"));
        match parse_event(&line) {
            Some(WorkerEvent::Batch(points)) => {
                assert_eq!(points.len(), results.len());
                for ((back, cached), (i, original)) in points.iter().zip(results.iter().enumerate())
                {
                    assert_eq!(back, original, "exact roundtrip, floats included");
                    assert_eq!(*cached, i % 2 == 0);
                }
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // An empty batch is legal (a lease can flush nothing).
        match parse_event(&synapse_server::lease_batch_line::<PointResult>(&[], None)) {
            Some(WorkerEvent::Batch(points)) => assert!(points.is_empty()),
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn corrupt_batch_frames_classify_as_malformed_not_noise() {
        use std::sync::Arc;
        let s = spec();
        let result = synapse_campaign::simulate_point(&expand(&s)[0]).unwrap();
        let good = synapse_server::lease_batch_line(&[(Arc::new(result), false)], None);
        assert!(matches!(parse_event(&good), Some(WorkerEvent::Batch(_))));

        let assert_malformed = |line: &str, why: &str| match parse_event(line) {
            Some(WorkerEvent::Malformed { reason }) => {
                assert!(!reason.is_empty(), "{why}")
            }
            other => panic!("{why}: expected Malformed, got {other:?}"),
        };

        // Unknown frame version: a future worker must not be merged
        // by an old coordinator that can't validate its layout.
        assert_malformed(
            &good.replacen("\"v\":1", "\"v\":2", 1),
            "version from the future",
        );
        assert_malformed(&good.replacen(",\"v\":1", "", 1), "missing version");
        // Bogus length prefix (too large and too small).
        assert_malformed(
            &good.replacen("\"len\":", "\"len\":9", 1),
            "inflated length prefix",
        );
        assert_malformed(
            &good.replacen("\"len\":", "\"len\":1000000000", 1),
            "length prefix past the frame",
        );
        // Count disagreeing with the payload.
        assert_malformed(&good.replacen("\"n\":1", "\"n\":3", 1), "count mismatch");
        // A spliced frame: valid JSON, but the points array was
        // swapped out without fixing the prefix.
        assert_malformed(
            &good.replacen("\"cached\":false", "\"cached\":true", 1),
            "payload length drifted from prefix",
        );
        // A mangled point inside an otherwise-sound frame. (Build a
        // fresh frame so n/len agree with the broken payload.)
        let payload = "[{\"cached\":true,\"result\":{\"no\":1}}]";
        let broken = format!(
            "{{\"event\":\"batch\",\"v\":1,\"n\":1,\"len\":{},\"points\":{}}}",
            payload.len(),
            payload
        );
        assert_malformed(&broken, "unparseable point");

        // A *truncated* line stops being JSON at all (`None`), which
        // fails the lease; JSON without a string `event` is ignored.
        assert!(parse_event(&good[..good.len() / 2]).is_none());
        for line in ["{}", r#"{"event":7}"#, "[1]"] {
            assert!(matches!(parse_event(line), Some(WorkerEvent::Other)));
        }
    }

    #[test]
    fn batch_frames_skip_unknown_keys_and_catch_consistent_lies() {
        use std::sync::Arc;
        let s = spec();
        let packed: Vec<(Arc<PointResult>, bool)> = expand(&s)
            .iter()
            .map(|p| (Arc::new(synapse_campaign::simulate_point(p).unwrap()), true))
            .collect();
        let one = synapse_server::lease_batch_line(&packed[..1], Some("t0123456789abcdef"));
        let two = synapse_server::lease_batch_line(&packed[..2], Some("t0123456789abcdef"));
        let points_of = |line: &str| match parse_event(line) {
            Some(WorkerEvent::Batch(points)) => points,
            other => panic!("expected Batch, got {other:?} for {line}"),
        };
        let reason_of = |line: &str| match parse_event(line) {
            Some(WorkerEvent::Malformed { reason }) => reason,
            other => panic!("expected Malformed, got {other:?} for {line}"),
        };
        let results = |n: usize| -> Vec<(PointResult, bool)> {
            packed[..n]
                .iter()
                .map(|(r, c)| ((**r).clone(), *c))
                .collect()
        };

        // The `trace` echo and a key from some later minor revision
        // are stepped over, nested values and all — as long as
        // `points` stays the final key.
        assert!(two.contains(",\"trace\":\"t0123456789abcdef\","));
        assert_eq!(points_of(&two), results(2));
        let extended = two.replacen(
            ",\"points\":",
            ",\"shard\":{\"of\":[3,\"x\\\"y\"],\"points\":null},\"points\":",
            1,
        );
        assert_eq!(points_of(&extended), results(2));
        let trailing = format!("{},\"late\":1}}", &two[..two.len() - 1]);
        assert!(reason_of(&trailing).contains("length prefix"));

        // A header whose `n` and `len` agree with each other — they are
        // another frame's — but not with the payload behind them.
        let header_end = one.find(",\"trace\"").unwrap();
        let grafted = format!(
            "{}{}",
            &one[..header_end],
            &two[two.find(",\"trace\"").unwrap()..]
        );
        assert!(grafted.contains("\"n\":1,"));
        assert!(reason_of(&grafted).contains("length prefix"));
        // ... and the other way round: too much declared for the payload.
        let starved = format!(
            "{}{}",
            &two[..two.find(",\"trace\"").unwrap()],
            &one[header_end..]
        );
        assert!(reason_of(&starved).contains("length prefix"));

        // A repeated `event` key keeps its last value, as in any JSON
        // object this codec reads: this is a `started` line.
        let renamed = format!("{},\"event\":\"started\"}}", &two[..two.len() - 1]);
        assert!(matches!(parse_event(&renamed), Some(WorkerEvent::Started)));
        // A frame from a newer worker names its version even when the
        // rest of it no longer fits this layout.
        let future = two
            .replacen("\"v\":1", "\"v\":7", 1)
            .replace("\"cached\":true", "\"hit\":1");
        assert_eq!(reason_of(&future), "unsupported batch frame version 7");
    }

    #[test]
    fn lifecycle_and_noise_lines_classify() {
        assert!(matches!(
            parse_event("{\"event\":\"started\",\"total\":4}"),
            Some(WorkerEvent::Started)
        ));
        assert!(matches!(
            parse_event("{\"event\":\"completed\"}"),
            Some(WorkerEvent::Completed)
        ));
        assert!(matches!(
            parse_event("{\"event\":\"cancelled\",\"done\":1}"),
            Some(WorkerEvent::Cancelled)
        ));
        match parse_event("{\"event\":\"failed\",\"error\":\"boom\"}") {
            Some(WorkerEvent::Failed { error }) => assert_eq!(error, "boom"),
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(matches!(
            parse_event("{\"event\":\"snapshot\",\"done\":32}"),
            Some(WorkerEvent::Other)
        ));
        assert!(matches!(
            parse_event("{\"event\":\"truncated\",\"dropped\":5}"),
            Some(WorkerEvent::Truncated { dropped: 5 })
        ));
        assert!(parse_event("not json").is_none());
        // Lease streams carry results in batch frames only: a `point`
        // line is an unknown event like any other.
        assert!(matches!(
            parse_event("{\"event\":\"point\",\"index\":0,\"cached\":true,\"result\":{}}"),
            Some(WorkerEvent::Other)
        ));
    }
}
