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
use synapse_server::{LeaseRequest, BATCH_FRAME_VERSION};

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
    /// unknown version, count/length-prefix mismatch, or an
    /// unparseable point. The coordinator must treat the lease as
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

/// Parse one NDJSON line of a lease stream. `None` for non-JSON lines
/// (a malformed stream is treated as a transport failure by the
/// caller when the terminal event never arrives).
pub fn parse_event(line: &str) -> Option<WorkerEvent> {
    let value: Value = serde_json::from_str(line).ok()?;
    let event = match value["event"].as_str()? {
        "started" => WorkerEvent::Started,
        "batch" => parse_batch(line, &value),
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
        _ => WorkerEvent::Other,
    };
    Some(event)
}

/// Validate and unpack one `batch` frame. Every failure is
/// [`WorkerEvent::Malformed`], never a silent drop: a batch that
/// doesn't check out may have carried results, and the coordinator
/// must fail the lease rather than merge a hole into the grid.
fn parse_batch(line: &str, value: &Value) -> WorkerEvent {
    let malformed = |reason: &str| WorkerEvent::Malformed {
        reason: reason.to_string(),
    };
    match value["v"].as_u64() {
        Some(BATCH_FRAME_VERSION) => {}
        Some(v) => {
            return WorkerEvent::Malformed {
                reason: format!("unsupported batch frame version {v}"),
            }
        }
        None => return malformed("batch frame missing version"),
    }
    let Some(count) = value["n"].as_u64() else {
        return malformed("batch frame missing point count");
    };
    let Some(declared_len) = value["len"].as_u64() else {
        return malformed("batch frame missing length prefix");
    };
    // `points` is by construction the frame's final key, so its array
    // text occupies exactly the last `len + 1` bytes before the
    // closing brace. Recomputing the array's position from the
    // declared length and checking the structure around it catches
    // truncated, spliced, or re-framed lines.
    let line = line.trim_end();
    let declared_len = declared_len as usize;
    let arr_start = match (line.len() - 1).checked_sub(declared_len) {
        Some(start) if line.ends_with('}') => start,
        _ => return malformed("batch length prefix exceeds frame"),
    };
    let prefix_ok = line.is_char_boundary(arr_start)
        && line[arr_start..].starts_with('[')
        && line[..arr_start].ends_with("\"points\":");
    if !prefix_ok {
        return malformed("batch length prefix does not match frame");
    }
    let Some(entries) = value["points"].as_array() else {
        return malformed("batch frame missing points array");
    };
    if entries.len() as u64 != count {
        return WorkerEvent::Malformed {
            reason: format!(
                "batch frame declares {count} points but carries {}",
                entries.len()
            ),
        };
    }
    let mut points = Vec::with_capacity(entries.len());
    for (i, entry) in entries.iter().enumerate() {
        let Some(cached) = entry["cached"].as_bool() else {
            return WorkerEvent::Malformed {
                reason: format!("batch point {i} missing cached flag"),
            };
        };
        let Ok(result) = serde_json::from_value::<PointResult>(entry["result"].clone()) else {
            return WorkerEvent::Malformed {
                reason: format!("batch point {i} does not parse as a result"),
            };
        };
        points.push((result, cached));
    }
    WorkerEvent::Batch(points)
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
        match parse_event(&synapse_server::lease_batch_line(&[], None)) {
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

        // A *truncated* line stops being JSON at all → transport-level
        // noise (`None`); the missing terminal event fails the lease.
        assert!(parse_event(&good[..good.len() / 2]).is_none());
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
