//! The streaming JSON codec against the tree codec on the types that
//! actually cross a wire or land in the cache: same bytes written,
//! same values read, same texts rejected. The shape-by-shape version
//! of this lives in `vendor/serde_json/tests/codec_props.rs`, whose
//! helpers these tests share.

#[path = "../../../vendor/serde_json/tests/support/mod.rs"]
mod support;

use std::path::Path;
use std::sync::Arc;

use support::{check_codec, Read, Rng};
use synapse_campaign::{
    expand, simulate_point, CampaignReport, CampaignSpec, PointResult, Probe, ResultCache,
    ScenarioPoint,
};
use synapse_cluster::protocol::{parse_event, WorkerEvent};
use synapse_server::{lease_batch_line, LeaseRequest};
use synapse_store::Document;

fn spec() -> CampaignSpec {
    let mut spec = CampaignSpec::from_toml(
        r#"
        name = "wire"
        seed = 18446744073709551615
        machines = ["thinkie", "comet"]
        kernels = ["asm", "c"]
        threads = [1, 8]
        sample_rates = [2.0, 10.5]
        noise_cv = 0.02

        [[workloads]]
        app = "gromacs"
        steps = [1000, 20000]

        [pilot]
        policy = "backfill"
        "#,
    )
    .unwrap();
    // The TOML reader takes no embedded quotes; the JSON codec must.
    spec.name = "wire \"codec\"\\ é\n".into();
    spec
}

#[test]
fn wire_types_write_and_read_like_the_tree() {
    let spec = spec();
    let points = expand(&spec);
    let results: Vec<_> = points.iter().map(|p| simulate_point(p).unwrap()).collect();
    let report = CampaignReport::assemble(&spec, &results).unwrap();
    let lease = LeaseRequest {
        spec: spec.clone(),
        start: 3,
        end: points.len(),
    };
    let mut rng = Rng::new(0x5eed);
    let mut reads = Vec::new();
    for (point, result) in points.iter().zip(&results).step_by(5) {
        reads.extend(check_codec(point, &mut rng, 12));
        reads.extend(check_codec(result, &mut rng, 12));
        let doc = Document::new(&*result.fingerprint.hex(), result).unwrap();
        reads.extend(check_codec(&doc, &mut rng, 12));
    }
    reads.extend(check_codec(&spec, &mut rng, 48));
    reads.extend(check_codec(&lease, &mut rng, 48));
    reads.extend(check_codec(&report, &mut rng, 12));
    reads.extend(check_codec(&results, &mut rng, 6));
    // Both verdicts were reached, so both sides of "same accept set"
    // were exercised.
    let count = |verdict| reads.iter().filter(|r| **r == verdict).count();
    assert!(count(Read::Accepted) > 50, "{reads:?}");
    assert!(count(Read::Rejected) > 50, "{reads:?}");
}

/// A copy of the committed v4 cache directory (opening one takes its
/// lock, which creates a file) and the spec it was written by.
fn fixture_cache(tag: &str) -> (std::path::PathBuf, CampaignSpec) {
    let fixture =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../synapse-campaign/tests/fixtures/cache_v4");
    let copy = std::env::temp_dir().join(format!("synapse-wire-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&copy);
    let mut stack = vec![fixture.join("cache")];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let to = copy.join(path.strip_prefix(fixture.join("cache")).unwrap());
                std::fs::create_dir_all(to.parent().unwrap()).unwrap();
                std::fs::copy(&path, to).unwrap();
            }
        }
    }
    let spec = std::fs::read_to_string(fixture.join("spec.toml")).unwrap();
    (copy, CampaignSpec::from_toml(&spec).unwrap())
}

/// A grid index to run a stored result at, in one of five relations to
/// the index it was stored with: equal, zero, smaller, larger, or with
/// more digits.
fn run_index(stored: usize, rng: &mut Rng) -> usize {
    match rng.below(5) {
        0 => stored,
        1 => 0,
        2 => rng.below(stored.max(1)),
        3 => stored + 1 + rng.below(3),
        _ => stored * 1000 + 1000 + rng.below(1000),
    }
}

#[test]
fn stored_text_frames_exactly_like_the_decoded_result() {
    // The wire spec's results, re-stored each round under a new index,
    // and the 16 documents of a cache an older build wrote.
    let wire: Vec<PointResult> = expand(&spec())
        .iter()
        .map(|p| simulate_point(p).unwrap())
        .collect();
    let memory = ResultCache::in_memory();
    let (dir, fixture_spec) = fixture_cache("frames");
    let disk = ResultCache::open(&dir).unwrap();
    let fixture = expand(&fixture_spec);
    assert_eq!(disk.len(), 16);

    let mut rng = Rng::new(0xf2a3e);
    let mut frames = 0;
    let mut probe = Probe::new();
    for round in 0..64 {
        let mut hits: Vec<(&ResultCache, ScenarioPoint, usize)> = Vec::new();
        for result in &wire {
            let mut stored = result.clone();
            stored.point.index = rng.pick(&[0, 7, 42, 977, 123_456]);
            memory.put(&stored.fingerprint.hex(), &stored).unwrap();
            hits.push((&memory, result.point, stored.point.index));
        }
        for point in &fixture {
            let key = probe.write(point).hex();
            hits.push((&disk, *point, disk.get(&key).unwrap().point.index));
        }
        // Shuffled, so frames mix both sources.
        for i in (1..hits.len()).rev() {
            hits.swap(i, rng.below(i + 1));
        }
        let mut texts = Vec::new();
        let mut decoded = Vec::new();
        for (cache, mut point, stored) in hits {
            point.index = run_index(stored, &mut rng);
            let key = probe.write(&point).hex();
            let text = cache.hit_text(&probe).unwrap();
            let result = cache.hit(&probe).unwrap();
            // The verified hit is the full decode, rebound.
            let mut decoded_in_full = cache.get(&key).unwrap();
            decoded_in_full.point.index = point.index;
            assert_eq!(result, decoded_in_full);
            assert_eq!(
                serde_json::to_string(&text).unwrap(),
                serde_json::to_string(&result).unwrap()
            );
            let cached = rng.chance(1, 2);
            texts.push((Arc::new(text), cached));
            decoded.push((Arc::new(result), cached));
        }
        let trace = (round % 2 == 0).then_some("t0123456789abcdef");
        let mut at = 0;
        while at < texts.len() {
            let end = (at + 1 + rng.below(64)).min(texts.len());
            let line = lease_batch_line(&texts[at..end], trace);
            assert_eq!(line, lease_batch_line(&decoded[at..end], trace));
            match parse_event(&line) {
                Some(WorkerEvent::Batch(points)) => {
                    let want: Vec<(PointResult, bool)> = decoded[at..end]
                        .iter()
                        .map(|(r, c)| ((**r).clone(), *c))
                        .collect();
                    assert_eq!(points, want);
                }
                other => panic!("frame decoded as {other:?}"),
            }
            frames += 1;
            at = end;
        }
    }
    assert!(frames > 64, "{frames} frames");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_frame_whose_times_are_not_finite_and_non_negative_is_malformed() {
    let mut result = simulate_point(&expand(&spec())[0]).unwrap();
    (result.tx, result.app_tx) = (1234.5, 678.25);
    let text = serde_json::to_string(&result).unwrap();
    // A frame around one point's result text, its count and length
    // prefix consistent with it.
    let frame = |text: &str| {
        let points = format!("[{{\"cached\":false,\"result\":{text}}}]");
        format!(
            "{{\"event\":\"batch\",\"v\":1,\"n\":1,\"len\":{},\"points\":{points}}}",
            points.len()
        )
    };
    match parse_event(&frame(&text)) {
        Some(WorkerEvent::Batch(points)) => assert_eq!(points, vec![(result, false)]),
        other => panic!("sound frame decoded as {other:?}"),
    }
    for times in [
        "\"tx\":-1e999,\"app_tx\":1e999",
        "\"tx\":-1e999,\"app_tx\":678.25",
        "\"tx\":1234.5,\"app_tx\":1e999",
        "\"tx\":-1.0,\"app_tx\":678.25",
    ] {
        let (tx, app_tx) = times.split_once(',').unwrap();
        let bad = text
            .replacen("\"tx\":1234.5", tx, 1)
            .replacen("\"app_tx\":678.25", app_tx, 1);
        assert_ne!(bad, text);
        match parse_event(&frame(&bad)) {
            Some(WorkerEvent::Malformed { reason }) => {
                assert!(reason.contains("finite and non-negative"), "{reason}")
            }
            other => panic!("{times}: expected Malformed, got {other:?}"),
        }
    }
}

#[test]
fn a_frame_whose_fingerprint_is_not_sixteen_lowercase_hex_digits_is_malformed() {
    let result = simulate_point(&expand(&spec())[0]).unwrap();
    let text = serde_json::to_string(&result).unwrap();
    let hex = result.fingerprint.to_string();
    let frame = |text: &str| {
        let points = format!("[{{\"cached\":true,\"result\":{text}}}]");
        format!(
            "{{\"event\":\"batch\",\"v\":1,\"n\":1,\"len\":{},\"points\":{points}}}",
            points.len()
        )
    };
    assert!(matches!(
        parse_event(&frame(&text)),
        Some(WorkerEvent::Batch(_))
    ));
    for print in [
        "xyz".to_string(),
        hex[1..].to_string(),
        format!("{hex}0"),
        hex.to_uppercase(),
    ] {
        let bad = text.replacen(&hex, &print, 1);
        assert_ne!(bad, text);
        match parse_event(&frame(&bad)) {
            Some(WorkerEvent::Malformed { reason }) => {
                assert!(reason.contains("does not decode"), "{reason}")
            }
            other => panic!("{print}: expected Malformed, got {other:?}"),
        }
    }
}
