//! The streaming JSON codec against the tree codec on the types that
//! actually cross a wire or land in the cache: same bytes written,
//! same values read, same texts rejected. The shape-by-shape version
//! of this lives in `vendor/serde_json/tests/codec_props.rs`, whose
//! helpers these tests share.

#[path = "../../../vendor/serde_json/tests/support/mod.rs"]
mod support;

use support::{check_codec, Read, Rng};
use synapse_campaign::{expand, simulate_point, CampaignReport, CampaignSpec};
use synapse_server::LeaseRequest;
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
        let doc = Document::new(result.fingerprint.as_str(), result).unwrap();
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
