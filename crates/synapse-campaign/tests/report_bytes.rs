//! The report's bytes, pinned: the compact and pretty renderings of
//! `examples/campaign.toml`'s report, each folded into one FNV-1a hash.
//! The golden digest pins every point's result text; this pins what the
//! report writer makes of them — key order, number forms, indentation —
//! so a change to the JSON writer that moves a report byte fails here.

use synapse_campaign::grid::fnv1a;
use synapse_campaign::{run_campaign_on, CampaignSpec, CancelToken, ResultCache, RunConfig};

#[test]
fn the_example_reports_hash_to_their_pinned_digests() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/campaign.toml");
    let spec = CampaignSpec::from_toml(&std::fs::read_to_string(path).unwrap()).unwrap();
    let cache = ResultCache::in_memory();
    let outcome = run_campaign_on(
        &spec,
        &RunConfig { workers: 2 },
        &cache,
        &|_| {},
        &CancelToken::new(),
    )
    .unwrap();
    assert_eq!(outcome.report.points, 192);
    let compact = fnv1a(outcome.report.to_json().unwrap().as_bytes(), 0);
    let pretty = fnv1a(outcome.report.to_json_pretty().unwrap().as_bytes(), 0);
    assert_eq!(compact, 0x864a_c7a9_4512_6e28, "compact {compact:#018x}");
    assert_eq!(pretty, 0x0c8f_cf2c_730f_3dd2, "pretty {pretty:#018x}");
}
