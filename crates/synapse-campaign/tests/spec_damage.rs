//! Damaged bytes for the spec parsers. `CampaignSpec::from_toml` and
//! `from_json` read untrusted `POST /campaigns` bodies, and the server
//! answers them on its reactor with no `catch_unwind`, so every input
//! must come back `Ok` or `Err` — never a panic, and never a stack
//! overflow. The corpus is the shipped example specs (and their JSON
//! texts), damaged by truncation, byte flips, junk, repeated lines,
//! hostile values and deep nesting. An accepted spec is also counted
//! (`point_count`), as the server does before it queues the job.

#[path = "../../../vendor/serde_json/tests/support/mod.rs"]
mod support;

mod damage;

use std::panic::{catch_unwind, AssertUnwindSafe};

use damage::damage;
use support::Rng;
use synapse_campaign::CampaignSpec;

/// Cases per corpus text.
const CASES: usize = 300;

fn corpus() -> Vec<String> {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples");
    let mut texts = Vec::new();
    for dir in [root.to_string(), format!("{root}/paper")] {
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().is_some_and(|e| e == "toml"))
            .collect();
        paths.sort();
        for path in paths {
            let toml = std::fs::read_to_string(&path).unwrap();
            let spec = CampaignSpec::from_toml(&toml).unwrap();
            texts.push(serde_json::to_string(&spec).unwrap());
            texts.push(toml);
        }
    }
    assert!(texts.len() >= 10, "{} corpus texts", texts.len());
    texts
}

#[test]
fn damaged_specs_are_rejected_or_accepted_never_a_panic() {
    let (mut accepted, mut rejected) = (0, 0);
    for (n, clean) in corpus().into_iter().enumerate() {
        let mut rng = Rng::new(0xd4a3 + n as u64);
        for case in 0..CASES {
            let mut text = clean.clone();
            for _ in 0..1 + rng.below(3) {
                damage(&mut text, &mut rng);
            }
            for parse in [CampaignSpec::from_toml, CampaignSpec::from_json] {
                let parsed = catch_unwind(AssertUnwindSafe(|| {
                    parse(&text).map(|spec| spec.point_count())
                }));
                match parsed {
                    Ok(Ok(_)) => accepted += 1,
                    Ok(Err(_)) => rejected += 1,
                    Err(_) => {
                        let shown: String = text.chars().take(600).collect();
                        panic!("text {n} case {case} panicked: {shown:?}");
                    }
                }
            }
        }
    }
    // Damage that leaves a spec valid must occur too, or the accepting
    // paths went untested.
    assert!(accepted > 100, "{accepted} accepted, {rejected} rejected");
    assert!(rejected > 1000, "{accepted} accepted, {rejected} rejected");
}
