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

use std::panic::{catch_unwind, AssertUnwindSafe};

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

/// Text that parses as a value, or nearly, and that a parser could
/// mishandle, `|`-separated; from `nan` on, each is a whole value.
const JUNK: &str = "[|]|{|}|\"|=|,|:|#|\n|\\|\0|é|.|[[workloads]]\n|[pilot]\n|[a.b]\n|\
                    nan|-inf|1e999|-1|18446744073709551616|4294967296|null";

/// A random `JUNK` piece, or one of its whole values.
fn junk(rng: &mut Rng, values_only: bool) -> &'static str {
    let junk: Vec<&str> = JUNK.split('|').collect();
    let from = if values_only { 17 } else { 0 };
    junk[from + rng.below(junk.len() - from)]
}

/// One damage, applied in place.
fn damage(text: &mut String, rng: &mut Rng) {
    let at = |text: &String, rng: &mut Rng| {
        let mut at = rng.below(text.len() + 1);
        while !text.is_char_boundary(at) {
            at -= 1;
        }
        at
    };
    match rng.below(7) {
        0 => text.truncate(at(text, rng)),
        1 => {
            let mut bytes = std::mem::take(text).into_bytes();
            if !bytes.is_empty() {
                let i = rng.below(bytes.len());
                bytes[i] ^= 1 << rng.below(8);
            }
            *text = String::from_utf8_lossy(&bytes).into_owned();
        }
        2 => text.insert_str(at(text, rng), junk(rng, false)),
        3 => {
            // A repeated line: a repeated key, table or array entry.
            let lines: Vec<&str> = text.lines().collect();
            let line = format!("\n{}\n", lines[rng.below(lines.len())]);
            text.insert_str(at(text, rng), &line);
        }
        4 => {
            // A value swapped for a hostile one.
            if let Some(eq) = text.find(['=', ':']) {
                let end = text[eq..].find(['\n', ',']).map_or(text.len(), |e| eq + e);
                text.replace_range(eq + 1..end, junk(rng, true));
            }
        }
        5 => {
            // Arrays, objects or tables nested `depth` deep, closed or not.
            let depth = rng.pick(&[2, 127, 128, 129, 1_000, 100_000]);
            let (open, close) = rng.pick(&[("[", "]"), ("{\"a\":", "}")]);
            let mut nest = format!("{}1", open.repeat(depth));
            if rng.chance(1, 2) {
                nest.push_str(&close.repeat(depth));
            }
            let nest = match rng.below(3) {
                0 => format!("\nx = {nest}\n"),
                1 => nest,
                _ => format!("\n[{}]\n", vec!["a"; depth].join(".")),
            };
            text.insert_str(at(text, rng), &nest);
        }
        _ => {
            // A long axis: many copies of one value.
            if let Some(open) = text.find('[') {
                text.insert_str(open + 1, &"1, ".repeat(rng.pick(&[1_000, 20_000])));
            }
        }
    }
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
