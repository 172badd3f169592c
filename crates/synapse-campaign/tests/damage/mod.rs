//! Mutators for damaged-bytes tests: truncation, byte flips, junk,
//! repeated lines, hostile values, deep nesting and long arrays, each
//! applied to a text in place. Shared by `spec_damage.rs` here and
//! `crates/synapse-cluster/tests/read_damage.rs` (which includes this
//! file by path); the includer declares `mod support` for [`Rng`].

#![allow(dead_code, reason = "each includer uses its own subset")]

use crate::support::Rng;

/// Text that parses as a value, or nearly, and that a parser could
/// mishandle, `|`-separated; from `nan` on, each is a whole value.
const JUNK: &str = "[|]|{|}|\"|=|,|:|#|\n|\\|\0|é|.|[[workloads]]\n|[pilot]\n|[a.b]\n|\
                    nan|-inf|1e999|-1|18446744073709551616|4294967296|null";

/// A random `JUNK` piece, or one of its whole values.
pub fn junk(rng: &mut Rng, values_only: bool) -> &'static str {
    let junk: Vec<&str> = JUNK.split('|').collect();
    let from = if values_only { 17 } else { 0 };
    junk[from + rng.below(junk.len() - from)]
}

/// One damage, applied in place.
pub fn damage(text: &mut String, rng: &mut Rng) {
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
