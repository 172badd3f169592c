//! Damaged bytes for the store's readers. A saved store's manifest or
//! one of its shard files is damaged by the shared mutators
//! (truncation, byte flips, junk, repeated lines, hostile values, deep
//! nesting, long arrays, repeated and retyped keys) and read by `open`,
//! by `open_checked`, and by a handle whose get misses into it as into
//! a peer's save; damaged document bodies are read as a [`Document`].
//!
//! No input may panic. A damaged store that still opens holds only
//! documents with canonical bodies; a damaged peer file that does not
//! open folds nothing into a handle that misses on it; a damaged body
//! that is still JSON reads as its canonical text.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use serde::Deserialize;
use serde_json::{json, Value};

use super::{ShardedDb, MANIFEST_FILE};
use crate::document::{Document, DEFAULT_DOC_LIMIT};
use crate::error::StoreError;
use crate::fs::fake::{Disk, FakeFs};

use super::support;

#[path = "../../../synapse-campaign/tests/damage/mod.rs"]
mod damage;

use damage::damage_json;
use support::Rng;

/// Damaged texts per reader.
const CASES: u64 = 300;

const DIR: &str = "/store";

const SHARDS: [u8; 6] = [0x00, 0x05, 0x09, 0x10, 0x42, 0xff];

/// The part of a body the checked rule reads.
#[derive(Deserialize)]
struct Numbered {
    n: u64,
}

fn body(n: u64) -> Value {
    json!({"n": n, "s": "é\n\"", "f": [1.5, -0.0, null, 1e300], "ok": true})
}

fn open(disk: &Arc<Mutex<Disk>>, checked: bool) -> Result<ShardedDb, StoreError> {
    let admit = match checked {
        true => |doc: &Document| doc.decode::<Numbered>().is_ok_and(|b| b.n % 2 == 0),
        false => |_: &Document| true,
    };
    ShardedDb::open_on(
        FakeFs::new(disk),
        DIR.into(),
        DEFAULT_DOC_LIMIT,
        "damage".into(),
        2,
        admit,
    )
}

/// `run` on `text`, which must not panic.
fn guarded<R>(text: &str, what: &str, run: impl FnOnce() -> R) -> R {
    catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|_| {
        let shown: String = text.chars().take(600).collect();
        panic!("{what} panicked on {shown:?}")
    })
}

fn disk_of(files: &BTreeMap<PathBuf, String>) -> Arc<Mutex<Disk>> {
    let disk = Arc::<Mutex<Disk>>::default();
    put(&disk, files);
    disk
}

/// Put `files` in place, each under a fresh inode, as a peer's save
/// would.
fn put(disk: &Mutex<Disk>, files: &BTreeMap<PathBuf, String>) {
    let mut disk = disk.lock().unwrap();
    for (path, text) in files {
        disk.put(path, text.clone());
    }
}

fn files(disk: &Mutex<Disk>) -> BTreeMap<PathBuf, String> {
    let disk = disk.lock().unwrap();
    disk.files
        .iter()
        .map(|(path, file)| (path.clone(), file.1.clone()))
        .collect()
}

/// Whether every document `db` holds is one its body's canonical text
/// reads back as.
fn canonical(db: &ShardedDb) -> bool {
    let mut ok = true;
    db.for_each(|doc| {
        let again = serde_json::from_str::<Document>(&serde_json::to_string(doc).unwrap());
        ok &= again.is_ok_and(|again| again == *doc);
    });
    ok
}

#[test]
fn damaged_stores_and_bodies_are_rejected_never_a_panic() {
    // A saved and compacted store, and the same store after a peer
    // saved eight more documents into shard 42's file.
    let disk = Arc::default();
    let writer = open(&disk, false).unwrap();
    for n in 0..48 {
        let key = format!("{:02x}{n:014x}", SHARDS[n as usize % SHARDS.len()]);
        writer
            .upsert(Document::new(key, &body(n)).unwrap())
            .unwrap();
    }
    writer.save().unwrap();
    writer.compact_with_target(10).unwrap();
    let before = files(&disk);
    for n in (100..148).step_by(6) {
        writer
            .upsert(Document::new(format!("42{n:014x}"), &body(n)).unwrap())
            .unwrap();
    }
    writer.save().unwrap();
    let after = files(&disk);
    let changed: Vec<&PathBuf> = after
        .keys()
        .filter(|p| before.get(*p) != after.get(*p))
        .collect();
    let manifest = PathBuf::from(DIR).join(MANIFEST_FILE);
    assert_eq!(changed.len(), 2, "{changed:?}");
    let shard_file = changed.iter().copied().find(|p| **p != manifest).unwrap();
    let missed = format!("42{:014x}", 100);

    let mut rng = Rng::new(0x5707e);
    let mut rejected = [0; 3];
    for case in 0..CASES {
        let (path, mut text) = match case % 2 {
            0 => (&manifest, after[&manifest].clone()),
            _ => (shard_file, after[shard_file].clone()),
        };
        for _ in 0..1 + rng.below(3) {
            damage_json(&mut text, &mut rng);
        }
        let mut damaged = after.clone();
        damaged.insert(path.clone(), text.clone());
        let what = format!("case {case} ({})", path.display());

        // The damaged store opened, checked or not.
        let opened = guarded(&text, &what, || {
            let opened = [false, true].map(|checked| open(&disk_of(&damaged), checked));
            for db in opened.iter().flatten() {
                assert!(
                    canonical(db),
                    "{what}: a document read in a form it does not write"
                );
            }
            opened[0].is_ok()
        });
        rejected[0] += usize::from(!opened);

        // A handle on the clean store misses into the damaged save.
        let disk = disk_of(&before);
        let reader = open(&disk, false).unwrap();
        put(&disk, &damaged);
        let found = guarded(&text, &what, || reader.get(&missed));
        if path == shard_file && !opened {
            assert!(
                found.is_none() && reader.len() == 48,
                "{what}: a damaged file folded in"
            );
            rejected[1] += 1;
        }

        // A damaged body, read as a document.
        let mut text = serde_json::to_string(&body(case)).unwrap();
        damage_json(&mut text, &mut rng);
        let read = guarded(&text, &what, || {
            serde_json::from_str::<Document>(&format!(r#"{{"body":{text},"id":"k"}}"#))
        });
        match serde_json::from_str::<Value>(&text) {
            Ok(value) => assert_eq!(read.unwrap().text(), serde_json::to_string(&value).unwrap()),
            Err(_) => rejected[2] += usize::from(read.is_err()),
        }
    }
    // Each reader rejects much of what it is fed; the rest left a text
    // as sound as the clean one.
    assert!(
        rejected.iter().all(|&r| r > CASES as usize / 3),
        "{rejected:?}"
    );
}
