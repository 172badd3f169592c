//! The store's crash property, over the in-memory fake filesystem.
//!
//! Each seed draws two or three handles on one directory — handle 0
//! admits even values only — and a mix of upserts, gets that may fold
//! a peer's save in, saves, compactions and reopens. It plays the mix
//! three times: once crash-free, to count the mutating steps; once
//! crashing at a seeded one of those steps; and once more crash-free
//! with the crashed operation skipped. A crashed handle is reopened,
//! re-upserts what it had not saved, and redoes the operation — in the
//! replay too, at the same point. The crashed play must leave the
//! manifest and the shard files it lists byte for byte as the replay
//! does. A key's body is a function of the key, so every check
//! compares bytes. A failing seed reports its operations and the
//! filesystem steps they took.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

use super::{shard_of, Dir, Group, ShardedDb, MANIFEST_FILE, SHARD_DIR};
use crate::document::{Document, DEFAULT_DOC_LIMIT};
use crate::fs::fake::{Disk, FakeFs};

use super::support::Rng;

/// Seeds the property plays.
const SEEDS: u64 = 1000;

/// The shards keys land in: few, so handles share files and
/// compaction groups meet.
const SHARDS: [u8; 6] = [0x00, 0x05, 0x09, 0x10, 0x42, 0xff];

/// The handle that admits even values only.
const CHECKED: usize = 0;

/// The admit rule of handle 0, and of the others.
const RULES: [fn(&Document) -> bool; 2] = [even, |_| true];

const DIR: &str = "/store";

#[derive(Debug, Clone, Copy)]
enum Op {
    Upsert(u8, u64),
    Get(u8, u64),
    Save,
    Compact(usize),
    Reopen,
}

fn even(doc: &Document) -> bool {
    doc.decode::<u64>().is_ok_and(|n| n % 2 == 0)
}

/// The admit rule of handle `h`.
fn rule(h: usize) -> fn(&Document) -> bool {
    RULES[usize::from(h != CHECKED)]
}

/// Whether handle `h` serves `key`'s document.
fn admits(h: usize, key: &str) -> bool {
    rule(h)(&doc(key))
}

/// The one document a key ever has: its body is its tail.
fn doc(key: &str) -> Document {
    let tail = u64::from_str_radix(&key[2..], 16).unwrap();
    Document::new(key, &tail).unwrap()
}

type Check = Result<(), String>;

macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        if !$cond {
            return Err(format!($($msg)+));
        }
    };
}

fn open(disk: &Arc<Mutex<Disk>>, h: usize) -> Result<(Arc<FakeFs>, ShardedDb), String> {
    let fs = FakeFs::new(disk);
    let workers = 1 + disk.lock().unwrap().steps as usize % 3;
    let db = ShardedDb::open_on(
        fs.clone(),
        DIR.into(),
        DEFAULT_DOC_LIMIT,
        String::new(),
        workers,
        rule(h),
    );
    Ok((fs, db.map_err(|e| format!("h{h}: the open failed: {e}"))?))
}

/// One play of a seed's operations.
struct Run {
    disk: Arc<Mutex<Disk>>,
    handles: Vec<(Arc<FakeFs>, ShardedDb)>,
    /// Per handle, keys upserted since it opened, and since its last
    /// save or compaction.
    own: Vec<BTreeSet<String>>,
    pending: Vec<BTreeSet<String>>,
    /// Keys a save or compaction made durable, and all keys upserted.
    acked: BTreeSet<String>,
    upserted: BTreeSet<String>,
    log: Vec<String>,
}

impl Run {
    fn disk(&self) -> MutexGuard<'_, Disk> {
        self.disk.lock().unwrap()
    }

    /// Play `ops`; a crash — or, in a replay, the `skip`ped operation —
    /// ends in a reopen, the re-upserts and a redo. Returns the index
    /// of the operation that crashed.
    fn play(&mut self, ops: &[(usize, Op)], skip: Option<usize>) -> Result<Option<usize>, String> {
        let mut crashed = None;
        for (i, &(h, op)) in ops.iter().enumerate() {
            self.log.push(format!("{i:3} h{h} {op:?}"));
            if let Op::Reopen = op {
                // A process that exits unsaved loses its upserts.
                self.pending[h].clear();
            }
            if skip != Some(i) {
                self.apply(h, op)?;
                if !self.handles[h].0.dead() {
                    continue;
                }
            }
            crashed = Some(i);
            self.log
                .push(format!("    h{h} crashed: reopen, re-upsert, redo"));
            self.reopen(h)?;
            for key in self.pending[h].clone() {
                self.upsert(h, key);
            }
            if let Op::Save | Op::Compact(_) = op {
                self.apply(h, op)?;
            }
        }
        Ok(crashed)
    }

    fn upsert(&mut self, h: usize, key: String) {
        self.handles[h].1.upsert(doc(&key)).unwrap();
        self.own[h].insert(key.clone());
        self.pending[h].insert(key.clone());
        self.upserted.insert(key);
    }

    fn apply(&mut self, h: usize, op: Op) -> Check {
        let (fs, db) = &self.handles[h];
        let (held, folded, dirty) = (db.len(), db.stats().reconciled_docs, db.dirty_shards());
        match op {
            Op::Upsert(shard, tail) => {
                self.upsert(h, format!("{shard:02x}{tail:014x}"));
                return Ok(());
            }
            Op::Reopen => return self.reopen(h),
            Op::Get(shard, tail) => {
                // A saved document the handle admits is found, as
                // written, and a repeated get reads nothing.
                let key = format!("{shard:02x}{tail:014x}");
                let found = db.get(&key);
                let (reads, saved) = (self.disk().reads, self.acked.contains(&key));
                let ok = found.is_some() || !saved || !admits(h, &key);
                let ok = ok && found.iter().all(|found| *found == doc(&key));
                let ok = ok && db.get(&key) == found && self.disk().reads == reads;
                ensure!(
                    ok && db.dirty_shards() == dirty,
                    "h{h}: the get read {found:?}"
                );
            }
            Op::Save | Op::Compact(_) => {
                let commit = || match op {
                    Op::Compact(target) => {
                        db.compact_with_target(target).map(|c| (c.changed, None))
                    }
                    _ => db.save().map(|s| (s.manifest_written, Some(s))),
                };
                let before = self.disk().files.clone();
                let first = commit();
                if fs.dead() {
                    return Ok(());
                }
                let (_, stats) = first.map_err(|e| format!("h{h}: it failed: {e}"))?;
                // A save writes the files of groups with a dirty shard
                // and the manifest; a second pass writes nothing.
                let after = self.disk().files.clone();
                let groups = self.manifest()?;
                let new =
                    |path| before.get(path).map(|b: &(u64, String)| b.0) != Some(after[path].0);
                let written: Vec<_> = after.keys().filter(|path| new(*path)).collect();
                let data: Vec<(&Group, usize)> = written
                    .iter()
                    .filter_map(|path| {
                        let group = groups.iter().find(|g| path.ends_with(&g.file))?;
                        let docs = serde_json::from_str::<Vec<Document>>(&after[*path].1).ok()?;
                        Some((group, docs.len()))
                    })
                    .collect();
                let dirty_only = data
                    .iter()
                    .all(|(g, _)| g.shards.iter().any(|s| dirty.contains(s)));
                let counted = stats.is_none_or(|s| {
                    s.data_files_written == data.len()
                        && s.docs_written == data.iter().map(|d| d.1).sum::<usize>()
                        && data.len() + usize::from(s.manifest_written) == written.len()
                });
                ensure!(
                    stats.is_none() || dirty_only && counted,
                    "h{h}: {stats:?}, {written:?}"
                );
                let again = commit();
                let idle = again.is_ok_and(|again| !again.0) && self.disk().files == after;
                ensure!(fs.dead() || idle, "h{h}: the second pass wrote");
                self.acked.append(&mut self.pending[h]);
            }
        }
        // What a fold brings in is what the handle lacked, and counted.
        let db = &self.handles[h].1;
        let (gained, counted) = (db.len() - held, db.stats().reconciled_docs - folded);
        ensure!(
            counted == gained as u64,
            "h{h}: {gained} folded in, {counted} counted"
        );
        let mut rejected = Vec::new();
        self.handles[CHECKED].1.for_each(|doc| {
            if !even(doc) && !self.own[CHECKED].contains(&doc.id) {
                rejected.push(doc.id.clone());
            }
        });
        ensure!(
            rejected.is_empty(),
            "h0 holds {rejected:?}, which it does not admit"
        );
        Ok(())
    }

    /// The manifest's text and the text of each shard file it lists.
    fn committed(&self) -> Result<Vec<String>, String> {
        let files = self.disk().files.clone();
        let text = |path: &Path| files.get(path).map(|file| file.1.clone());
        let groups = self.manifest()?.into_iter();
        let listed = groups.map(|g| Path::new(DIR).join(SHARD_DIR).join(g.file));
        Ok(std::iter::once(Path::new(DIR).join(MANIFEST_FILE))
            .chain(listed)
            .filter_map(|path| text(&path))
            .collect())
    }

    /// The groups the manifest on disk lists.
    fn manifest(&self) -> Result<Vec<Group>, String> {
        let dir = Dir {
            path: DIR.into(),
            fs: FakeFs::new(&self.disk),
        };
        let groups = dir
            .read_manifest()
            .map_err(|e| format!("the manifest: {e}"))?;
        Ok(groups.unwrap_or_default().0)
    }

    /// Reopen handle `h` and check what it loads and the disk.
    fn reopen(&mut self, h: usize) -> Check {
        self.handles[h] = open(&self.disk, h)?;
        self.own[h].clear();
        let (fs, db) = &self.handles[h];
        if fs.dead() {
            return Ok(());
        }
        let (mut held, mut foreign) = (BTreeSet::new(), Vec::new());
        db.for_each(|found| {
            held.insert(found.id.clone());
            if !self.upserted.contains(&found.id) || *found != doc(&found.id) {
                foreign.push(found.id.clone());
            }
        });
        let lost = self
            .acked
            .iter()
            .find(|k| admits(h, k) && !held.contains(*k));
        ensure!(lost.is_none(), "h{h}: saved {lost:?} is gone");
        ensure!(
            foreign.is_empty(),
            "h{h}: {foreign:?} were never upserted as read"
        );
        // The manifest and the files agree.
        let files = self.disk().files.clone();
        for Group { file, shards } in self.manifest()? {
            let text = files.get(&Path::new(DIR).join(SHARD_DIR).join(&file));
            let docs = text.map(|text| serde_json::from_str::<Vec<Document>>(&text.1));
            let docs = docs
                .ok_or(format!("{file} is missing"))?
                .map_err(|e| e.to_string())?;
            let outside = docs.iter().find(|d| !shards.contains(&shard_of(&d.id)));
            ensure!(
                outside.is_none(),
                "{file} holds {outside:?}, outside its shards"
            );
        }
        Ok(())
    }
}

/// Play one seed: crash-free, crashed, and replayed without the
/// crashed operation.
fn check_seed(seed: u64) -> Check {
    let mut rng = Rng::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let handles = 2 + rng.below(2);
    let ops: Vec<(usize, Op)> = (0..20 + rng.below(40))
        .map(|_| {
            let (shard, tail) = (rng.pick(&SHARDS), rng.below(8) as u64);
            let op = match rng.below(20) {
                0..=8 => Op::Upsert(shard, tail),
                9..=11 => Op::Get(shard, tail),
                12..=15 => Op::Save,
                16..=17 => Op::Compact(1 + rng.below(6)),
                _ => Op::Reopen,
            };
            (rng.below(handles), op)
        })
        .collect();
    // Each play ends with the committed bytes: what the crash-free
    // replay must match.
    let play = |crash, skip, name: &str| {
        let disk = Arc::new(Mutex::new(Disk {
            crash,
            ..Disk::default()
        }));
        let mut run = Run {
            handles: (0..handles)
                .map(|h| open(&disk, h))
                .collect::<Result<_, _>>()?,
            disk,
            own: vec![BTreeSet::new(); handles],
            pending: vec![BTreeSet::new(); handles],
            acked: BTreeSet::new(),
            upserted: BTreeSet::new(),
            log: Vec::new(),
        };
        let crashed = run.play(&ops, skip);
        let steps = run.disk().steps;
        let committed = crashed.and_then(|at| Ok((run.committed()?, at, steps)));
        committed.map_err(|e| {
            let (ops, steps) = (run.log.join("\n"), run.disk().log.join("\n"));
            format!("seed {seed}, {name}: {e}\noperations:\n{ops}\nfilesystem steps:\n{steps}")
        })
    };
    let (_, _, steps) = play(None, None, "crash-free")?;
    let crash = (rng.below(steps as usize) as u64, rng.next());
    let (crashed, at, _) = play(Some(crash), None, &format!("crash at step {}", crash.0))?;
    let at = at.ok_or(format!("seed {seed}: step {} never came", crash.0))?;
    let (replayed, _, _) = play(None, Some(at), &format!("replay without operation {at}"))?;
    ensure!(crashed == replayed, "seed {seed}: after a crash at step {}, a replay without operation {at} commits {replayed:?}, not {crashed:?}", crash.0);
    Ok(())
}

#[test]
fn a_crash_at_any_step_loses_no_saved_document_and_recovers_as_if_it_never_happened() {
    let failures: Vec<(u64, String)> = (0..SEEDS)
        .filter_map(|seed| check_seed(seed).err().map(|e| (seed, e)))
        .collect();
    let seeds: Vec<u64> = failures.iter().map(|f| f.0).collect();
    assert!(
        failures.is_empty(),
        "seeds {seeds:?} fail; the first:\n{}",
        failures[0].1
    );
}
