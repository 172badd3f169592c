//! A sharded, compacting document store for very large key spaces.
//!
//! A store kept as one JSON file rewrites everything on every save —
//! quadratic total write cost as a campaign grows. [`ShardedDb`]
//! splits one logical keyspace over 256 shard files by key prefix,
//! tracks which shards were mutated since the last save, and only
//! rewrites those. A million-point result store then pays for what
//! changed, not for what exists.
//!
//! On-disk layout under the store directory:
//!
//! ```text
//! <dir>/manifest.json     shard layout, doc counts, engine tag
//! <dir>/shards/ab.json    documents of shard 0xab (JSON array)
//! <dir>/shards/0c-11.json a compacted file holding several shards
//! ```
//!
//! The manifest maps every occupied shard to exactly one data file.
//! Fresh saves give each shard its own file; [`ShardedDb::compact`]
//! merges small neighbouring shards into grouped files so a store of
//! many tiny shards does not degenerate into hundreds of near-empty
//! files.
//!
//! **Crash model.** A process may die at any filesystem step. A save
//! and a compaction both end in one commit: each rewritten data file
//! is written to a temp file and renamed into place, then the manifest
//! is, and the manifest's rename is the commit point; only then are
//! files the new layout does not list removed. A file the committed
//! manifest lists is only ever replaced by one holding the same
//! shards, so whichever step a crash lands on, the manifest and its
//! files agree, the store opens, and every document of a finished save
//! is there (of a save cut short, those in the listed files it had
//! replaced). The store issues no `fsync`, so none of this holds across
//! a power loss or a kernel crash, where a rename can reach the disk
//! before the data it names. The crate's crash property checks the
//! model over a fake filesystem that crashes at a seeded step.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use synapse_telemetry::Counter;

use crate::document::{Document, DEFAULT_DOC_LIMIT};
use crate::error::StoreError;
use crate::fs::{Fs, Lock, RealFs, Stamp};

/// Number of shards a keyspace is split into (one byte of prefix).
pub const SHARD_COUNT: usize = 256;

/// Manifest file name inside a sharded store directory. Its presence
/// is what marks a directory as holding a sharded store.
pub const MANIFEST_FILE: &str = "manifest.json";

/// Subdirectory holding the shard data files.
pub const SHARD_DIR: &str = "shards";

/// Advisory lock file guarding cross-process mutation of the store
/// directory (see [`crate::lock`]).
pub const LOCK_FILE: &str = "store.lock";

/// On-disk layout version; bump on incompatible manifest changes.
pub const FORMAT_VERSION: u32 = 1;

/// Compaction default: merge neighbouring shards until a data file
/// holds at least this many documents (the last file may hold fewer).
pub const DEFAULT_COMPACT_TARGET: usize = 1024;

/// Map a key to its shard.
///
/// Keys that start with two hex digits (the fingerprint form used by
/// campaign caches) shard by that prefix byte, so shard files align
/// with visible key prefixes. Anything else falls back to FNV-1a over
/// the whole key — stable across platforms and Rust releases.
pub fn shard_of(key: &str) -> u8 {
    let b = key.as_bytes();
    if b.len() >= 2 {
        if let (Some(hi), Some(lo)) = (hex_val(b[0]), hex_val(b[1])) {
            return (hi << 4) | lo;
        }
    }
    let mut hash = 0xcbf29ce484222325u64;
    for &byte in b {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    (hash & 0xff) as u8
}

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// What one `save` actually wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SaveStats {
    /// Shard data files (re)written.
    pub data_files_written: usize,
    /// Documents serialized into the written files.
    pub docs_written: usize,
    /// Whether the manifest was rewritten.
    pub manifest_written: bool,
}

/// Outcome of a compaction pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactStats {
    /// Data files before the pass.
    pub files_before: usize,
    /// Data files after the pass.
    pub files_after: usize,
    /// Documents in the store.
    pub docs: usize,
    /// Whether anything was rewritten (false ⇒ layout already compact).
    pub changed: bool,
}

/// A point-in-time summary of a sharded store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// Total documents.
    pub docs: usize,
    /// Shards holding at least one document.
    pub occupied_shards: usize,
    /// Shard data files in the on-disk layout.
    pub data_files: usize,
    /// Shards mutated since the last save.
    pub dirty_shards: usize,
    /// Bytes of shard data + manifest on disk (0 for in-memory stores).
    pub bytes_on_disk: u64,
    /// Engine tag recorded in the manifest.
    pub engine: String,
    /// Directory-lock acquisitions by this handle (opens, saves,
    /// compactions). 0 for in-memory stores.
    pub lock_acquisitions: u64,
    /// Of those, acquisitions that had to wait on another process — the
    /// shard-sharing contention signal for clustered cache directories.
    pub lock_contention: u64,
    /// Documents merged *in* from disk during lock-aware saves: results
    /// other processes wrote to shards this handle was rewriting.
    pub reconciled_docs: u64,
}

/// Manifest recording which data file holds which shards.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Manifest {
    format: u32,
    engine: String,
    shard_count: u32,
    groups: Vec<GroupEntry>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct GroupEntry {
    file: String,
    shards: Vec<u32>,
    docs: u64,
}

/// One data file of the on-disk layout and the shards it holds.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Group {
    file: String,
    shards: Vec<u8>,
}

impl Group {
    /// The group over `shards` (sorted, not empty), named as the
    /// `committed` layout names that shard set, or else `ab.json` /
    /// `ab-cd.json` after its first and last shard — suffixed `.1`,
    /// `.2`, … past every name `committed` gives another shard set, so
    /// that no commit overwrites a listed file with other shards.
    fn named(shards: Vec<u8>, committed: &[Group]) -> Group {
        if let Some(same) = committed.iter().find(|g| g.shards == shards) {
            return same.clone();
        }
        let (first, last) = (shards[0], shards[shards.len() - 1]);
        let stem = if first == last {
            format!("{first:02x}")
        } else {
            format!("{first:02x}-{last:02x}")
        };
        let file = (0..)
            .map(|n| match n {
                0 => format!("{stem}.json"),
                n => format!("{stem}.{n}.json"),
            })
            .find(|file| committed.iter().all(|g| g.file != *file))
            .expect("some suffix is free");
        Group { file, shards }
    }

    fn is_dirty(&self, dirty: &[bool]) -> bool {
        self.shards.iter().any(|&s| dirty[s as usize])
    }
}

struct State {
    /// One bucket per shard, keys ordered within each bucket.
    shards: Vec<BTreeMap<String, Document>>,
    /// Per shard, the documents read from disk that `admit` rejected:
    /// never served, only written back as read, so that a checked
    /// handle erases nothing from the directory. Disjoint from
    /// `shards`.
    unserved: Vec<BTreeMap<String, Document>>,
    /// Shards mutated since the last successful save.
    dirty: Vec<bool>,
    /// Current on-disk layout (empty until the first save).
    groups: Vec<Group>,
    /// Whether the on-disk manifest reflects `groups` and doc counts.
    manifest_synced: bool,
}

/// Cross-process reload-on-miss bookkeeping (see [`ShardedDb::get`]).
///
/// A *generation* is one observed change of the on-disk manifest
/// (another process saved). Misses cost one `stat` while the
/// generation is unchanged; when it moves, the first miss per shard
/// folds that shard's data file in and re-arms the cheap path.
struct ReloadProbe {
    /// Last observed manifest stamp (inode + mtime + length).
    stamp: Option<Stamp>,
    /// Bumped every time the stamp changes.
    generation: u64,
    /// Generation each shard was last folded at (0 = never).
    shard_synced: Vec<u64>,
}

impl ReloadProbe {
    fn new() -> ReloadProbe {
        ReloadProbe {
            stamp: None,
            generation: 0,
            shard_synced: vec![0; SHARD_COUNT],
        }
    }
}

impl State {
    fn empty() -> State {
        State {
            shards: (0..SHARD_COUNT).map(|_| BTreeMap::new()).collect(),
            unserved: (0..SHARD_COUNT).map(|_| BTreeMap::new()).collect(),
            dirty: vec![false; SHARD_COUNT],
            groups: Vec::new(),
            manifest_synced: false,
        }
    }

    fn doc_count(&self) -> usize {
        self.shards.iter().map(BTreeMap::len).sum()
    }

    /// What shard `s`'s part of a data file holds: the served
    /// documents and the unserved ones, in id order.
    fn file_docs(&self, s: u8) -> Vec<&Document> {
        let (served, unserved) = (&self.shards[s as usize], &self.unserved[s as usize]);
        let mut docs: Vec<&Document> = served.values().chain(unserved.values()).collect();
        if !unserved.is_empty() {
            docs.sort_unstable_by(|a, b| a.id.cmp(&b.id));
        }
        docs
    }

    /// How many documents shard `s`'s part of a data file holds.
    fn file_doc_count(&self, s: u8) -> usize {
        self.shards[s as usize].len() + self.unserved[s as usize].len()
    }
}

/// A sharded, compacting document store over one logical keyspace.
///
/// On-disk stores are multi-process safe: every open/save/compact runs
/// under an exclusive advisory lock on `<dir>/store.lock`, and dirty
/// saves are *lock-aware* — before rewriting a data file, documents
/// another process added to it are merged back in, so concurrent
/// writers sharing one directory never lose each other's results.
pub struct ShardedDb {
    dir: Option<Dir>,
    doc_limit: usize,
    engine: String,
    state: RwLock<State>,
    /// Directory-lock acquisitions (opens + saves + compactions).
    ///
    /// These three are [`synapse_telemetry::Counter`]s (still plain
    /// relaxed atomics) so a server can bind the *same* handles into
    /// its metrics registry — `/store/stats` and `/metrics` then read
    /// identical state by construction. See [`ShardedDb::counters`].
    lock_acquisitions: Arc<Counter>,
    /// Of those, ones that had to wait on another process.
    lock_contention: Arc<Counter>,
    /// Foreign documents merged in from disk — during lock-aware saves
    /// and reload-on-miss reads alike.
    reconciled_docs: Arc<Counter>,
    /// Reload-on-miss state for on-disk stores (cross-process cache
    /// *reads*: a miss learns peers' saved results without waiting for
    /// this handle's next save).
    reload: Mutex<ReloadProbe>,
    /// Which documents read from disk the store serves: the rest are
    /// kept unserved as they load, fold or reconcile in (see
    /// [`ShardedDb::open_checked`]).
    admit: fn(&Document) -> bool,
}

/// Clones of a [`ShardedDb`]'s live stat counters, for exposing in a
/// metrics registry (e.g. [`synapse_telemetry::Registry::bind_counter`]).
/// Incrementing happens inside the store; holders only read.
#[derive(Clone)]
pub struct StoreCounters {
    /// Directory-lock acquisitions by this handle.
    pub lock_acquisitions: Arc<Counter>,
    /// Acquisitions that had to wait on another process.
    pub lock_contention: Arc<Counter>,
    /// Foreign documents merged in during lock-aware saves.
    pub reconciled_docs: Arc<Counter>,
}

/// Parsed on-disk manifest: the layout groups plus each data file's
/// recorded document count.
type DiskManifest = (Vec<Group>, BTreeMap<String, u64>);

/// An on-disk store's directory and the filesystem it is reached
/// through.
struct Dir {
    path: PathBuf,
    fs: Arc<dyn Fs>,
}

impl Dir {
    fn manifest_path(&self) -> PathBuf {
        self.path.join(MANIFEST_FILE)
    }

    fn shard_root(&self) -> PathBuf {
        self.path.join(SHARD_DIR)
    }

    /// The manifest's change stamp (inode + mtime + length): a changed
    /// stamp means another process saved. Every save renames a fresh
    /// temp file over the manifest, made while the manifest it replaces
    /// still exists, so each save's inode differs from the last one's
    /// even when two saves of an equal-length manifest land within one
    /// tick of a coarse filesystem clock. `None` when no manifest
    /// exists (nothing saved yet).
    fn manifest_stamp(&self) -> Option<Stamp> {
        self.fs.stamp(&self.manifest_path())
    }

    /// Read and validate the on-disk manifest, if one exists: the
    /// groups plus each data file's recorded document count (kept so a
    /// save that adopts another process's layout can write back honest
    /// counts for files it never loaded).
    fn read_manifest(&self) -> Result<Option<DiskManifest>, StoreError> {
        if self.manifest_stamp().is_none() {
            return Ok(None);
        }
        let manifest: Manifest = serde_json::from_str(&self.fs.read(&self.manifest_path())?)?;
        if manifest.format != FORMAT_VERSION {
            return Err(StoreError::Corrupt(format!(
                "manifest format {} (this engine reads {})",
                manifest.format, FORMAT_VERSION
            )));
        }
        if manifest.shard_count as usize != SHARD_COUNT {
            return Err(StoreError::Corrupt(format!(
                "manifest declares {} shards (expected {})",
                manifest.shard_count, SHARD_COUNT
            )));
        }
        let mut groups = Vec::with_capacity(manifest.groups.len());
        let mut doc_counts = BTreeMap::new();
        let mut claimed = vec![false; SHARD_COUNT];
        for entry in &manifest.groups {
            let mut shards = Vec::with_capacity(entry.shards.len());
            for &s in &entry.shards {
                let idx = s as usize;
                if idx >= SHARD_COUNT {
                    return Err(StoreError::Corrupt(format!("shard id {s} out of range")));
                }
                if claimed[idx] {
                    return Err(StoreError::Corrupt(format!(
                        "shard {s:02x} claimed by more than one data file"
                    )));
                }
                claimed[idx] = true;
                shards.push(s as u8);
            }
            doc_counts.insert(entry.file.clone(), entry.docs);
            groups.push(Group {
                file: entry.file.clone(),
                shards,
            });
        }
        Ok(Some((groups, doc_counts)))
    }

    /// The documents of one group's data file.
    fn read_group(&self, group: &Group) -> Result<Vec<Document>, StoreError> {
        let text = self.fs.read(&self.shard_root().join(&group.file))?;
        Ok(serde_json::from_str(&text)?)
    }

    /// Read all group files, fanning out over worker threads.
    fn load_groups(
        &self,
        groups: &[Group],
        workers: usize,
    ) -> Result<Vec<Vec<Document>>, StoreError> {
        let auto = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(16);
        let workers = if workers == 0 { auto } else { workers }.clamp(1, groups.len().max(1));

        let next = AtomicUsize::new(0);
        let loaded: Mutex<Vec<Option<Vec<Document>>>> = Mutex::new(vec![None; groups.len()]);
        let first_error: Mutex<Option<StoreError>> = Mutex::new(None);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= groups.len() {
                        return;
                    }
                    if first_error.lock().expect("error lock").is_some() {
                        return;
                    }
                    match self.read_group(&groups[idx]) {
                        Ok(docs) => loaded.lock().expect("load lock")[idx] = Some(docs),
                        Err(e) => {
                            first_error.lock().expect("error lock").get_or_insert(e);
                            return;
                        }
                    }
                });
            }
        });
        if let Some(e) = first_error.into_inner().expect("error lock") {
            return Err(e);
        }
        loaded
            .into_inner()
            .expect("load lock")
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.ok_or_else(|| {
                    StoreError::Corrupt(format!("shard file {:?} was not loaded", groups[i].file))
                })
            })
            .collect()
    }

    /// Remove every shard file `groups` does not list: files of older
    /// layouts, and temp files a crash left.
    fn sweep(&self, groups: &[Group]) -> Result<(), StoreError> {
        let shard_root = self.shard_root();
        for name in self.fs.list(&shard_root)? {
            if groups.iter().all(|g| g.file != name) {
                self.fs.remove(&shard_root.join(name))?;
            }
        }
        Ok(())
    }

    /// Write via a temp file + rename, so that a reader or a crash
    /// finds the old file or the new one, never a part of one.
    fn write_atomic(&self, path: &Path, contents: &str) -> Result<(), StoreError> {
        let tmp = path.with_extension("json.tmp");
        self.fs.write(&tmp, contents)?;
        self.fs.rename(&tmp, path)?;
        Ok(())
    }
}

impl ShardedDb {
    /// An in-memory store (no persistence; `save` is a no-op).
    pub fn in_memory() -> Self {
        Self::in_memory_with_limit(DEFAULT_DOC_LIMIT)
    }

    /// An in-memory store with a custom per-document limit.
    pub fn in_memory_with_limit(doc_limit: usize) -> Self {
        Self::new(None, doc_limit, String::new(), |_| true)
    }

    fn new(
        dir: Option<Dir>,
        doc_limit: usize,
        engine: String,
        admit: fn(&Document) -> bool,
    ) -> Self {
        ShardedDb {
            dir,
            doc_limit,
            engine,
            state: RwLock::new(State::empty()),
            lock_acquisitions: Arc::new(Counter::new()),
            lock_contention: Arc::new(Counter::new()),
            reconciled_docs: Arc::new(Counter::new()),
            reload: Mutex::new(ReloadProbe::new()),
            admit,
        }
    }

    /// The live counter handles behind [`ShardStats`]'s lock/reconcile
    /// fields. Bind these into a registry and the exposition reads the
    /// same atomics [`ShardedDb::stats`] reports — no second
    /// bookkeeping path to drift.
    pub fn counters(&self) -> StoreCounters {
        StoreCounters {
            lock_acquisitions: Arc::clone(&self.lock_acquisitions),
            lock_contention: Arc::clone(&self.lock_contention),
            reconciled_docs: Arc::clone(&self.reconciled_docs),
        }
    }

    /// Take the store directory's advisory lock, recording contention.
    fn lock_dir(&self, dir: &Dir) -> Result<Lock, StoreError> {
        let (lock, contended) = dir.fs.lock(&dir.path.join(LOCK_FILE))?;
        self.lock_acquisitions.inc();
        if contended {
            self.lock_contention.inc();
        }
        Ok(lock)
    }

    /// Open (or create) a sharded store under `dir`, loading shard
    /// files sequentially. `engine` is an informational tag recorded
    /// in the manifest (e.g. the owning engine's version string).
    pub fn open(
        dir: impl AsRef<Path>,
        doc_limit: usize,
        engine: impl Into<String>,
    ) -> Result<Self, StoreError> {
        Self::open_with_workers(dir, doc_limit, engine, 1)
    }

    /// Open (or create) a sharded store, loading shard files across
    /// `workers` threads (0 ⇒ one per available core, capped at 16).
    /// Parallel loading is what makes warm-up of a million-point cache
    /// scale with cores instead of a single reader thread.
    pub fn open_with_workers(
        dir: impl AsRef<Path>,
        doc_limit: usize,
        engine: impl Into<String>,
        workers: usize,
    ) -> Result<Self, StoreError> {
        Self::open_checked(dir, doc_limit, engine, workers, |_| true)
    }

    /// [`open_with_workers`](ShardedDb::open_with_workers), serving
    /// only the documents read from disk that `admit` accepts. The
    /// check runs once per document, wherever one enters this handle
    /// from disk: the open itself, the reload-on-miss fold and the
    /// reconcile of a lock-aware save or a compaction. A document that
    /// fails it is not served — [`get`](ShardedDb::get),
    /// [`read`](ShardedDb::read), [`len`](ShardedDb::len),
    /// [`keys`](ShardedDb::keys) and [`for_each`](ShardedDb::for_each)
    /// do not see it — but a save or a compaction writes it back as
    /// read, so two handles with different rules sharing a directory
    /// never erase each other's documents. An
    /// [`upsert`](ShardedDb::upsert) of its id replaces it; upserted
    /// documents are not checked.
    pub fn open_checked(
        dir: impl AsRef<Path>,
        doc_limit: usize,
        engine: impl Into<String>,
        workers: usize,
        admit: fn(&Document) -> bool,
    ) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        Self::open_on(
            Arc::new(RealFs),
            dir,
            doc_limit,
            engine.into(),
            workers,
            admit,
        )
    }

    /// [`open_checked`](ShardedDb::open_checked) over the filesystem
    /// `fs`.
    pub(crate) fn open_on(
        fs: Arc<dyn Fs>,
        path: PathBuf,
        doc_limit: usize,
        engine: String,
        workers: usize,
        admit: fn(&Document) -> bool,
    ) -> Result<Self, StoreError> {
        let db = Self::new(Some(Dir { path, fs }), doc_limit, engine, admit);
        let dir = db.dir.as_ref().expect("an on-disk store");
        if dir.manifest_stamp().is_none() {
            // Nothing on disk yet: an empty store needs no lock (the
            // directory may not even exist until the first save).
            return Ok(db);
        }
        // Load under the directory lock so that no commit sweeps data
        // files between the manifest read and the file reads.
        let lock = db.lock_dir(dir)?;
        let (groups, _doc_counts) = dir.read_manifest()?.unwrap_or_default();
        let docs_per_group = dir.load_groups(&groups, workers)?;
        {
            let mut state = db.state.write();
            for (group, docs) in groups.iter().zip(docs_per_group) {
                db.fold(&mut state, group, docs)?;
            }
            state.groups = groups;
            state.manifest_synced = true;
        }
        // The in-memory image now matches this manifest: stamp it so
        // reload-on-miss stays on its cheap (stat-only) path until
        // another process actually saves.
        if let Some(stamp) = dir.manifest_stamp() {
            let mut probe = db.reload.lock().expect("reload probe lock");
            probe.stamp = Some(stamp);
            probe.generation = 1;
            probe.shard_synced = vec![1; SHARD_COUNT];
        }
        drop(lock);
        Ok(db)
    }

    /// Bring the documents read from `group`'s data file into `state`
    /// — the one way a document enters from disk. The whole file is
    /// checked first: a document over the size limit, or one that
    /// routes outside the group's shards, fails it and folds nothing.
    /// Then each document this handle does not serve already (what it
    /// serves wins) is served if `admit` accepts it, and otherwise kept
    /// unserved, replacing an older unserved copy. Returns how many
    /// were served.
    fn fold(
        &self,
        state: &mut State,
        group: &Group,
        docs: Vec<Document>,
    ) -> Result<u64, StoreError> {
        for doc in &docs {
            doc.check_limit(self.doc_limit)?;
            let shard = shard_of(&doc.id);
            if !group.shards.contains(&shard) {
                return Err(StoreError::Corrupt(format!(
                    "document {:?} routes to shard {shard:02x}, outside its data file {:?}",
                    doc.id, group.file
                )));
            }
        }
        let mut added = 0;
        for doc in docs {
            let shard = shard_of(&doc.id) as usize;
            if state.shards[shard].contains_key(&doc.id) {
                continue;
            }
            if (self.admit)(&doc) {
                state.unserved[shard].remove(&doc.id);
                state.shards[shard].insert(doc.id.clone(), doc);
                added += 1;
            } else {
                state.unserved[shard].insert(doc.id.clone(), doc);
            }
        }
        Ok(added)
    }

    /// Directory this store persists into (None for in-memory stores).
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_ref().map(|dir| dir.path.as_path())
    }

    /// Configured per-document size limit.
    pub fn doc_limit(&self) -> usize {
        self.doc_limit
    }

    /// Fetch a document by key (cloned out of the lock). A caller that
    /// only decodes or inspects the document should use
    /// [`read`](ShardedDb::read) and skip the clone.
    ///
    /// On-disk stores are cross-process readable: when the in-memory
    /// image misses, the store checks (one `stat`) whether another
    /// process has saved since it last looked, and if so folds the
    /// missed shard's data file back in before answering — a worker
    /// sharing a cache directory learns its peers' results at *read*
    /// time, not only when its own next save reconciles. The fold is
    /// insert-only (what this handle holds wins) and per manifest
    /// generation, so a miss storm on an unchanged directory costs one
    /// `stat` per miss and no reads.
    pub fn get(&self, key: &str) -> Option<Document> {
        self.read(key, Document::clone)
    }

    /// Run `f` on the document under `key`, borrowed in place under
    /// the store's read lock — keep `f` short. Same lookup as
    /// [`get`](ShardedDb::get), cross-process fold on a miss included.
    pub fn read<R>(&self, key: &str, f: impl FnOnce(&Document) -> R) -> Option<R> {
        let shard = shard_of(key);
        if let Some(doc) = self.state.read().shards[shard as usize].get(key) {
            return Some(f(doc));
        }
        if !self.reload_on_miss(key, shard) {
            return None;
        }
        self.state.read().shards[shard as usize].get(key).map(f)
    }

    /// The miss path of [`get`](ShardedDb::get): fold the missed
    /// shard's on-disk data file into memory if another process saved
    /// since this handle last looked. Opportunistic by design — reads
    /// race saves without the directory lock (data files are replaced
    /// by atomic rename, so a read sees a complete old or new file,
    /// never a torn one), and any read or fold failure just stays a
    /// miss. Returns whether `key` is present afterwards.
    fn reload_on_miss(&self, key: &str, shard: u8) -> bool {
        let Some(dir) = &self.dir else {
            return false;
        };
        let Some(stamp) = dir.manifest_stamp() else {
            return false;
        };
        let generation = {
            let mut probe = self.reload.lock().expect("reload probe lock");
            if probe.stamp != Some(stamp) {
                probe.stamp = Some(stamp);
                probe.generation += 1;
            }
            if probe.shard_synced[shard as usize] >= probe.generation {
                return false; // this shard already reflects the disk
            }
            probe.generation
        };
        // Read manifest + the one group file covering the shard,
        // outside both locks.
        let folded = dir.read_manifest().ok().flatten().and_then(|(groups, _)| {
            let group = groups.into_iter().find(|g| g.shards.contains(&shard))?;
            let docs = dir.read_group(&group).ok()?;
            Some((group, docs))
        });
        let mut probe = self.reload.lock().expect("reload probe lock");
        let hit = match folded {
            Some((group, docs)) => {
                let mut state = self.state.write();
                // Folded docs are already on disk: not dirty.
                if let Ok(merged) = self.fold(&mut state, &group, docs) {
                    self.reconciled_docs.add(merged);
                    // The whole file was folded: every shard it covers
                    // is now synced to this generation.
                    for s in &group.shards {
                        let synced = &mut probe.shard_synced[*s as usize];
                        *synced = (*synced).max(generation);
                    }
                }
                state.shards[shard as usize].contains_key(key)
            }
            // No group covers the shard, or the racing save replaced
            // the file under us: stay a miss, but don't retry until
            // the manifest moves again (a hot-loop of disk reads on a
            // permanent miss would be worse than staleness).
            None => false,
        };
        let synced = &mut probe.shard_synced[shard as usize];
        *synced = (*synced).max(generation);
        hit
    }

    /// Insert or replace a document under its id (an unserved one
    /// too).
    pub fn upsert(&self, doc: Document) -> Result<(), StoreError> {
        doc.check_limit(self.doc_limit)?;
        let shard = shard_of(&doc.id) as usize;
        let mut state = self.state.write();
        state.unserved[shard].remove(&doc.id);
        state.shards[shard].insert(doc.id.clone(), doc);
        state.dirty[shard] = true;
        Ok(())
    }

    /// Total number of documents.
    pub fn len(&self) -> usize {
        self.state.read().doc_count()
    }

    /// Whether the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All keys, sorted.
    pub fn keys(&self) -> Vec<String> {
        let state = self.state.read();
        let mut keys: Vec<String> = state
            .shards
            .iter()
            .flat_map(|s| s.keys().cloned())
            .collect();
        keys.sort();
        keys
    }

    /// Visit every document in shard order (keys ordered within each
    /// shard).
    pub fn for_each(&self, mut f: impl FnMut(&Document)) {
        let state = self.state.read();
        for shard in &state.shards {
            for doc in shard.values() {
                f(doc);
            }
        }
    }

    /// Shards mutated since the last save (sorted).
    pub fn dirty_shards(&self) -> Vec<u8> {
        let state = self.state.read();
        (0..SHARD_COUNT)
            .filter(|&s| state.dirty[s])
            .map(|s| s as u8)
            .collect()
    }

    /// Write mutated shards back to disk. Only data files holding a
    /// dirty shard are rewritten; a save with nothing dirty writes
    /// nothing (once the manifest exists). No-op for in-memory stores.
    ///
    /// The save is **lock-aware**: it runs under the directory's
    /// advisory lock, adopts the freshest on-disk layout, and merges
    /// back any documents a concurrent process added to the files it is
    /// about to rewrite — so several processes sharing one cache
    /// directory never lose each other's results (on a key collision
    /// this handle's document wins).
    pub fn save(&self) -> Result<SaveStats, StoreError> {
        let mut state = self.state.write();
        let Some(dir) = &self.dir else {
            state.dirty.iter_mut().for_each(|d| *d = false);
            return Ok(SaveStats::default());
        };
        if !state.dirty.contains(&true) && state.manifest_synced {
            return Ok(SaveStats::default());
        }
        let (_lock, disk_doc_counts) = self.reconcile(dir, &mut state, Group::is_dirty)?;
        // The layout stays; each dirty shard it does not cover gets a
        // file of its own.
        let mut uncovered = state.dirty.clone();
        for &s in state.groups.iter().flat_map(|g| &g.shards) {
            uncovered[s as usize] = false;
        }
        let mut plan = state.groups.clone();
        for (s, _) in uncovered.iter().enumerate().filter(|(_, &u)| u) {
            plan.push(Group::named(vec![s as u8], &state.groups));
        }
        let rewrite: Vec<bool> = plan.iter().map(|g| g.is_dirty(&state.dirty)).collect();
        let (data_files_written, docs_written) =
            self.commit(dir, &mut state, plan, &rewrite, &disk_doc_counts)?;
        Ok(SaveStats {
            data_files_written,
            docs_written,
            manifest_written: true,
        })
    }

    /// Compact the on-disk layout with [`DEFAULT_COMPACT_TARGET`].
    pub fn compact(&self) -> Result<CompactStats, StoreError> {
        self.compact_with_target(DEFAULT_COMPACT_TARGET)
    }

    /// Rewrite the layout so neighbouring shards merge into data files
    /// of at least `target_docs` documents, and sweep any stale files.
    /// Compaction is idempotent: a second pass over a compacted store
    /// rewrites nothing. In-memory stores have no layout and return a
    /// no-op.
    pub fn compact_with_target(&self, target_docs: usize) -> Result<CompactStats, StoreError> {
        let target_docs = target_docs.max(1);
        let mut state = self.state.write();
        let Some(dir) = &self.dir else {
            return Ok(CompactStats {
                files_before: 0,
                files_after: 0,
                docs: state.doc_count(),
                changed: false,
            });
        };
        // Compaction rewrites the whole layout from memory, so it first
        // folds in every file.
        let (_lock, _) = self.reconcile(dir, &mut state, |_, _| true)?;

        // The ideal grouping is a pure function of shard occupancy, so
        // re-running compaction reproduces it exactly (idempotence).
        let mut plan: Vec<Group> = Vec::new();
        let mut run: Vec<u8> = Vec::new();
        let mut run_docs = 0usize;
        for s in 0..SHARD_COUNT {
            let n = state.file_doc_count(s as u8);
            if n == 0 {
                continue;
            }
            run.push(s as u8);
            run_docs += n;
            if run_docs >= target_docs {
                plan.push(Group::named(std::mem::take(&mut run), &state.groups));
                run_docs = 0;
            }
        }
        if !run.is_empty() {
            plan.push(Group::named(run, &state.groups));
        }

        let docs = state.doc_count();
        let files_before = state.groups.len();
        let changed = plan != state.groups || state.dirty.contains(&true) || !state.manifest_synced;
        if changed {
            let rewrite = vec![true; plan.len()];
            self.commit(dir, &mut state, plan, &rewrite, &BTreeMap::new())?;
        } else {
            // Still sweep what an interrupted earlier pass left behind.
            dir.sweep(&state.groups)?;
        }
        Ok(CompactStats {
            files_before,
            files_after: state.groups.len(),
            docs,
            changed,
        })
    }

    /// What a commit holds and knows before it plans: the directory
    /// lock (the directories made first), the on-disk layout, which
    /// replaces this handle's, and the documents of the files of the
    /// groups `wanted` picks, folded in. Returns the lock and each
    /// listed file's recorded document count.
    fn reconcile(
        &self,
        dir: &Dir,
        state: &mut State,
        wanted: fn(&Group, &[bool]) -> bool,
    ) -> Result<(Lock, BTreeMap<String, u64>), StoreError> {
        dir.fs.create_dir_all(&dir.shard_root())?;
        let lock = self.lock_dir(dir)?;
        let Some((groups, doc_counts)) = dir.read_manifest()? else {
            return Ok((lock, BTreeMap::new()));
        };
        let mut reconciled = 0;
        for group in &groups {
            if wanted(group, &state.dirty) {
                reconciled += self.fold(state, group, dir.read_group(group)?)?;
            }
        }
        self.reconciled_docs.add(reconciled);
        state.groups = groups;
        Ok((lock, doc_counts))
    }

    /// The one commit of a save or a compaction: write each group of
    /// `plan` that `rewrite` marks, from memory, unserved documents
    /// included; then the manifest of `plan`, the commit point; then
    /// sweep every shard file `plan` does not list (older layouts, temp files a crash left). Groups
    /// come from [`Group::named`], so no file the committed layout
    /// lists is overwritten with other shards. `disk_doc_counts` gives
    /// the counts of the files kept as they are. Returns the data files
    /// and the documents written.
    fn commit(
        &self,
        dir: &Dir,
        state: &mut State,
        plan: Vec<Group>,
        rewrite: &[bool],
        disk_doc_counts: &BTreeMap<String, u64>,
    ) -> Result<(usize, usize), StoreError> {
        let shard_root = dir.shard_root();
        let mut written = (0, 0);
        let mut entries = Vec::with_capacity(plan.len());
        for (group, &rewrite) in plan.iter().zip(rewrite) {
            let in_memory = group
                .shards
                .iter()
                .map(|&s| state.file_doc_count(s) as u64)
                .sum();
            let docs = if rewrite {
                debug_assert!(state
                    .groups
                    .iter()
                    .all(|g| g.file != group.file || g.shards == group.shards));
                let docs: Vec<&Document> = group
                    .shards
                    .iter()
                    .flat_map(|&s| state.file_docs(s))
                    .collect();
                dir.write_atomic(
                    &shard_root.join(&group.file),
                    &serde_json::to_string(&docs)?,
                )?;
                written = (written.0 + 1, written.1 + docs.len());
                in_memory
            } else {
                // Untouched file: trust the count of whoever wrote it
                // (this handle may never have loaded it).
                disk_doc_counts
                    .get(&group.file)
                    .copied()
                    .unwrap_or(in_memory)
            };
            entries.push(GroupEntry {
                file: group.file.clone(),
                shards: group.shards.iter().map(|&s| s as u32).collect(),
                docs,
            });
        }
        let manifest = Manifest {
            format: FORMAT_VERSION,
            engine: self.engine.clone(),
            shard_count: SHARD_COUNT as u32,
            groups: entries,
        };
        dir.write_atomic(&dir.manifest_path(), &serde_json::to_string(&manifest)?)?;
        state.groups = plan;
        state.manifest_synced = true;
        state.dirty.iter_mut().for_each(|d| *d = false);
        dir.sweep(&state.groups)?;
        Ok(written)
    }

    /// Current store summary.
    pub fn stats(&self) -> ShardStats {
        let state = self.state.read();
        let bytes_on_disk = self.dir.as_ref().map_or(0, |dir| {
            let shard_root = dir.shard_root();
            std::iter::once(dir.manifest_path())
                .chain(state.groups.iter().map(|g| shard_root.join(&g.file)))
                .map(|path| dir.fs.stamp(&path).map_or(0, |stamp| stamp.2))
                .sum()
        });
        ShardStats {
            docs: state.doc_count(),
            occupied_shards: state.shards.iter().filter(|s| !s.is_empty()).count(),
            data_files: state.groups.len(),
            dirty_shards: state.dirty.iter().filter(|&&d| d).count(),
            bytes_on_disk,
            engine: self.engine.clone(),
            lock_acquisitions: self.lock_acquisitions.get(),
            lock_contention: self.lock_contention.get(),
            reconciled_docs: self.reconciled_docs.get(),
        }
    }
}

#[cfg(test)]
#[path = "../../../vendor/serde_json/tests/support/mod.rs"]
mod support;

#[cfg(test)]
mod crash_props;

#[cfg(test)]
mod damage_props;

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn doc(id: &str, n: i64) -> Document {
        Document::new(id, &n).unwrap()
    }

    /// A 16-hex-digit key landing in shard `shard` (fingerprint-like).
    fn hexkey(shard: u8, tail: u64) -> String {
        format!("{shard:02x}{tail:014x}")
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("synapse-sharded-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn routing_uses_hex_prefix_and_is_pinned() {
        assert_eq!(shard_of("00aabbccddeeff11"), 0x00);
        assert_eq!(shard_of("ff00000000000000"), 0xff);
        assert_eq!(shard_of("3e7f000000000000"), 0x3e);
        assert_eq!(shard_of("AB00"), 0xab, "uppercase hex accepted");
        // Non-hex keys fall back to FNV — pinned so persisted layouts
        // never silently re-route.
        assert_eq!(shard_of("synapse"), 0x18);
        assert_eq!(shard_of(""), 0x25);
        assert_eq!(shard_of("x"), shard_of("x"));
    }

    #[test]
    fn doc_limit_enforced() {
        let db = ShardedDb::in_memory_with_limit(16);
        let big = Document::new(hexkey(0, 0), &"x".repeat(64)).unwrap();
        assert!(matches!(
            db.upsert(big),
            Err(StoreError::DocumentTooLarge { .. })
        ));
    }

    #[test]
    fn compaction_merges_small_shards_by_target() {
        let dir = tmpdir("compact");
        let db = ShardedDb::open(&dir, DEFAULT_DOC_LIMIT, "e").unwrap();
        for s in 0..32u8 {
            for t in 0..4 {
                db.upsert(doc(&hexkey(s, t), t as i64)).unwrap();
            }
        }
        assert_eq!(db.save().unwrap().docs_written, 32 * 4);
        assert_eq!(db.stats().data_files, 32);

        let pass = db.compact_with_target(40).unwrap();
        assert!(pass.changed);
        assert_eq!(pass.files_before, 32);
        // 32 shards × 4 docs at a 40-doc target ⇒ 10-shard groups.
        assert_eq!(pass.files_after, 4);
        assert!(dir.join(SHARD_DIR).join("00-09.json").exists());
        assert!(!dir.join(SHARD_DIR).join("00.json").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parallel_open_matches_serial_open() {
        let dir = tmpdir("parallel");
        let db = ShardedDb::open(&dir, DEFAULT_DOC_LIMIT, "e").unwrap();
        for t in 0..2_000u64 {
            db.upsert(doc(&hexkey((t % 64) as u8, t), t as i64))
                .unwrap();
        }
        db.save().unwrap();
        let serial = ShardedDb::open_with_workers(&dir, DEFAULT_DOC_LIMIT, "e", 1).unwrap();
        let parallel = ShardedDb::open_with_workers(&dir, DEFAULT_DOC_LIMIT, "e", 8).unwrap();
        let auto = ShardedDb::open_with_workers(&dir, DEFAULT_DOC_LIMIT, "e", 0).unwrap();
        assert_eq!((serial.len(), serial.dirty_shards().len()), (2_000, 0));
        assert_eq!(serial.keys(), parallel.keys());
        assert_eq!(serial.keys(), auto.keys());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_missing_dir_yields_empty_store() {
        let db = ShardedDb::open("/nonexistent/synapse-sharded", DEFAULT_DOC_LIMIT, "e").unwrap();
        assert!(db.is_empty());
        assert_eq!(db.stats().data_files, 0);
    }

    #[test]
    fn corrupt_manifests_are_rejected() {
        let dir = tmpdir("corrupt");
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join(MANIFEST_FILE),
            r#"{"format":99,"engine":"e","shard_count":256,"groups":[]}"#,
        )
        .unwrap();
        assert!(matches!(
            ShardedDb::open(&dir, DEFAULT_DOC_LIMIT, "e"),
            Err(StoreError::Corrupt(_))
        ));
        fs::write(
            dir.join(MANIFEST_FILE),
            r#"{"format":1,"engine":"e","shard_count":256,"groups":[{"file":"a.json","shards":[3],"docs":0},{"file":"b.json","shards":[3],"docs":0}]}"#,
        )
        .unwrap();
        assert!(matches!(
            ShardedDb::open(&dir, DEFAULT_DOC_LIMIT, "e"),
            Err(StoreError::Corrupt(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_upserts_from_threads() {
        let db = std::sync::Arc::new(ShardedDb::in_memory());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let db = db.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100u64 {
                    db.upsert(doc(&hexkey((i % 256) as u8, t * 1000 + i), i as i64))
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.len(), 400);
    }

    #[test]
    fn stats_reflect_store_shape() {
        let dir = tmpdir("stats");
        let db = ShardedDb::open(&dir, DEFAULT_DOC_LIMIT, "engine-tag").unwrap();
        db.upsert(doc(&hexkey(0x01, 1), 1)).unwrap();
        db.upsert(doc(&hexkey(0x01, 2), 2)).unwrap();
        db.upsert(doc(&hexkey(0x02, 3), 3)).unwrap();
        let s = db.stats();
        assert_eq!(s.docs, 3);
        assert_eq!(s.occupied_shards, 2);
        assert_eq!(s.dirty_shards, 2);
        assert_eq!(s.data_files, 0, "not saved yet");
        db.save().unwrap();
        let s = db.stats();
        assert_eq!(s.data_files, 2);
        assert_eq!(s.dirty_shards, 0);
        assert!(s.bytes_on_disk > 0);
        assert_eq!(s.lock_acquisitions, 1, "the save took the directory lock");
        assert_eq!(s.engine, "engine-tag");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn what_a_handle_holds_wins_over_what_folds_in() {
        let dir = tmpdir("own-wins");
        let (k1, k2) = (hexkey(0x11, 1), hexkey(0x11, 2));
        let a = ShardedDb::open(&dir, DEFAULT_DOC_LIMIT, "e").unwrap();
        let b = ShardedDb::open(&dir, DEFAULT_DOC_LIMIT, "e").unwrap();
        a.upsert(doc(&k1, 1)).unwrap();
        a.save().unwrap();
        b.upsert(doc(&k1, 7)).unwrap();
        // The miss folds a's file in, and b's save reconciles it.
        assert!(b.get(&k2).is_none());
        b.save().unwrap();
        assert_eq!(b.stats().reconciled_docs, 0);
        let back = ShardedDb::open(&dir, DEFAULT_DOC_LIMIT, "e").unwrap();
        assert_eq!(back.get(&k1).unwrap().decode::<i64>().unwrap(), 7);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn in_memory_stores_skip_the_reload_path() {
        let db = ShardedDb::in_memory();
        assert!(db.get(&hexkey(0x01, 1)).is_none());
        assert_eq!(db.stats().reconciled_docs, 0);
    }
}
