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
//! merges small neighbouring shards into grouped files (and drops
//! tombstoned ones) so a store of many tiny shards does not degenerate
//! into hundreds of near-empty files. Writes go through a temp-file +
//! rename so a crash mid-save never truncates existing data.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use synapse_telemetry::Counter;

use crate::document::{Document, DEFAULT_DOC_LIMIT};
use crate::error::StoreError;
use crate::lock::FileLock;

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
    /// Shard data files deleted (all their documents removed).
    pub data_files_removed: usize,
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
    fn singleton(shard: u8) -> Group {
        Group {
            file: format!("{shard:02x}.json"),
            shards: vec![shard],
        }
    }

    fn spanning(shards: Vec<u8>) -> Group {
        debug_assert!(!shards.is_empty());
        let file = if shards.len() == 1 {
            format!("{:02x}.json", shards[0])
        } else {
            format!("{:02x}-{:02x}.json", shards[0], shards[shards.len() - 1])
        };
        Group { file, shards }
    }
}

struct State {
    /// One bucket per shard, keys ordered within each bucket.
    shards: Vec<BTreeMap<String, Document>>,
    /// Shards mutated since the last successful save.
    dirty: Vec<bool>,
    /// Keys removed since the last save: the lock-aware reconcile must
    /// not resurrect them from disk (deletion-vs-foreign-insert is
    /// undecidable from file contents alone).
    removed: std::collections::BTreeSet<String>,
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
    /// Last observed manifest stamp (mtime + length).
    stamp: Option<ManifestStamp>,
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
            dirty: vec![false; SHARD_COUNT],
            removed: std::collections::BTreeSet::new(),
            groups: Vec::new(),
            manifest_synced: false,
        }
    }

    fn doc_count(&self) -> usize {
        self.shards.iter().map(BTreeMap::len).sum()
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
    dir: Option<PathBuf>,
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
    /// Which documents read from disk the store keeps: the rest are
    /// dropped as they load, fold or reconcile in (see
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

/// A manifest's inode number, mtime and length.
#[expect(
    clippy::disallowed_types,
    reason = "a file mtime is compared for change only; it never reaches a result or a trace"
)]
type ManifestStamp = (u64, std::time::SystemTime, u64);

/// The manifest's change stamp (inode + mtime + length): a changed
/// stamp means another process saved. Every save renames a fresh temp
/// file over the manifest, made while the manifest it replaces still
/// exists, so each save's inode differs from the last one's even when
/// two saves of an equal-length manifest land within one tick of a
/// coarse filesystem clock. `None` when no manifest exists (nothing
/// saved yet).
fn manifest_stamp(dir: &Path) -> Option<ManifestStamp> {
    use std::os::unix::fs::MetadataExt as _;
    let meta = fs::metadata(dir.join(MANIFEST_FILE)).ok()?;
    Some((meta.ino(), meta.modified().ok()?, meta.len()))
}

/// Read and validate the on-disk manifest, if one exists: the groups
/// plus each data file's recorded document count (kept so a save that
/// adopts another process's layout can write back honest counts for
/// files it never loaded).
fn read_disk_manifest(dir: &Path) -> Result<Option<DiskManifest>, StoreError> {
    let manifest_path = dir.join(MANIFEST_FILE);
    if !manifest_path.exists() {
        return Ok(None);
    }
    let manifest: Manifest = serde_json::from_str(&fs::read_to_string(&manifest_path)?)?;
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

impl ShardedDb {
    /// An in-memory store (no persistence; `save` is a no-op).
    pub fn in_memory() -> Self {
        Self::in_memory_with_limit(DEFAULT_DOC_LIMIT)
    }

    /// An in-memory store with a custom per-document limit.
    pub fn in_memory_with_limit(doc_limit: usize) -> Self {
        ShardedDb {
            dir: None,
            doc_limit,
            engine: String::new(),
            state: RwLock::new(State::empty()),
            lock_acquisitions: Arc::new(Counter::new()),
            lock_contention: Arc::new(Counter::new()),
            reconciled_docs: Arc::new(Counter::new()),
            reload: Mutex::new(ReloadProbe::new()),
            admit: |_| true,
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
    fn lock_dir(&self, dir: &Path) -> Result<FileLock, StoreError> {
        let (lock, contended) = FileLock::exclusive(&dir.join(LOCK_FILE))?;
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

    /// [`open_with_workers`](ShardedDb::open_with_workers), keeping
    /// only the documents read from disk that `admit` accepts. The
    /// check runs once per document, wherever one enters this handle
    /// from disk: the open itself, the reload-on-miss fold and the
    /// reconcile of a lock-aware save. A document that fails it is
    /// dropped, as if the file had never held it; documents handed to
    /// [`upsert`](ShardedDb::upsert) are not checked.
    pub fn open_checked(
        dir: impl AsRef<Path>,
        doc_limit: usize,
        engine: impl Into<String>,
        workers: usize,
        admit: fn(&Document) -> bool,
    ) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        let engine = engine.into();
        let db = ShardedDb {
            dir: Some(dir.clone()),
            doc_limit,
            engine,
            state: RwLock::new(State::empty()),
            lock_acquisitions: Arc::new(Counter::new()),
            lock_contention: Arc::new(Counter::new()),
            reconciled_docs: Arc::new(Counter::new()),
            reload: Mutex::new(ReloadProbe::new()),
            admit,
        };
        if !dir.join(MANIFEST_FILE).exists() {
            // Nothing on disk yet: an empty store needs no lock (the
            // directory may not even exist until the first save).
            return Ok(db);
        }
        // Load under the directory lock so a concurrent save/compaction
        // cannot remove data files between the manifest read and the
        // file reads.
        let lock = db.lock_dir(&dir)?;
        let (groups, _doc_counts) = read_disk_manifest(&dir)?.unwrap_or_default();
        let docs_per_group = Self::load_groups(&dir, &groups, workers)?;
        let mut state = State::empty();
        for (group, docs) in groups.iter().zip(docs_per_group) {
            for doc in docs {
                doc.check_limit(doc_limit)?;
                let shard = shard_of(&doc.id);
                if !group.shards.contains(&shard) {
                    return Err(StoreError::Corrupt(format!(
                        "document {:?} routes to shard {shard:02x}, outside its data file {:?}",
                        doc.id, group.file
                    )));
                }
                if (db.admit)(&doc) {
                    state.shards[shard as usize].insert(doc.id.clone(), doc);
                }
            }
        }
        state.groups = groups;
        state.manifest_synced = true;
        // The in-memory image now matches this manifest: stamp it so
        // reload-on-miss stays on its cheap (stat-only) path until
        // another process actually saves.
        if let Some(stamp) = manifest_stamp(&dir) {
            let mut probe = db.reload.lock().expect("reload probe lock");
            probe.stamp = Some(stamp);
            probe.generation = 1;
            probe.shard_synced = vec![1; SHARD_COUNT];
        }
        drop(lock);
        *db.state.write() = state;
        Ok(db)
    }

    /// Read all group files, fanning out over worker threads.
    fn load_groups(
        dir: &Path,
        groups: &[Group],
        workers: usize,
    ) -> Result<Vec<Vec<Document>>, StoreError> {
        let shard_root = dir.join(SHARD_DIR);
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
                    let path = shard_root.join(&groups[idx].file);
                    let outcome = fs::read_to_string(&path)
                        .map_err(StoreError::from)
                        .and_then(|json| Ok(serde_json::from_str::<Vec<Document>>(&json)?));
                    match outcome {
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

    /// Directory this store persists into (None for in-memory stores).
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
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
    /// insert-only (local mutations and tombstones win) and per
    /// manifest generation, so a miss storm on an unchanged directory
    /// costs one `stat` per miss and no reads.
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
    /// never a torn one), and any read failure just stays a miss.
    /// Returns whether `key` is present afterwards.
    fn reload_on_miss(&self, key: &str, shard: u8) -> bool {
        let Some(dir) = self.dir.as_deref() else {
            return false;
        };
        let Some(stamp) = manifest_stamp(dir) else {
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
        let folded = read_disk_manifest(dir)
            .ok()
            .flatten()
            .and_then(|(groups, _)| {
                let group = groups.into_iter().find(|g| g.shards.contains(&shard))?;
                let json = fs::read_to_string(dir.join(SHARD_DIR).join(&group.file)).ok()?;
                let docs = serde_json::from_str::<Vec<Document>>(&json).ok()?;
                Some((group, docs))
            });
        let mut probe = self.reload.lock().expect("reload probe lock");
        let hit = match folded {
            Some((group, docs)) => {
                let mut state = self.state.write();
                let mut merged = 0u64;
                for doc in docs {
                    let s = shard_of(&doc.id);
                    // Skip documents that don't belong (corrupt file),
                    // were locally removed (tombstones win), that we
                    // already hold (local mutations win), or that the
                    // store does not admit.
                    if !group.shards.contains(&s)
                        || state.removed.contains(&doc.id)
                        || state.shards[s as usize].contains_key(&doc.id)
                        || !(self.admit)(&doc)
                    {
                        continue;
                    }
                    // Folded docs are already on disk: not dirty.
                    state.shards[s as usize].insert(doc.id.clone(), doc);
                    merged += 1;
                }
                self.reconciled_docs.add(merged);
                // The whole file was folded: every shard it covers is
                // now synced to this generation.
                for s in &group.shards {
                    let synced = &mut probe.shard_synced[*s as usize];
                    *synced = (*synced).max(generation);
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

    /// Insert or replace a document under its id.
    pub fn upsert(&self, doc: Document) -> Result<(), StoreError> {
        doc.check_limit(self.doc_limit)?;
        let shard = shard_of(&doc.id) as usize;
        let mut state = self.state.write();
        state.removed.remove(&doc.id);
        state.shards[shard].insert(doc.id.clone(), doc);
        state.dirty[shard] = true;
        Ok(())
    }

    /// Remove a document by key, returning it. The shard is marked
    /// dirty so the next save rewrites (or tombstones) its file.
    pub fn remove(&self, key: &str) -> Option<Document> {
        let shard = shard_of(key) as usize;
        let mut state = self.state.write();
        let removed = state.shards[shard].remove(key);
        if removed.is_some() {
            state.dirty[shard] = true;
            state.removed.insert(key.to_string());
        }
        removed
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
    ///
    /// Known asymmetry: the merge is insert-only. A document a *peer*
    /// process removed while this handle still holds it in memory is
    /// written back by this handle's next save of that shard —
    /// deletion-vs-foreign-insert is undecidable from file contents,
    /// and the tombstone set only covers this handle's own removals.
    /// For the campaign result cache (insert-only, deterministic
    /// values) resurrection is harmless; a workload that deletes
    /// concurrently across processes would need per-document
    /// versioning this store does not implement.
    pub fn save(&self) -> Result<SaveStats, StoreError> {
        let mut state = self.state.write();
        let Some(dir) = &self.dir else {
            state.dirty.iter_mut().for_each(|d| *d = false);
            return Ok(SaveStats::default());
        };
        let any_dirty = state.dirty.iter().any(|&d| d);
        if !any_dirty && state.manifest_synced {
            return Ok(SaveStats::default());
        }
        let shard_root = dir.join(SHARD_DIR);
        fs::create_dir_all(&shard_root)?;
        let _lock = self.lock_dir(dir)?;

        let State {
            shards,
            dirty,
            removed,
            groups,
            manifest_synced,
        } = &mut *state;

        // Another process may have saved or compacted since this handle
        // last synced: its manifest is the layout ground truth now. Its
        // per-file doc counts are kept for the files this save leaves
        // untouched (this handle may never have loaded them, so its
        // in-memory counts would understate them).
        let mut disk_doc_counts = BTreeMap::new();
        if let Some((disk_groups, counts)) = read_disk_manifest(dir)? {
            *groups = disk_groups;
            disk_doc_counts = counts;
        }
        // Merge foreign documents out of every data file this save will
        // rewrite. Missing keys are other processes' fresh results;
        // keys we also hold stay ours (results are deterministic, so
        // the bodies agree anyway).
        let mut reconciled = 0u64;
        for group in groups.iter() {
            if !group.shards.iter().any(|&s| dirty[s as usize]) {
                continue;
            }
            let path = shard_root.join(&group.file);
            if !path.exists() {
                continue;
            }
            let docs: Vec<Document> = serde_json::from_str(&fs::read_to_string(&path)?)?;
            for doc in docs {
                doc.check_limit(self.doc_limit)?;
                let shard = shard_of(&doc.id);
                if !group.shards.contains(&shard) {
                    return Err(StoreError::Corrupt(format!(
                        "document {:?} routes to shard {shard:02x}, outside its data file {:?}",
                        doc.id, group.file
                    )));
                }
                let bucket = &mut shards[shard as usize];
                if !bucket.contains_key(&doc.id) && !removed.contains(&doc.id) && (self.admit)(&doc)
                {
                    bucket.insert(doc.id.clone(), doc);
                    reconciled += 1;
                }
            }
        }
        if reconciled > 0 {
            self.reconciled_docs.add(reconciled);
        }

        // Plan the post-save layout without touching `groups`, so an
        // I/O error part-way through leaves the in-memory layout and
        // dirty set intact and a retry repeats the whole save. Dirty
        // shards not yet covered by the layout get their own fresh
        // singleton file.
        let mut covered = vec![false; SHARD_COUNT];
        for g in groups.iter() {
            for &s in &g.shards {
                covered[s as usize] = true;
            }
        }
        let mut planned = groups.clone();
        for s in 0..SHARD_COUNT {
            if dirty[s] && !covered[s] && !shards[s].is_empty() {
                planned.push(Group::singleton(s as u8));
            }
        }

        let mut stats = SaveStats::default();
        let mut kept = Vec::with_capacity(planned.len());
        for group in planned {
            let is_dirty = group.shards.iter().any(|&s| dirty[s as usize]);
            if !is_dirty {
                kept.push(group);
                continue;
            }
            let docs: Vec<&Document> = group
                .shards
                .iter()
                .flat_map(|&s| shards[s as usize].values())
                .collect();
            let path = shard_root.join(&group.file);
            if docs.is_empty() {
                // Every document of this file is gone: tombstone it.
                if path.exists() {
                    fs::remove_file(&path)?;
                    stats.data_files_removed += 1;
                }
            } else {
                write_atomic(&path, &serde_json::to_string(&docs)?)?;
                stats.data_files_written += 1;
                stats.docs_written += docs.len();
                kept.push(group);
            }
        }

        let manifest = Manifest {
            format: FORMAT_VERSION,
            engine: self.engine.clone(),
            shard_count: SHARD_COUNT as u32,
            groups: kept
                .iter()
                .map(|g| {
                    let rewritten = g.shards.iter().any(|&s| dirty[s as usize]);
                    let docs = if rewritten {
                        // This save just wrote the file from memory.
                        g.shards
                            .iter()
                            .map(|&s| shards[s as usize].len() as u64)
                            .sum()
                    } else {
                        // Untouched file: trust the count of whoever
                        // wrote it (this handle may never have loaded
                        // it).
                        disk_doc_counts.get(&g.file).copied().unwrap_or_else(|| {
                            g.shards
                                .iter()
                                .map(|&s| shards[s as usize].len() as u64)
                                .sum()
                        })
                    };
                    GroupEntry {
                        file: g.file.clone(),
                        shards: g.shards.iter().map(|&s| s as u32).collect(),
                        docs,
                    }
                })
                .collect(),
        };
        write_atomic(&dir.join(MANIFEST_FILE), &serde_json::to_string(&manifest)?)?;
        // Commit: every write landed, so the new layout becomes real.
        stats.manifest_written = true;
        *groups = kept;
        *manifest_synced = true;
        dirty.iter_mut().for_each(|d| *d = false);
        removed.clear();
        Ok(stats)
    }

    /// Compact the on-disk layout with [`DEFAULT_COMPACT_TARGET`].
    pub fn compact(&self) -> Result<CompactStats, StoreError> {
        self.compact_with_target(DEFAULT_COMPACT_TARGET)
    }

    /// Rewrite the layout so neighbouring shards merge into data files
    /// of at least `target_docs` documents, dropping tombstoned (empty)
    /// shards and any stale files. Compaction is idempotent: a second
    /// pass over a compacted store rewrites nothing. In-memory stores
    /// have no layout and return a no-op.
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
        fs::create_dir_all(dir)?;
        let _lock = self.lock_dir(dir)?;

        // Compaction rewrites the whole layout from memory, so first
        // fold in *everything* another process may have written: adopt
        // the on-disk layout and merge every document we don't hold.
        if let Some((disk_groups, _doc_counts)) = read_disk_manifest(dir)? {
            let shard_root = dir.join(SHARD_DIR);
            let mut reconciled = 0u64;
            for group in &disk_groups {
                let path = shard_root.join(&group.file);
                if !path.exists() {
                    continue;
                }
                let docs: Vec<Document> = serde_json::from_str(&fs::read_to_string(&path)?)?;
                for doc in docs {
                    doc.check_limit(self.doc_limit)?;
                    let key_removed = state.removed.contains(&doc.id);
                    let bucket = &mut state.shards[shard_of(&doc.id) as usize];
                    if !bucket.contains_key(&doc.id) && !key_removed {
                        bucket.insert(doc.id.clone(), doc);
                        reconciled += 1;
                    }
                }
            }
            if reconciled > 0 {
                self.reconciled_docs.add(reconciled);
            }
            state.groups = disk_groups;
        }

        // The ideal grouping is a pure function of shard occupancy, so
        // re-running compaction reproduces it exactly (idempotence).
        let mut new_groups: Vec<Group> = Vec::new();
        let mut run: Vec<u8> = Vec::new();
        let mut run_docs = 0usize;
        for s in 0..SHARD_COUNT {
            let n = state.shards[s].len();
            if n == 0 {
                continue;
            }
            run.push(s as u8);
            run_docs += n;
            if run_docs >= target_docs {
                new_groups.push(Group::spanning(std::mem::take(&mut run)));
                run_docs = 0;
            }
        }
        if !run.is_empty() {
            new_groups.push(Group::spanning(run));
        }

        let docs = state.doc_count();
        let any_dirty = state.dirty.iter().any(|&d| d);
        let files_before = state.groups.len();
        let shard_root = dir.join(SHARD_DIR);
        if new_groups == state.groups && !any_dirty && state.manifest_synced {
            // Layout already compact; still sweep any stale files an
            // interrupted earlier pass may have left behind.
            sweep_stale_files(&shard_root, &state.groups)?;
            return Ok(CompactStats {
                files_before,
                files_after: files_before,
                docs,
                changed: false,
            });
        }

        fs::create_dir_all(&shard_root)?;
        for group in &new_groups {
            let docs: Vec<&Document> = group
                .shards
                .iter()
                .flat_map(|&s| state.shards[s as usize].values())
                .collect();
            write_atomic(
                &shard_root.join(&group.file),
                &serde_json::to_string(&docs)?,
            )?;
        }
        let manifest = Manifest {
            format: FORMAT_VERSION,
            engine: self.engine.clone(),
            shard_count: SHARD_COUNT as u32,
            groups: new_groups
                .iter()
                .map(|g| GroupEntry {
                    file: g.file.clone(),
                    shards: g.shards.iter().map(|&s| s as u32).collect(),
                    docs: g
                        .shards
                        .iter()
                        .map(|&s| state.shards[s as usize].len() as u64)
                        .sum(),
                })
                .collect(),
        };
        // The manifest write is the commit point: only after it lands
        // are files of the old layout removed, so a crash in between
        // leaves a manifest whose every referenced file exists (the
        // orphans are invisible to `open` and swept by a later pass).
        write_atomic(&dir.join(MANIFEST_FILE), &serde_json::to_string(&manifest)?)?;
        let files_after = new_groups.len();
        state.groups = new_groups;
        state.manifest_synced = true;
        state.dirty.iter_mut().for_each(|d| *d = false);
        state.removed.clear();
        sweep_stale_files(&shard_root, &state.groups)?;
        Ok(CompactStats {
            files_before,
            files_after,
            docs,
            changed: true,
        })
    }

    /// Current store summary.
    pub fn stats(&self) -> ShardStats {
        let state = self.state.read();
        let bytes_on_disk = self
            .dir
            .as_ref()
            .map(|dir| {
                let mut bytes = file_len(&dir.join(MANIFEST_FILE));
                for g in &state.groups {
                    bytes += file_len(&dir.join(SHARD_DIR).join(&g.file));
                }
                bytes
            })
            .unwrap_or(0);
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

fn file_len(path: &Path) -> u64 {
    fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// Remove every file in the shard directory the current layout does
/// not reference (leftovers from interrupted compactions and `.tmp`
/// residue from interrupted writes).
fn sweep_stale_files(shard_root: &Path, groups: &[Group]) -> Result<(), StoreError> {
    if !shard_root.exists() {
        return Ok(());
    }
    for entry in fs::read_dir(shard_root)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if !groups.iter().any(|g| g.file == name) {
            fs::remove_file(&path)?;
        }
    }
    Ok(())
}

/// Write via a temp file + rename so readers never observe a
/// half-written file and a crash cannot truncate existing data.
fn write_atomic(path: &Path, contents: &str) -> Result<(), StoreError> {
    let tmp = path.with_extension("json.tmp");
    fs::write(&tmp, contents)?;
    fs::rename(&tmp, path)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(id: &str, n: i64) -> Document {
        Document::new(id, &n).unwrap()
    }

    /// The number a [`doc`] holds.
    fn n(doc: Document) -> i64 {
        doc.decode().unwrap()
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
    fn upsert_get_remove_and_dirty_tracking() {
        let db = ShardedDb::in_memory();
        assert!(db.is_empty());
        db.upsert(doc(&hexkey(0x11, 1), 1)).unwrap();
        db.upsert(doc(&hexkey(0x22, 2), 2)).unwrap();
        assert_eq!(db.len(), 2);
        assert_eq!(db.dirty_shards(), vec![0x11, 0x22]);
        assert_eq!(n(db.get(&hexkey(0x11, 1)).unwrap()), 1);
        assert!(db.get(&hexkey(0x33, 3)).is_none());
        assert!(db.remove(&hexkey(0x11, 1)).is_some());
        assert!(db.remove(&hexkey(0x11, 1)).is_none());
        assert_eq!(db.len(), 1);
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
    fn save_open_roundtrip_and_layout() {
        let dir = tmpdir("roundtrip");
        let db = ShardedDb::open(&dir, DEFAULT_DOC_LIMIT, "test-engine").unwrap();
        for s in [0x00u8, 0x7f, 0xff] {
            for t in 0..3 {
                db.upsert(doc(&hexkey(s, t), t as i64)).unwrap();
            }
        }
        let stats = db.save().unwrap();
        assert_eq!(stats.data_files_written, 3);
        assert_eq!(stats.docs_written, 9);
        assert!(stats.manifest_written);
        assert!(dir.join(MANIFEST_FILE).exists());
        assert!(dir.join(SHARD_DIR).join("7f.json").exists());

        let back = ShardedDb::open(&dir, DEFAULT_DOC_LIMIT, "test-engine").unwrap();
        assert_eq!(back.len(), 9);
        assert_eq!(n(back.get(&hexkey(0x7f, 2)).unwrap()), 2);
        assert!(back.dirty_shards().is_empty());
        assert_eq!(back.stats().engine, "test-engine");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_rewrites_only_dirty_shard_files() {
        let dir = tmpdir("dirty-only");
        let db = ShardedDb::open(&dir, DEFAULT_DOC_LIMIT, "e").unwrap();
        // 10k docs spread over all 256 shards: the monolithic-store
        // pathology this type exists to fix.
        for t in 0..10_000u64 {
            db.upsert(doc(&hexkey((t % 256) as u8, t), t as i64))
                .unwrap();
        }
        let first = db.save().unwrap();
        assert_eq!(first.data_files_written, 256);

        let mtime = |name: &str| {
            fs::metadata(dir.join(SHARD_DIR).join(name))
                .unwrap()
                .modified()
                .unwrap()
        };
        let before: Vec<(String, _)> = (0..256)
            .map(|s| {
                let name = format!("{s:02x}.json");
                let t = mtime(&name);
                (name, t)
            })
            .collect();
        // Let the filesystem clock tick so an unwanted rewrite would
        // be visible in mtimes, not hidden by timestamp granularity.
        std::thread::sleep(std::time::Duration::from_millis(25));

        // One new point: exactly one data file (+ manifest) rewrites.
        db.upsert(doc(&hexkey(0x42, 99_999), -1)).unwrap();
        assert_eq!(db.dirty_shards(), vec![0x42]);
        let second = db.save().unwrap();
        assert_eq!(second.data_files_written, 1, "{second:?}");
        assert!(second.manifest_written);
        let rewritten: Vec<&str> = before
            .iter()
            .filter(|(name, t)| mtime(name) != *t)
            .map(|(name, _)| name.as_str())
            .collect();
        assert_eq!(rewritten, vec!["42.json"], "only the dirty shard file");

        // Nothing dirty ⇒ nothing written at all.
        let third = db.save().unwrap();
        assert_eq!(third, SaveStats::default());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn removing_all_docs_of_a_shard_tombstones_its_file() {
        let dir = tmpdir("tombstone");
        let db = ShardedDb::open(&dir, DEFAULT_DOC_LIMIT, "e").unwrap();
        db.upsert(doc(&hexkey(0x10, 1), 1)).unwrap();
        db.upsert(doc(&hexkey(0x20, 2), 2)).unwrap();
        db.save().unwrap();
        assert!(dir.join(SHARD_DIR).join("10.json").exists());
        db.remove(&hexkey(0x10, 1)).unwrap();
        let stats = db.save().unwrap();
        assert_eq!(stats.data_files_removed, 1);
        assert!(!dir.join(SHARD_DIR).join("10.json").exists());
        let back = ShardedDb::open(&dir, DEFAULT_DOC_LIMIT, "e").unwrap();
        assert_eq!(back.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_merges_small_shards_and_is_idempotent() {
        let dir = tmpdir("compact");
        let db = ShardedDb::open(&dir, DEFAULT_DOC_LIMIT, "e").unwrap();
        for s in 0..32u8 {
            for t in 0..4 {
                db.upsert(doc(&hexkey(s, t), t as i64)).unwrap();
            }
        }
        db.save().unwrap();
        assert_eq!(db.stats().data_files, 32);

        let pass = db.compact_with_target(40).unwrap();
        assert!(pass.changed);
        assert_eq!(pass.files_before, 32);
        // 32 shards × 4 docs at a 40-doc target ⇒ 10-shard groups.
        assert_eq!(pass.files_after, 4);
        assert!(dir.join(SHARD_DIR).join("00-09.json").exists());
        assert!(!dir.join(SHARD_DIR).join("00.json").exists());

        let again = db.compact_with_target(40).unwrap();
        assert!(!again.changed, "{again:?}");
        assert_eq!(again.files_after, 4);

        // Contents survive the rewrite, including through a reload.
        let back = ShardedDb::open(&dir, DEFAULT_DOC_LIMIT, "e").unwrap();
        assert_eq!(back.len(), 32 * 4);
        assert_eq!(back.stats().data_files, 4);
        assert_eq!(n(back.get(&hexkey(0x1f, 3)).unwrap()), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writes_into_a_compacted_group_rewrite_only_that_file() {
        let dir = tmpdir("compact-dirty");
        let db = ShardedDb::open(&dir, DEFAULT_DOC_LIMIT, "e").unwrap();
        for s in 0..16u8 {
            db.upsert(doc(&hexkey(s, 0), 0)).unwrap();
        }
        db.save().unwrap();
        db.compact_with_target(8).unwrap();
        assert_eq!(db.stats().data_files, 2);

        db.upsert(doc(&hexkey(0x03, 9), 9)).unwrap();
        let stats = db.save().unwrap();
        assert_eq!(stats.data_files_written, 1);
        assert_eq!(stats.docs_written, 9, "whole 8-shard group rewritten");

        // A shard outside any group gets a fresh singleton file.
        db.upsert(doc(&hexkey(0xaa, 1), 1)).unwrap();
        let stats = db.save().unwrap();
        assert_eq!(stats.data_files_written, 1);
        assert!(dir.join(SHARD_DIR).join("aa.json").exists());
        let back = ShardedDb::open(&dir, DEFAULT_DOC_LIMIT, "e").unwrap();
        assert_eq!(back.len(), 18);
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
        assert_eq!(serial.len(), 2_000);
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
    fn concurrent_handles_sharing_a_dir_never_lose_each_others_saves() {
        // Two handles on one directory stand in for two serve
        // processes sharing a cluster cache dir. Both mutate the SAME
        // shard before either saves — the last-writer-wins hazard the
        // lock-aware save exists to close.
        let dir = tmpdir("shared");
        let a = ShardedDb::open(&dir, DEFAULT_DOC_LIMIT, "e").unwrap();
        let b = ShardedDb::open(&dir, DEFAULT_DOC_LIMIT, "e").unwrap();
        a.upsert(doc(&hexkey(0x42, 1), 1)).unwrap();
        b.upsert(doc(&hexkey(0x42, 2), 2)).unwrap();
        a.save().unwrap();
        // b's save rewrites 42.json, but first merges a's document back
        // out of it.
        b.save().unwrap();
        assert_eq!(b.len(), 2, "b reconciled a's doc during its save");
        assert_eq!(b.stats().reconciled_docs, 1);
        assert!(b.stats().lock_acquisitions >= 1);
        let back = ShardedDb::open(&dir, DEFAULT_DOC_LIMIT, "e").unwrap();
        assert_eq!(back.len(), 2, "both processes' documents on disk");
        assert!(back.get(&hexkey(0x42, 1)).is_some());
        assert!(back.get(&hexkey(0x42, 2)).is_some());

        // a saves a disjoint shard: it must adopt b's manifest (which
        // now owns 42.json) instead of clobbering it with its stale
        // layout.
        a.upsert(doc(&hexkey(0x10, 3), 3)).unwrap();
        a.save().unwrap();
        let back = ShardedDb::open(&dir, DEFAULT_DOC_LIMIT, "e").unwrap();
        assert_eq!(back.len(), 3);

        // Compaction from a stale handle folds in everything first.
        b.compact_with_target(2).unwrap();
        assert_eq!(b.len(), 3, "compact reconciled the whole store");
        let back = ShardedDb::open(&dir, DEFAULT_DOC_LIMIT, "e").unwrap();
        assert_eq!(back.len(), 3);
        assert!(back.get(&hexkey(0x10, 3)).is_some());
        fs::remove_dir_all(&dir).unwrap();
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
        assert_eq!(s.engine, "engine-tag");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reads_fold_in_peer_saves_without_a_local_save() {
        let dir = tmpdir("reload");
        let a = ShardedDb::open(&dir, DEFAULT_DOC_LIMIT, "e").unwrap();
        let b = ShardedDb::open(&dir, DEFAULT_DOC_LIMIT, "e").unwrap();

        // a saves; b sees the document at *read* time, no reopen.
        a.upsert(doc(&hexkey(0x42, 1), 1)).unwrap();
        a.save().unwrap();
        let found = b.get(&hexkey(0x42, 1)).expect("miss folds in peer save");
        assert_eq!(n(found), 1);
        assert_eq!(b.len(), 1);
        assert_eq!(b.stats().reconciled_docs, 1);

        // The fold is not a local mutation: b has nothing to save.
        assert_eq!(b.stats().dirty_shards, 0);

        // Misses on untouched shards stay misses and don't refold.
        assert!(b.get(&hexkey(0x42, 99)).is_none());
        assert!(b.get(&hexkey(0x07, 1)).is_none());
        assert_eq!(
            b.stats().reconciled_docs,
            1,
            "no rereads while the manifest is unchanged"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_checked_store_drops_what_it_does_not_admit_wherever_disk_enters() {
        // Admits even numbers only; `upsert` is not checked.
        let even = |doc: &Document| doc.decode::<i64>().is_ok_and(|n| n % 2 == 0);
        let k = |tail| hexkey(0x21, tail);
        let odd = 1;
        let dir = tmpdir("checked");
        let writer = ShardedDb::open(&dir, DEFAULT_DOC_LIMIT, "e").unwrap();
        writer.upsert(doc(&k(1), 2)).unwrap();
        writer.upsert(doc(&k(2), odd)).unwrap();
        writer.save().unwrap();

        // The open.
        let checked = ShardedDb::open_checked(&dir, DEFAULT_DOC_LIMIT, "e", 1, even).unwrap();
        assert_eq!(checked.len(), 1);
        assert!(checked.get(&k(2)).is_none());
        checked.upsert(doc(&k(5), odd)).unwrap();
        assert_eq!(n(checked.get(&k(5)).unwrap()), odd, "upserts are kept");

        // The reload-on-miss fold. The manifest's mtime is set back to
        // what the checked store last saw, and the manifest keeps its
        // length: what two saves within one tick of a coarse clock
        // leave. The fold must happen all the same.
        let manifest = dir.join(MANIFEST_FILE);
        let seen = fs::metadata(&manifest).unwrap();
        writer.upsert(doc(&k(3), 4)).unwrap();
        writer.upsert(doc(&k(4), odd)).unwrap();
        writer.save().unwrap();
        assert_eq!(fs::metadata(&manifest).unwrap().len(), seen.len());
        fs::File::options()
            .write(true)
            .open(&manifest)
            .unwrap()
            .set_modified(seen.modified().unwrap())
            .unwrap();
        assert_eq!(n(checked.get(&k(3)).expect("the fold admits 4")), 4);
        assert!(checked.get(&k(4)).is_none());

        // The reconcile of a lock-aware save.
        writer.upsert(doc(&k(6), odd)).unwrap();
        writer.upsert(doc(&k(7), 8)).unwrap();
        writer.save().unwrap();
        checked.upsert(doc(&k(8), 10)).unwrap();
        checked.save().unwrap();
        assert_eq!(n(checked.get(&k(7)).expect("the reconcile admits 8")), 8);
        assert!(checked.get(&k(6)).is_none());
        let mut keys = checked.keys();
        keys.sort();
        assert_eq!(keys, [k(1), k(3), k(5), k(7), k(8)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reload_respects_local_tombstones_and_mutations() {
        let dir = tmpdir("reload-tombstone");
        let k1 = hexkey(0x11, 1);
        let k2 = hexkey(0x11, 2);
        let k3 = hexkey(0x11, 3);
        let a = ShardedDb::open(&dir, DEFAULT_DOC_LIMIT, "e").unwrap();
        a.upsert(doc(&k1, 1)).unwrap();
        a.upsert(doc(&k2, 1)).unwrap();
        a.save().unwrap();

        let b = ShardedDb::open(&dir, DEFAULT_DOC_LIMIT, "e").unwrap();
        b.remove(&k1).unwrap();
        b.upsert(doc(&k2, 7)).unwrap();

        // a rewrites the shard file (still carrying k1 and its stale
        // k2); a k3 miss on b folds that file back in.
        a.upsert(doc(&k3, 1)).unwrap();
        a.save().unwrap();
        assert_eq!(n(b.get(&k3).expect("fresh peer doc folds in")), 1);
        assert!(b.get(&k1).is_none(), "local tombstone wins over the fold");
        assert_eq!(
            n(b.get(&k2).unwrap()),
            7,
            "local mutation wins over the fold"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn in_memory_stores_skip_the_reload_path() {
        let db = ShardedDb::in_memory();
        assert!(db.get(&hexkey(0x01, 1)).is_none());
        assert_eq!(db.stats().reconciled_docs, 0);
    }
}
