//! Memoization of scenario results, persisted through `synapse-store`.
//!
//! Every scenario point is keyed by a content fingerprint of its axis
//! values plus the engine version; re-running a grown campaign only
//! simulates points whose fingerprints are not in the cache. The cache
//! is a [`ShardedDb`]: results spread over 256 shard files by
//! fingerprint prefix, saves rewrite only the shards touched since the
//! last save, and a manifest records the layout — so a million-point
//! campaign pays for the points it adds, not for the points it has.

use std::fmt::Write as _;
use std::ops::Range;
use std::path::Path;

use serde::{Serialize, Value};
use synapse_store::{Document, ShardedDb, DEFAULT_DOC_LIMIT};

use crate::error::CampaignError;
use crate::grid::{fnv1a, ScenarioPoint};
use crate::runner::PointResult;

/// Bump when simulation semantics change: stale cached results from an
/// older engine must not satisfy a newer campaign.
///
/// v3: [`ScenarioPoint`] gained the `fs` and `atoms` axes, changing
/// every point's canonical JSON (and therefore every fingerprint).
///
/// v4: the `sample_order` ablation (Fig. 2) became a grid axis — a new
/// `ScenarioPoint` field and a new term in the per-point seed
/// derivation, so every fingerprint changed again.
pub const ENGINE_VERSION: u32 = 4;

/// Engine tag recorded in the sharded store's manifest.
pub fn engine_tag() -> String {
    format!("synapse-campaign/engine-v{ENGINE_VERSION}")
}

/// Content fingerprint of a scenario point (hex, stable across runs
/// and platforms).
pub fn fingerprint(point: &ScenarioPoint) -> String {
    // The hash input is the point's canonical JSON, written straight
    // into the buffer that gets hashed. The index is display-only; it
    // is hashed as 0 so reordering axes or growing the grid never
    // changes a point's identity.
    let mut json = String::with_capacity(512);
    ScenarioPoint { index: 0, ..*point }.write_json(&mut json);
    // The engine version is folded in twice: as the FNV seed *and* as
    // hashed bytes. Seeding alone only XORs the version into the
    // initial state, which a crafted (or unlucky) byte stream could
    // cancel back out — hashing the version bytes makes a version bump
    // irreversibly part of the digest.
    let _ = write!(json, "|engine={ENGINE_VERSION}");
    format!("{:016x}", fnv1a(json.as_bytes(), ENGINE_VERSION as u64))
}

/// Where the grid index's digits sit in the canonical text of a result;
/// `None` if the text has no index key. No string value can hold the
/// key text: the escaper writes a `"` inside a string as `\"`. A result's own keys sort around `point`, and none
/// is `index`, so the first match is the point's.
fn index_digits(json: &str) -> Option<Range<usize>> {
    const INDEX_KEY: &str = ",\"index\":";
    let at = json.find(INDEX_KEY)? + INDEX_KEY.len();
    let digits = json[at..].bytes().take_while(u8::is_ascii_digit).count();
    Some(at..at + digits)
}

/// A result as the cache stores it: its canonical JSON text, the bytes
/// `serde_json::to_string(&PointResult)` writes. It serializes as that
/// text, verbatim, so a landed hit crosses the wire without ever being
/// decoded.
#[derive(Debug, Clone)]
pub struct ResultText(String);

impl ResultText {
    /// The text of `result`.
    pub fn of(result: &PointResult) -> ResultText {
        // A result renders to ~560 bytes: one allocation.
        let mut text = String::with_capacity(640);
        result.write_json(&mut text);
        ResultText(text)
    }
}

impl Serialize for ResultText {
    fn serialize_value(&self) -> Value {
        serde_json::from_str(&self.0).expect("a stored result text parses")
    }

    fn write_json(&self, out: &mut String) {
        out.push_str(&self.0);
    }
}

/// Deterministic causality id for a campaign: the same spec (seed
/// included) under the same engine version always yields the same id.
///
/// Determinism is load-bearing: the id is minted independently by the
/// CLI, the server and the cluster coordinator, stamped on lease
/// requests (`X-Synapse-Trace`) and echoed in worker events, and it
/// must also never make two recordings of the same sweep differ by a
/// byte (see `synapse-trace`) — so it is content-derived, not random.
pub fn campaign_trace_id(spec: &crate::spec::CampaignSpec) -> String {
    let json = serde_json::to_string(spec).expect("spec serializes");
    let mut bytes = json.into_bytes();
    bytes.extend_from_slice(b"|trace-engine=");
    bytes.extend_from_slice(ENGINE_VERSION.to_string().as_bytes());
    // Seeded differently from point fingerprints so a trace id can
    // never collide into the result-cache keyspace.
    format!("t{:016x}", fnv1a(&bytes, 0x7472616365)) // b"trace"
}

/// A fingerprint-keyed result store.
pub struct ResultCache {
    db: ShardedDb,
}

impl ResultCache {
    /// An in-memory cache (lives for one process).
    pub fn in_memory() -> Self {
        ResultCache {
            db: ShardedDb::in_memory(),
        }
    }

    /// Open (or create) a cache persisted under `dir`, loading shard
    /// files on one thread.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, CampaignError> {
        Self::open_with_workers(dir, 1)
    }

    /// Open (or create) a cache persisted under `dir`, loading shard
    /// files across `workers` threads (0 ⇒ one per core, capped at 16)
    /// so cache warm-up scales with the machine instead of a single
    /// reader.
    ///
    /// A stored document that does not decode as a [`PointResult`]
    /// with [valid times](PointResult::times_are_valid) is dropped as
    /// it loads (and as a peer's save folds in later), so it is a miss:
    /// [`get_text`](ResultCache::get_text) can then hand out stored
    /// text without decoding it.
    pub fn open_with_workers(dir: impl AsRef<Path>, workers: usize) -> Result<Self, CampaignError> {
        let db = ShardedDb::open_checked(dir, DEFAULT_DOC_LIMIT, engine_tag(), workers, |doc| {
            doc.decode::<PointResult>()
                .is_ok_and(|result| result.times_are_valid())
        })?;
        Ok(ResultCache { db })
    }

    /// Cached result for a fingerprint, if any.
    ///
    /// For on-disk caches this read is cross-process: a miss checks
    /// (one `stat`) whether a peer sharing the directory has saved
    /// since, and folds that save's shard file in before answering —
    /// cluster workers pick up each other's results mid-campaign, not
    /// only at the next open. See [`synapse_store::ShardedDb::get`].
    ///
    /// The stored document's text is decoded where it lies, under the
    /// store's read lock — a hit costs the strings of the result it
    /// returns, not a copy of the document first.
    pub fn get(&self, fingerprint: &str) -> Option<PointResult> {
        self.db.read(fingerprint, |doc| doc.decode().ok()).flatten()
    }

    /// The cached result for a fingerprint as its stored text, rebound
    /// to grid position `index` — the same lookup as
    /// [`get`](ResultCache::get), with no decode: the text is copied
    /// once, under the store's read lock, with the index digits
    /// replaced. Every stored text decodes (`put` writes canonical
    /// text, and an open drops any that does not), so this answers
    /// exactly where `get` does.
    pub fn get_text(&self, fingerprint: &str, index: usize) -> Option<ResultText> {
        self.db
            .read(fingerprint, |doc| {
                let text = doc.text();
                let digits = index_digits(text)?;
                let width = index.checked_ilog10().map_or(1, |d| d as usize + 1);
                let mut out = String::with_capacity(text.len() - digits.len() + width);
                out.push_str(&text[..digits.start]);
                let _ = write!(out, "{index}");
                out.push_str(&text[digits.end..]);
                Some(ResultText(out))
            })
            .flatten()
    }

    /// Store a result under its fingerprint (idempotent): its
    /// canonical text is written once and upserted as the document.
    pub fn put(&self, fingerprint: &str, result: &PointResult) -> Result<(), CampaignError> {
        self.db.upsert(Document::new(fingerprint, result)?)?;
        Ok(())
    }

    /// Number of cached results.
    pub fn len(&self) -> usize {
        self.db.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.db.is_empty()
    }

    /// Write mutated shards back to the cache directory (no-op for
    /// in-memory caches and for saves with nothing new).
    pub fn persist(&self) -> Result<synapse_store::SaveStats, CampaignError> {
        Ok(self.db.save()?)
    }

    /// Merge small shard files and drop tombstoned ones.
    pub fn compact(&self) -> Result<synapse_store::CompactStats, CampaignError> {
        Ok(self.db.compact()?)
    }

    /// Shape of the underlying sharded store.
    pub fn stats(&self) -> synapse_store::ShardStats {
        self.db.stats()
    }

    /// The store's live lock/reconcile counter handles, for binding
    /// into a metrics registry — see [`synapse_store::ShardedDb::counters`].
    pub fn store_counters(&self) -> synapse_store::StoreCounters {
        self.db.counters()
    }

    /// Shards mutated since the last persist (diagnostics/tests).
    pub fn dirty_shards(&self) -> Vec<u8> {
        self.db.dirty_shards()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::PointResult;
    use crate::spec::CampaignSpec;
    use synapse_store::sharded::MANIFEST_FILE;

    fn points() -> Vec<ScenarioPoint> {
        let spec = CampaignSpec::from_toml(
            r#"
            name = "cache"
            machines = ["thinkie", "comet"]
            kernels = ["asm"]

            [[workloads]]
            app = "gromacs"
            steps = [1000]
            "#,
        )
        .unwrap();
        crate::grid::expand(&spec)
    }

    fn result_for(point: &ScenarioPoint) -> PointResult {
        PointResult {
            point: *point,
            fingerprint: fingerprint(point),
            tx: 1.5,
            app_tx: 1.0,
            samples: 3,
            directed_cycles: 100,
            consumed_cycles: 110,
            instructions: 220,
            bytes_written: 64,
        }
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "synapse-campaign-cache-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn fingerprints_are_stable_and_index_independent() {
        let ps = points();
        let mut a = ps[0];
        assert_eq!(fingerprint(&a), fingerprint(&ps[0]));
        a.index = 999;
        assert_eq!(fingerprint(&a), fingerprint(&ps[0]), "index excluded");
        assert_ne!(fingerprint(&ps[0]), fingerprint(&ps[1]));
        let mut reseeded = ps[0];
        reseeded.seed ^= 1;
        assert_ne!(fingerprint(&reseeded), fingerprint(&ps[0]), "seed included");
    }

    #[test]
    fn fingerprints_are_pinned_across_codec_changes() {
        // Computed at commit 45ca1a9, when `fingerprint` cloned the
        // point and rendered it through the `Value` tree. A change to
        // the JSON writer that moves one byte of a point's canonical
        // text silently invalidates every cache on disk; this fails
        // instead. Re-pin only together with an `ENGINE_VERSION` bump.
        let ps = points();
        assert_eq!(fingerprint(&ps[0]), "a997b4c959216dd9");
        let mut late = ps[1];
        late.index = 123_456;
        assert_eq!(fingerprint(&late), "5c58a5d9d9d4f670");
        // Escapes, non-ASCII, an integral float, the largest seed, and
        // a string value spelling the index key.
        let mut odd = ps[0];
        odd.index = 7;
        odd.workload = "we\"ird\\app,\"index\":9 é\n".into();
        odd.sample_rate = 2.0;
        odd.noise_cv = 0.025;
        odd.seed = u64::MAX;
        assert_eq!(fingerprint(&odd), "53d59abc83909c1d");
    }

    #[test]
    fn fingerprint_hashes_engine_version_as_bytes_not_just_seed() {
        // Regression: seeding FNV with the version only XORs it into
        // the initial state; the digest must also *hash* the version
        // bytes so a version bump can never collide back.
        let ps = points();
        let mut canonical = ps[0];
        canonical.index = 0;
        let json = serde_json::to_string(&canonical).unwrap();
        let seed_only = format!("{:016x}", fnv1a(json.as_bytes(), ENGINE_VERSION as u64));
        assert_ne!(
            fingerprint(&ps[0]),
            seed_only,
            "engine version must be part of the hashed bytes"
        );
    }

    #[test]
    fn put_get_roundtrip_in_memory() {
        let cache = ResultCache::in_memory();
        let ps = points();
        let r = result_for(&ps[0]);
        assert!(cache.get(&r.fingerprint).is_none());
        cache.put(&r.fingerprint, &r).unwrap();
        assert_eq!(cache.get(&r.fingerprint).unwrap(), r);
        assert_eq!(cache.len(), 1);
        // Idempotent.
        cache.put(&r.fingerprint, &r).unwrap();
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_text_hit_is_the_decoded_hit_written_back() {
        let cache = ResultCache::in_memory();
        let mut r = result_for(&points()[1]);
        r.point.index = 42;
        cache.put(&r.fingerprint, &r).unwrap();
        for index in [42, 0, 7, 43, 99_999] {
            r.point.index = index;
            let text = cache.get_text(&r.fingerprint, index).unwrap();
            assert_eq!(text.0, serde_json::to_string(&r).unwrap());
            assert_eq!(text.0, ResultText::of(&r).0);
        }
        assert!(cache.get_text("0000000000000000", 0).is_none());
        assert_eq!(index_digits(r#"{"app_tx":1.0}"#), None);
    }

    #[test]
    fn a_stored_document_that_is_not_a_result_is_a_miss_after_reopen() {
        let dir = tmpdir("undecodable");
        let ps = points();
        let db = ShardedDb::open(&dir, DEFAULT_DOC_LIMIT, engine_tag()).unwrap();
        let good = result_for(&ps[0]);
        db.upsert(Document::new(good.fingerprint.as_str(), &good).unwrap())
            .unwrap();
        // The index key is there; the numbers are not.
        let mut bad = serde_json::to_value(result_for(&ps[1])).unwrap();
        if let Value::Object(fields) = &mut bad {
            fields.insert("tx".into(), Value::Str("slow".into()));
        }
        db.upsert(Document::new(fingerprint(&ps[1]), &bad).unwrap())
            .unwrap();
        // A name outside the catalogs is not a point either.
        let mut unknown = result_for(&ps[0]);
        unknown.point.machine = "frontier".into();
        let unknown_key = "00000000deadbeef";
        db.upsert(Document::new(unknown_key, &unknown).unwrap())
            .unwrap();
        // Nor is a result whose times are negative or not finite (an
        // infinite one is stored as `null`).
        let mut negative = result_for(&ps[0]);
        negative.tx = -1.0;
        let mut infinite = result_for(&ps[0]);
        infinite.app_tx = f64::INFINITY;
        let bad_times = ["000000000000000a", "000000000000000b"];
        for (key, result) in bad_times.iter().zip([&negative, &infinite]) {
            db.upsert(Document::new(*key, result).unwrap()).unwrap();
        }
        db.save().unwrap();

        let cache = ResultCache::open(&dir).unwrap();
        assert!(cache.get(unknown_key).is_none());
        for key in bad_times {
            assert!(cache.get(key).is_none(), "{key}");
            assert!(cache.get_text(key, 0).is_none(), "{key}");
        }
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&fingerprint(&ps[1])).is_none());
        assert!(cache.get_text(&fingerprint(&ps[1]), 1).is_none());
        assert_eq!(cache.get(&good.fingerprint).unwrap(), good);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn persist_and_reopen() {
        let dir = tmpdir("reopen");
        {
            let cache = ResultCache::open(&dir).unwrap();
            for p in &points() {
                let r = result_for(p);
                cache.put(&r.fingerprint, &r).unwrap();
            }
            cache.persist().unwrap();
        }
        let reopened = ResultCache::open(&dir).unwrap();
        assert_eq!(reopened.len(), points().len());
        for p in &points() {
            let got = reopened.get(&fingerprint(p)).unwrap();
            assert_eq!(got.point, *p);
        }
        assert!(dir.join(MANIFEST_FILE).exists(), "sharded layout on disk");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn incremental_persist_rewrites_only_new_shards() {
        let dir = tmpdir("incremental");
        let cache = ResultCache::open(&dir).unwrap();
        let ps = points();
        for p in &ps {
            let r = result_for(p);
            cache.put(&r.fingerprint, &r).unwrap();
        }
        cache.persist().unwrap();
        // Nothing new ⇒ nothing written.
        let idle = cache.persist().unwrap();
        assert_eq!(idle.data_files_written, 0);
        assert!(!idle.manifest_written);
        // One new point ⇒ at most one data file (+ manifest).
        let mut extra = ps[0];
        extra.seed ^= 0xdead;
        let r = result_for(&extra);
        cache.put(&r.fingerprint, &r).unwrap();
        let incr = cache.persist().unwrap();
        assert_eq!(incr.data_files_written, 1, "{incr:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stray_single_file_cache_is_ignored_and_left_in_place() {
        let dir = tmpdir("stray");
        std::fs::create_dir_all(&dir).unwrap();
        let stray = dir.join("campaign_results.json");
        std::fs::write(&stray, "[]").unwrap();
        let cache = ResultCache::open(&dir).unwrap();
        assert!(cache.is_empty());
        assert_eq!(std::fs::read_to_string(&stray).unwrap(), "[]");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_and_stats_through_cache() {
        let dir = tmpdir("compact");
        let cache = ResultCache::open(&dir).unwrap();
        let ps = points();
        for p in &ps {
            let r = result_for(p);
            cache.put(&r.fingerprint, &r).unwrap();
        }
        cache.persist().unwrap();
        let before = cache.stats();
        assert_eq!(before.docs, ps.len());
        assert!(before.data_files >= 1);
        let pass = cache.compact().unwrap();
        assert_eq!(pass.docs, ps.len());
        assert!(pass.files_after <= pass.files_before.max(1));
        let reopened = ResultCache::open(&dir).unwrap();
        assert_eq!(reopened.len(), ps.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
