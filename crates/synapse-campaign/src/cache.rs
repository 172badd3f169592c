//! Memoization of scenario results, persisted through `synapse-store`.
//!
//! Every scenario point is keyed by a content fingerprint of its axis
//! values plus the engine version; re-running a grown campaign only
//! simulates points whose fingerprints are not in the cache. The cache
//! is a [`ShardedDb`]: results spread over 256 shard files by
//! fingerprint prefix, saves rewrite only the shards touched since the
//! last save, and a manifest records the layout — so a million-point
//! campaign pays for the points it adds, not for the points it has.

use std::fmt;
use std::ops::{Deref, Range};
use std::path::Path;

use serde::json::{plain_f64, plain_u64, write_u64, Parser};
use serde::{Deserialize, Serialize};
use synapse_store::{Document, ShardedDb, DEFAULT_DOC_LIMIT};

use crate::error::CampaignError;
use crate::grid::{fnv1a, Fnv, ScenarioPoint};
use crate::runner::PointResult;

/// [`ENGINE_VERSION`] as a literal, so [`ENGINE_TAG`] is spelled at
/// compile time.
macro_rules! engine_version {
    () => {
        4
    };
}

/// Bump when simulation semantics change: stale cached results from an
/// older engine must not satisfy a newer campaign.
///
/// v3: [`ScenarioPoint`] gained the `fs` and `atoms` axes, changing
/// every point's canonical JSON (and therefore every fingerprint).
///
/// v4: the `sample_order` ablation (Fig. 2) became a grid axis — a new
/// `ScenarioPoint` field and a new term in the per-point seed
/// derivation, so every fingerprint changed again.
pub const ENGINE_VERSION: u32 = engine_version!();

/// What every fingerprint folds in after the point's text (see
/// [`Fingerprint`]).
const ENGINE_TAG: &str = concat!("|engine=", engine_version!());

/// Engine tag recorded in the sharded store's manifest.
pub fn engine_tag() -> String {
    format!("synapse-campaign/engine-v{ENGINE_VERSION}")
}

/// A scenario point's content fingerprint: the key its result is cached
/// under, stable across runs and platforms.
///
/// It is the [`fnv1a`] hash of the point's canonical JSON text, written
/// with index 0 (the index is display-only, so reordering axes or
/// growing the grid never changes a point's identity), followed by
/// `|engine=` and [`ENGINE_VERSION`]. The version is folded in twice:
/// as the FNV seed *and* as hashed bytes. Seeding alone only XORs the
/// version into the initial state, which a crafted (or unlucky) byte
/// stream could cancel back out — hashing the version bytes makes a
/// version bump irreversibly part of the digest.
///
/// It is written (`Display`, JSON) as 16 lowercase hex digits,
/// `{:016x}`, and read back only from exactly that spelling.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint(u64);

impl Fingerprint {
    /// The fingerprint of `point`.
    pub fn of(point: &ScenarioPoint) -> Fingerprint {
        Probe::new().write(point)
    }

    /// The fingerprint spelled `hex`: exactly 16 lowercase hex digits,
    /// what `{:016x}` writes; `None` for anything else.
    pub fn parse(hex: &str) -> Option<Fingerprint> {
        if hex.len() != 16 || !hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
            return None;
        }
        u64::from_str_radix(hex, 16).ok().map(Fingerprint)
    }

    /// The 16 hex digits as a stack string: a key for the by-key calls
    /// ([`ResultCache::get`], [`ResultCache::put`]) that allocates
    /// nothing.
    pub fn hex(self) -> FingerprintHex {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        let mut out = [0u8; 16];
        for (i, digit) in out.iter_mut().enumerate() {
            *digit = DIGITS[(self.0 >> (60 - 4 * i) & 0xf) as usize];
        }
        FingerprintHex(out)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(&self.hex())
    }
}

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fingerprint({self})")
    }
}

impl Serialize for Fingerprint {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        out.push_str(&self.hex());
        out.push('"');
    }
}

fn not_a_fingerprint(text: &str) -> serde::Error {
    serde::Error::new(format!("{text:?} is not 16 lowercase hex digits"))
}

impl<'de> Deserialize<'de> for Fingerprint {
    fn parse_json(parser: &mut Parser<'_>) -> Result<Self, serde::Error> {
        if parser.peek() != Some(b'"') {
            return Err(parser.mismatch("string"));
        }
        let text = parser.parse_str()?;
        Fingerprint::parse(&text).ok_or_else(|| not_a_fingerprint(&text))
    }
}

/// A [`Fingerprint`]'s 16 hex digits, held on the stack; reads as a
/// `&str`.
#[derive(Clone, Copy)]
pub struct FingerprintHex([u8; 16]);

impl fmt::Debug for FingerprintHex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl Deref for FingerprintHex {
    type Target = str;
    fn deref(&self) -> &str {
        std::str::from_utf8(&self.0).expect("hex digits are ASCII")
    }
}

/// Content fingerprint of a scenario point as its hex text — see
/// [`Fingerprint`], which is what the engine carries.
pub fn fingerprint(point: &ScenarioPoint) -> String {
    Fingerprint::of(point).to_string()
}

/// A sweep worker's scratch for probing the cache: the point being
/// probed, its canonical text (index written as 0) in a buffer reused
/// from point to point, and the [`Fingerprint`] hashed from that text.
/// A cache hit is checked against the same text
/// ([`ResultCache::hit`]), so one point's text is written once.
#[derive(Debug, Clone)]
pub struct Probe {
    point: ScenarioPoint,
    text: String,
    /// Where the index digit (`0`) sits in `text`.
    index_at: usize,
    fingerprint: Fingerprint,
    /// `fingerprint`'s hex digits: the store key, written once.
    key: FingerprintHex,
}

impl Default for Probe {
    fn default() -> Probe {
        Probe::new()
    }
}

impl Probe {
    /// A probe holding no point yet (a placeholder until the first
    /// [`write`](Probe::write)). Its buffer is allocated once, here: a
    /// point's text is ~330 bytes.
    pub fn new() -> Probe {
        Probe {
            point: ScenarioPoint {
                index: 0,
                workload: "".into(),
                steps: 0,
                machine: "".into(),
                kernel: "".into(),
                mode: "".into(),
                threads: 0,
                io_block: 0,
                sample_rate: 0.0,
                fs: "".into(),
                atoms: "".into(),
                sample_order: "".into(),
                profile_machine: "".into(),
                noise_cv: 0.0,
                seed: 0,
            },
            text: String::with_capacity(512),
            index_at: 0,
            fingerprint: Fingerprint(0),
            key: Fingerprint(0).hex(),
        }
    }

    /// Take `point` on: write its canonical text and hash it. Returns
    /// its fingerprint.
    pub fn write(&mut self, point: &ScenarioPoint) -> Fingerprint {
        self.point = *point;
        self.text.clear();
        ScenarioPoint { index: 0, ..*point }.write_json(&mut self.text);
        // No string value can hold the key text: the escaper writes a
        // `"` inside a string as `\"`.
        const INDEX_KEY: &str = ",\"index\":";
        self.index_at = self
            .text
            .find(INDEX_KEY)
            .expect("a point's text has an index")
            + INDEX_KEY.len();
        let mut hash = Fnv::new(ENGINE_VERSION as u64);
        hash.fold(self.text.as_bytes());
        hash.fold(ENGINE_TAG.as_bytes());
        self.fingerprint = Fingerprint(hash.finish());
        self.key = self.fingerprint.hex();
        self.fingerprint
    }
}

/// A stored result text that is the result of a probe's point, its
/// seven numbers still text (see [`verified`]).
struct Verified<'t> {
    app_tx: &'t str,
    bytes_written: &'t str,
    consumed_cycles: &'t str,
    directed_cycles: &'t str,
    instructions: &'t str,
    samples: &'t str,
    tx: &'t str,
    /// Where the stored grid index's digits sit in the text.
    index: Range<usize>,
}

/// Read a stored result text as the result of `probe`'s point, or
/// `None` if it is not exactly that: its `fingerprint` is the probe's
/// and its `point` is the text the probe wrote, apart from the index
/// digits. A stored text is a result's canonical text,
/// `{"app_tx":<n>,"bytes_written":<n>,"consumed_cycles":<n>,"directed_cycles":<n>,"fingerprint":"<hex>","instructions":<n>,"point":{…},"samples":<n>,"tx":<n>}`,
/// and a number holds no comma, so it is read back from its end with
/// no search; the point is compared, never lexed.
fn verified<'t>(text: &'t str, probe: &Probe) -> Option<Verified<'t>> {
    let (before, after) = probe.text.split_at(probe.index_at);
    // `after` starts with the probe's own index digit, `0`.
    let after = &after[1..];
    let (rest, tx) = text.strip_suffix('}')?.rsplit_once(',')?;
    let (rest, samples) = rest.rsplit_once(',')?;
    let rest = rest.strip_suffix(after)?;
    let digits = rest.bytes().rev().take_while(u8::is_ascii_digit).count();
    let index = rest.len() - digits..rest.len();
    let rest = rest[..index.start].strip_suffix(before)?;
    let (rest, instructions) = rest.strip_suffix(",\"point\":")?.rsplit_once(',')?;
    let rest = rest
        .strip_suffix('"')?
        .strip_suffix(&*probe.key)?
        .strip_suffix(",\"fingerprint\":\"")?;
    let (app_tx, rest) = rest.strip_prefix("{\"app_tx\":")?.split_once(',')?;
    let (bytes_written, rest) = rest.strip_prefix("\"bytes_written\":")?.split_once(',')?;
    let (consumed_cycles, rest) = rest.strip_prefix("\"consumed_cycles\":")?.split_once(',')?;
    (!index.is_empty()).then_some(Verified {
        app_tx,
        bytes_written,
        consumed_cycles,
        directed_cycles: rest.strip_prefix("\"directed_cycles\":")?,
        instructions: instructions.strip_prefix("\"instructions\":")?,
        samples: samples.strip_prefix("\"samples\":")?,
        tx: tx.strip_prefix("\"tx\":")?,
        index,
    })
}

/// An integer's text: plain digits, as the writer emits them, read in
/// a loop; any other text as decoding reads it.
fn integer<T: TryFrom<u64> + for<'de> Deserialize<'de>>(text: &str) -> Option<T> {
    match plain_u64(text) {
        Some(n) => T::try_from(n).ok(),
        None => number(text),
    }
}

/// A float's text: `-?digits.digits`, as the writer emits a finite
/// value below 10^16, read by `str::parse`; any other text as decoding
/// reads it.
fn float(text: &str) -> Option<f64> {
    plain_f64(text).or_else(|| number(text))
}

/// One number's text read as decoding reads it.
fn number<T: for<'de> Deserialize<'de>>(text: &str) -> Option<T> {
    let mut parser = Parser::new(text);
    let value = T::parse_json(&mut parser).ok()?;
    parser.end().ok().map(|()| value)
}

/// A result as the cache stores it: its canonical JSON text, the bytes
/// `serde_json::to_string(&PointResult)` writes. It serializes as that
/// text, verbatim, so a landed hit crosses the wire without ever being
/// decoded.
#[derive(Debug, Clone)]
pub struct ResultText(String);

impl ResultText {
    /// `text` with the digits at `digits` replaced by `index`: one
    /// allocation.
    fn rebound(text: &str, digits: Range<usize>, index: usize) -> ResultText {
        let width = index.checked_ilog10().map_or(1, |d| d as usize + 1);
        let mut out = String::with_capacity(text.len() - digits.len() + width);
        out.push_str(&text[..digits.start]);
        write_u64(&mut out, index as u64);
        out.push_str(&text[digits.end..]);
        ResultText(out)
    }

    /// The text of `result`.
    pub fn of(result: &PointResult) -> ResultText {
        // A result renders to ~560 bytes: one allocation.
        let mut text = String::with_capacity(640);
        result.write_json(&mut text);
        ResultText(text)
    }
}

impl Serialize for ResultText {
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
    /// with [valid times](PointResult::times_are_valid) is not served
    /// as it loads (or as a peer's save folds in later), so it is a
    /// miss: [`hit_text`](ResultCache::hit_text) can then hand out
    /// stored text without decoding it. A save writes it back as read
    /// (see [`ShardedDb::open_checked`]).
    pub fn open_with_workers(dir: impl AsRef<Path>, workers: usize) -> Result<Self, CampaignError> {
        let db = ShardedDb::open_checked(dir, DEFAULT_DOC_LIMIT, engine_tag(), workers, |doc| {
            doc.decode::<PointResult>()
                .is_ok_and(|result| result.times_are_valid())
        })?;
        Ok(ResultCache { db })
    }

    /// Cached result for a fingerprint, if any, decoded in full — the
    /// by-key lookup, for a caller that holds no point. The engine
    /// probes with [`hit`](ResultCache::hit) instead.
    ///
    /// For on-disk caches this read is cross-process: a miss checks
    /// (one `stat`) whether a peer sharing the directory has saved
    /// since, and folds that save's shard file in before answering —
    /// cluster workers pick up each other's results mid-campaign, not
    /// only at the next open. See [`synapse_store::ShardedDb::get`].
    ///
    /// The stored document's text is decoded where it lies, under the
    /// store's read lock.
    pub fn get(&self, fingerprint: &str) -> Option<PointResult> {
        self.db.read(fingerprint, |doc| doc.decode().ok()).flatten()
    }

    /// The cached result of `probe`'s point, rebound to its grid index,
    /// or `None` on a miss. The stored text must be that point's result
    /// (see [`Probe`]): only its numbers are read, and the point and
    /// fingerprint come from the probe, so a hit allocates nothing. A
    /// document whose point is another's (a 64-bit key collision, an
    /// edited file) is a miss, and the engine's `put` replaces it.
    /// The same cross-process lookup as [`get`](ResultCache::get).
    pub fn hit(&self, probe: &Probe) -> Option<PointResult> {
        self.db
            .read(&probe.key, |doc| {
                let stored = verified(doc.text(), probe)?;
                Some(PointResult {
                    point: probe.point,
                    fingerprint: probe.fingerprint,
                    tx: float(stored.tx)?,
                    app_tx: float(stored.app_tx)?,
                    samples: integer(stored.samples)?,
                    directed_cycles: integer(stored.directed_cycles)?,
                    consumed_cycles: integer(stored.consumed_cycles)?,
                    instructions: integer(stored.instructions)?,
                    bytes_written: integer(stored.bytes_written)?,
                })
            })
            .flatten()
    }

    /// [`hit`](ResultCache::hit) as the stored text: the same check,
    /// then the text copied once, under the store's read lock, with the
    /// index digits replaced by the probe's point's index — no number
    /// is read.
    pub fn hit_text(&self, probe: &Probe) -> Option<ResultText> {
        self.db
            .read(&probe.key, |doc| {
                let index = verified(doc.text(), probe)?.index;
                Some(ResultText::rebound(doc.text(), index, probe.point.index))
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

    /// Merge small shard files into grouped ones.
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
    use serde::Value;
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
            fingerprint: Fingerprint::of(point),
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
        assert_eq!(ENGINE_TAG, format!("|engine={ENGINE_VERSION}"));
    }

    #[test]
    fn put_get_roundtrip_in_memory() {
        let cache = ResultCache::in_memory();
        let ps = points();
        let r = result_for(&ps[0]);
        assert!(cache.get(&r.fingerprint.hex()).is_none());
        cache.put(&r.fingerprint.hex(), &r).unwrap();
        assert_eq!(cache.get(&r.fingerprint.hex()).unwrap(), r);
        assert_eq!(cache.len(), 1);
        // Idempotent.
        cache.put(&r.fingerprint.hex(), &r).unwrap();
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_verified_hit_is_the_decoded_result_in_both_forms() {
        let cache = ResultCache::in_memory();
        let mut r = result_for(&points()[1]);
        r.point.index = 42;
        cache.put(&r.fingerprint.hex(), &r).unwrap();
        let mut probe = Probe::new();
        for index in [42, 0, 7, 43, 99_999] {
            r.point.index = index;
            assert_eq!(probe.write(&r.point), r.fingerprint);
            assert_eq!(cache.hit(&probe).unwrap(), r);
            let text = cache.hit_text(&probe).unwrap();
            assert_eq!(text.0, serde_json::to_string(&r).unwrap());
            assert_eq!(text.0, ResultText::of(&r).0);
        }
        probe.write(&points()[0]);
        assert!(cache.hit(&probe).is_none());
        assert!(cache.hit_text(&probe).is_none());
    }

    #[test]
    fn a_stored_point_that_is_not_the_probes_is_a_miss_and_is_replaced() {
        use crate::engine::{CampaignEngine, CancelToken};
        use crate::runner::RunConfig;
        let ps = points();
        let key = Fingerprint::of(&ps[0]).hex();
        let fresh = crate::runner::simulate_point(&ps[0]).unwrap();
        let mut probe = Probe::new();
        probe.write(&ps[0]);
        // The same result under the probe's key, but for a point one
        // field away: what a 64-bit key collision or an edited file
        // leaves.
        let mut reseeded = fresh.clone();
        reseeded.point.seed ^= 1;
        let mut moved = fresh.clone();
        moved.point.machine = ps[1].machine;
        for planted in [&reseeded, &moved] {
            for text_form in [false, true] {
                let cache = ResultCache::in_memory();
                cache.put(&key, planted).unwrap();
                assert!(cache.hit(&probe).is_none());
                assert!(cache.hit_text(&probe).is_none());
                // The by-key lookup has no point to check against.
                assert_eq!(cache.get(&key).as_ref(), Some(planted));
                let config = RunConfig { workers: 1 };
                let simulated = if text_form {
                    CampaignEngine::<ResultText>::landing(&ps[..1], &cache, &config)
                        .run(&|_| {}, &CancelToken::new())
                        .unwrap()
                        .1
                        .simulated
                } else {
                    CampaignEngine::new(&ps[..1], &cache, &config)
                        .run(&|_| {}, &CancelToken::new())
                        .unwrap()
                        .1
                        .simulated
                };
                assert_eq!(simulated, 1, "a planted point is re-simulated");
                assert_eq!(cache.get(&key), Some(fresh.clone()), "and replaced");
                assert_eq!(cache.hit(&probe), Some(fresh.clone()));
            }
        }
    }

    #[test]
    fn fingerprints_read_back_only_as_sixteen_lowercase_hex_digits() {
        let print = Fingerprint::of(&points()[0]);
        let hex = print.to_string();
        assert_eq!(hex, "a997b4c959216dd9");
        assert_eq!(&*print.hex(), hex);
        assert_eq!(Fingerprint::parse(&hex), Some(print));
        assert_eq!(format!("{:?}", print), "Fingerprint(a997b4c959216dd9)");
        let json = serde_json::to_string(&print).unwrap();
        assert_eq!(json, format!("\"{hex}\""));
        assert_eq!(serde_json::from_str::<Fingerprint>(&json).unwrap(), print);
        assert_eq!(Fingerprint(0).to_string(), "0000000000000000");
        assert_eq!(&*Fingerprint(u64::MAX).hex(), "ffffffffffffffff");
        for bad in [
            "xyz",
            "a997b4c959216dd",
            "a997b4c959216dd90",
            "A997B4C959216DD9",
            "a997b4c959216dD9",
            "+997b4c959216dd9",
            "",
        ] {
            assert_eq!(Fingerprint::parse(bad), None, "{bad}");
            let quoted = format!("\"{bad}\"");
            assert!(
                serde_json::from_str::<Fingerprint>(&quoted).is_err(),
                "{bad}"
            );
        }
        assert!(serde_json::from_str::<Fingerprint>("7").is_err());
    }

    #[test]
    fn a_stored_document_that_is_not_a_result_is_a_miss_after_reopen() {
        let dir = tmpdir("undecodable");
        let ps = points();
        let db = ShardedDb::open(&dir, DEFAULT_DOC_LIMIT, engine_tag()).unwrap();
        let good = result_for(&ps[0]);
        db.upsert(Document::new(&*good.fingerprint.hex(), &good).unwrap())
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
        // Nor is one whose fingerprint is not 16 lowercase hex digits.
        let text = serde_json::to_string(&good).unwrap();
        let hex = good.fingerprint.to_string();
        let bad_prints = [
            "000000000000000c",
            "000000000000000d",
            "000000000000000e",
            "000000000000000f",
        ];
        for (key, print) in bad_prints.iter().zip([
            "xyz".to_string(),
            hex[1..].to_string(),
            format!("{hex}0"),
            hex.to_uppercase(),
        ]) {
            let body: Value = serde_json::from_str(&text.replace(&hex, &print)).unwrap();
            db.upsert(Document::new(*key, &body).unwrap()).unwrap();
        }
        db.save().unwrap();

        let cache = ResultCache::open(&dir).unwrap();
        assert!(cache.get(unknown_key).is_none());
        for key in bad_times.iter().chain(&bad_prints) {
            assert!(cache.get(key).is_none(), "{key}");
        }
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&fingerprint(&ps[1])).is_none());
        let mut probe = Probe::new();
        probe.write(&ps[1]);
        assert!(cache.hit(&probe).is_none());
        assert!(cache.hit_text(&probe).is_none());
        assert_eq!(cache.get(&good.fingerprint.hex()).unwrap(), good);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn persist_and_reopen() {
        let dir = tmpdir("reopen");
        {
            let cache = ResultCache::open(&dir).unwrap();
            for p in &points() {
                let r = result_for(p);
                cache.put(&r.fingerprint.hex(), &r).unwrap();
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
            cache.put(&r.fingerprint.hex(), &r).unwrap();
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
        cache.put(&r.fingerprint.hex(), &r).unwrap();
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
            cache.put(&r.fingerprint.hex(), &r).unwrap();
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
