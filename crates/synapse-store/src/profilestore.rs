//! Backend-independent profile storage interface.
//!
//! `radical.synapse.profile()` stores results "on disk or in a MongoDB
//! database" and `emulate()` "uses the command/tag combination ... to
//! search the database for a matching profile" (§4). This module
//! provides that interface over both backends, including the database
//! backend's document-size truncation behaviour that the paper observes
//! in Fig. 4 ("the largest configuration misses one data sample due to
//! limitations in the database backend").

use std::sync::Mutex;

use serde::Deserialize;
use serde_json::Parser;
use synapse_model::{Profile, ProfileKey, ProfileSet};

use crate::document::Document;
use crate::error::StoreError;
use crate::filestore::FileStore;
use crate::sharded::ShardedDb;

/// Outcome of storing one profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaveReport {
    /// Samples actually persisted.
    pub stored_samples: usize,
    /// Trailing samples dropped to fit the backend's document limit
    /// (always 0 for the file store).
    pub dropped_samples: usize,
}

/// A storage backend for profiles.
pub trait ProfileStore {
    /// Persist a profile. Backends with size limits may truncate
    /// trailing samples; the report says how many were kept/dropped.
    fn save(&self, profile: &Profile) -> Result<SaveReport, StoreError>;

    /// Load every profile matching the query key (equal command,
    /// subset tags), in recording order.
    fn load_matching(&self, query: &ProfileKey) -> Result<Vec<Profile>, StoreError>;

    /// Load matches as a [`ProfileSet`]; errors when nothing matches.
    fn load_set(&self, query: &ProfileKey) -> Result<ProfileSet, StoreError> {
        let profiles = self.load_matching(query)?;
        if profiles.is_empty() {
            return Err(StoreError::NotFound(format!("profiles for {query}")));
        }
        let mut set = ProfileSet::new();
        for p in profiles {
            set.push(p)?;
        }
        Ok(set)
    }

    /// The single most representative matching profile (closest to the
    /// mean runtime), used as the emulation input.
    fn load_representative(&self, query: &ProfileKey) -> Result<Profile, StoreError> {
        let set = self.load_set(query)?;
        set.representative()
            .cloned()
            .ok_or_else(|| StoreError::NotFound(format!("profiles for {query}")))
    }
}

impl ProfileStore for FileStore {
    fn save(&self, profile: &Profile) -> Result<SaveReport, StoreError> {
        FileStore::save(self, profile)?;
        Ok(SaveReport {
            stored_samples: profile.len(),
            dropped_samples: 0,
        })
    }

    fn load_matching(&self, query: &ProfileKey) -> Result<Vec<Profile>, StoreError> {
        FileStore::load_matching(self, query)
    }
}

/// Database-backed profile storage: one document per profile run,
/// stored under `"{key.id()}@{run:06}"` and found again by the
/// `(command, tags)` key. The [`ShardedDb`] the caller hands over
/// decides the document limit (16 MB by default, like MongoDB) and
/// whether anything persists (`db().save()` on an opened directory).
pub struct DbProfileStore {
    db: ShardedDb,
    /// Held from picking a run number to inserting under it: two
    /// savers of one key must not pick the same number, because
    /// [`ShardedDb::upsert`] would silently overwrite the first.
    saving: Mutex<()>,
}

impl DbProfileStore {
    /// Wrap a database.
    pub fn new(db: ShardedDb) -> Self {
        DbProfileStore {
            db,
            saving: Mutex::new(()),
        }
    }

    /// The underlying database.
    pub fn db(&self) -> &ShardedDb {
        &self.db
    }
}

/// Split a run's document id into its key id and run number. Commands
/// may contain `@`, so the *last* one is the separator; an id not of
/// this store's making sorts as run 0 of itself.
fn run_of(id: &str) -> (&str, u64) {
    id.rsplit_once('@')
        .and_then(|(key, run)| Some((key, run.parse().ok()?)))
        .unwrap_or((id, 0))
}

/// Decode a stored run if its key matches the query. Only the
/// top-level `key` member is read to decide (it sorts first, so nothing
/// is stepped over to reach it); the sample series of an unwanted
/// profile is never decoded.
fn decode_if_matching(doc: &Document, query: &ProfileKey) -> Result<Option<Profile>, StoreError> {
    let json_err = |e: serde::Error| StoreError::Serde(e.into());
    let mut parser = Parser::new(doc.text());
    let mut first = parser.begin_object().map_err(json_err)?;
    while let Some(member) = parser.next_key(&mut first).map_err(json_err)? {
        if member == "key" {
            let key = ProfileKey::parse_json(&mut parser).map_err(json_err)?;
            return if key.matches(query) {
                doc.decode().map(Some)
            } else {
                Ok(None)
            };
        }
        parser.skip_value().map_err(json_err)?;
    }
    Err(json_err(serde::Error::missing_field("Profile", "key")))
}

impl ProfileStore for DbProfileStore {
    fn save(&self, profile: &Profile) -> Result<SaveReport, StoreError> {
        let (text, dropped) = fit_to_limit(profile, self.db.doc_limit())?;
        let key_id = profile.key.id();
        let _saving = self.saving.lock().expect("a saver panicked mid-save");
        let mut last = 0;
        self.db.for_each(|doc| {
            let (key, run) = run_of(&doc.id);
            if key == key_id {
                last = last.max(run);
            }
        });
        self.db.upsert(Document::from_canonical(
            format!("{key_id}@{:06}", last + 1),
            text,
        ))?;
        Ok(SaveReport {
            stored_samples: profile.len() - dropped,
            dropped_samples: dropped,
        })
    }

    fn load_matching(&self, query: &ProfileKey) -> Result<Vec<Profile>, StoreError> {
        let mut runs = Vec::new();
        let mut failed = None;
        self.db
            .for_each(|doc| match decode_if_matching(doc, query) {
                Ok(Some(profile)) => runs.push((doc.id.clone(), profile)),
                Ok(None) => {}
                Err(e) => failed = Some(e),
            });
        if let Some(e) = failed {
            return Err(e);
        }
        // Ids hash to shards, so shard order is not recording order.
        runs.sort_by(|(a, _), (b, _)| run_of(a).cmp(&run_of(b)));
        Ok(runs.into_iter().map(|(_, profile)| profile).collect())
    }
}

/// Truncate trailing samples until the serialized profile fits the
/// per-document limit. Returns the text of the (possibly truncated)
/// profile — the stored body, so it is not serialized again — and the
/// number of dropped samples.
///
/// This reproduces the MongoDB behaviour the paper reports: the sample
/// *series* is capped, while totals silently lose the tail — which is
/// why the paper's largest configuration "misses one data sample".
fn fit_to_limit(profile: &Profile, limit: usize) -> Result<(String, usize), StoreError> {
    let full = serde_json::to_string(profile)?;
    if full.len() <= limit {
        return Ok((full, 0));
    }
    let with_samples = |n: usize| {
        let mut p = profile.clone();
        p.samples.truncate(n);
        serde_json::to_string(&p)
    };
    // Binary search the largest sample count that fits, keeping the
    // text of the best fit so far.
    let mut lo = 0usize; // always fits (once the shell does)
    let mut hi = profile.len(); // known not to fit
    let mut fitted = with_samples(0)?;
    if fitted.len() > limit {
        return Err(StoreError::DocumentTooLarge {
            size: full.len(),
            limit,
        });
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        let text = with_samples(mid)?;
        if text.len() <= limit {
            lo = mid;
            fitted = text;
        } else {
            hi = mid;
        }
    }
    Ok((fitted, profile.len() - lo))
}

#[cfg(test)]
mod tests {
    use super::*;
    use synapse_model::{Sample, SystemInfo, Tags};

    fn profile(cmd: &str, tags: &str, nsamples: usize, runtime: f64) -> Profile {
        let mut p = Profile::new(
            ProfileKey::new(cmd, Tags::parse(tags)),
            SystemInfo::default(),
            1.0,
        );
        p.runtime = runtime;
        for i in 0..nsamples {
            let mut s = Sample::at(i as f64, 1.0);
            s.compute.cycles = 1000 + i as u64;
            p.push(s).unwrap();
        }
        p
    }

    #[test]
    fn db_store_roundtrip() {
        let store = DbProfileStore::new(ShardedDb::in_memory());
        let p = profile("app", "steps=10", 5, 5.0);
        let rep = store.save(&p).unwrap();
        assert_eq!(rep.stored_samples, 5);
        assert_eq!(rep.dropped_samples, 0);
        let got = store.load_matching(&p.key).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0], p);
    }

    #[test]
    fn db_store_multiple_runs_and_representative() {
        let store = DbProfileStore::new(ShardedDb::in_memory());
        for rt in [1.0, 2.0, 9.0] {
            store.save(&profile("app", "steps=10", 2, rt)).unwrap();
        }
        let key = ProfileKey::new("app", Tags::parse("steps=10"));
        let set = store.load_set(&key).unwrap();
        assert_eq!(set.len(), 3);
        // mean = 4.0, closest runtime is 2.0
        let rep = store.load_representative(&key).unwrap();
        assert_eq!(rep.runtime, 2.0);
    }

    #[test]
    fn db_store_subset_tag_query() {
        let store = DbProfileStore::new(ShardedDb::in_memory());
        store
            .save(&profile("app", "steps=10,host=thinkie", 1, 1.0))
            .unwrap();
        store
            .save(&profile("app", "steps=20,host=thinkie", 1, 1.0))
            .unwrap();
        let by_host = store
            .load_matching(&ProfileKey::new("app", Tags::parse("host=thinkie")))
            .unwrap();
        assert_eq!(by_host.len(), 2);
        let by_steps = store
            .load_matching(&ProfileKey::new("app", Tags::parse("steps=20")))
            .unwrap();
        assert_eq!(by_steps.len(), 1);
        let untagged_query = store
            .load_matching(&ProfileKey::new("app", Tags::new()))
            .unwrap();
        assert_eq!(untagged_query.len(), 2);
    }

    #[test]
    fn runs_are_matched_by_their_key_alone() {
        let store = DbProfileStore::new(ShardedDb::in_memory());
        let wanted = profile("app", "steps=10", 2, 1.0);
        store.save(&wanted).unwrap();
        // Another key's run, whose sample series would not decode.
        let other = ProfileKey::new("other", Tags::new());
        let text = format!(
            r#"{{"key":{},"samples":"not a series"}}"#,
            serde_json::to_string(&other).unwrap()
        );
        let id = format!("{}@000001", other.id());
        store
            .db()
            .upsert(Document::from_canonical(id, text))
            .unwrap();
        assert_eq!(store.load_matching(&wanted.key).unwrap(), vec![wanted]);
        assert!(store.load_matching(&other).is_err(), "a match must decode");
    }

    #[test]
    fn small_doc_limit_truncates_trailing_samples() {
        // A limit that fits the shell plus a few samples only.
        let store = DbProfileStore::new(ShardedDb::in_memory_with_limit(2000));
        let p = profile("app", "", 100, 100.0);
        let rep = store.save(&p).unwrap();
        assert!(rep.dropped_samples > 0, "expected truncation");
        assert_eq!(rep.stored_samples + rep.dropped_samples, 100);
        let got = store.load_matching(&p.key).unwrap();
        assert_eq!(got[0].len(), rep.stored_samples);
        // The kept prefix is exactly the first samples (the tail was
        // dropped, like the paper's missing sample).
        assert_eq!(got[0].samples[..], p.samples[..rep.stored_samples]);
    }

    #[test]
    fn impossible_limit_is_an_error() {
        let store = DbProfileStore::new(ShardedDb::in_memory_with_limit(10));
        let p = profile("app-with-a-reasonably-long-command-name", "", 1, 1.0);
        assert!(matches!(
            store.save(&p),
            Err(StoreError::DocumentTooLarge { .. })
        ));
    }

    #[test]
    fn load_set_missing_key_errors() {
        let store = DbProfileStore::new(ShardedDb::in_memory());
        let q = ProfileKey::new("ghost", Tags::new());
        assert!(matches!(store.load_set(&q), Err(StoreError::NotFound(_))));
    }

    /// `savers` threads released together, each saving one run of the
    /// same key: every save must succeed and every run must be there.
    fn save_one_key_concurrently(store: &(dyn ProfileStore + Sync), savers: usize) {
        let barrier = std::sync::Barrier::new(savers);
        std::thread::scope(|scope| {
            for i in 0..savers {
                let barrier = &barrier;
                scope.spawn(move || {
                    let p = profile("app", "steps=10", 400, 1.0 + i as f64);
                    barrier.wait();
                    store.save(&p).expect("concurrent save");
                });
            }
        });
        let key = ProfileKey::new("app", Tags::parse("steps=10"));
        let mut runtimes: Vec<f64> = store
            .load_matching(&key)
            .unwrap()
            .iter()
            .map(|p| p.runtime)
            .collect();
        runtimes.sort_by(f64::total_cmp);
        let expected: Vec<f64> = (0..savers).map(|i| 1.0 + i as f64).collect();
        assert_eq!(runtimes, expected);
    }

    #[test]
    fn db_store_concurrent_saves_of_one_key_all_land() {
        save_one_key_concurrently(&DbProfileStore::new(ShardedDb::in_memory()), 8);
    }

    #[test]
    fn file_store_concurrent_saves_of_one_key_all_land() {
        let dir = std::env::temp_dir().join(format!("synapse-ps-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        save_one_key_concurrently(&FileStore::open(&dir).unwrap(), 8);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn db_store_persists_runs_in_recording_order() {
        let dir = std::env::temp_dir().join(format!("synapse-ps-db-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || {
            let db = ShardedDb::open(&dir, crate::DEFAULT_DOC_LIMIT, "profilestore-test").unwrap();
            DbProfileStore::new(db)
        };
        let runtimes = |store: &DbProfileStore, tags: &str| -> Vec<f64> {
            let key = ProfileKey::new("app@host", Tags::parse(tags));
            let runs = store.load_matching(&key).unwrap();
            runs.iter().map(|p| p.runtime).collect()
        };
        let store = open();
        // Twelve runs of one key land in several shards (ids hash), and
        // a second key sits between them.
        for run in 1..=12 {
            let p = profile("app@host", "steps=10", 3, run as f64);
            store.save(&p).unwrap();
            if run % 6 == 0 {
                let other = profile("app@host", "steps=20", 1, 100.0 + run as f64);
                store.save(&other).unwrap();
            }
        }
        let shards: std::collections::BTreeSet<u8> = store
            .db()
            .keys()
            .iter()
            .map(|id| crate::shard_of(id))
            .collect();
        assert!(shards.len() > 1, "runs must spread over shards");
        let before = store.load_matching(&ProfileKey::new("app@host", Tags::new()));
        store.db().save().unwrap();
        drop(store);

        let reopened = open();
        let expected: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(runtimes(&reopened, "steps=10"), expected);
        assert_eq!(runtimes(&reopened, "steps=20"), vec![106.0, 112.0]);
        let after = reopened.load_matching(&ProfileKey::new("app@host", Tags::new()));
        assert_eq!(after.unwrap(), before.unwrap());
        // Numbering resumes after what is on disk.
        let p = profile("app@host", "steps=10", 3, 13.0);
        reopened.save(&p).unwrap();
        assert_eq!(runtimes(&reopened, "steps=10").last(), Some(&13.0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_store_implements_trait_without_truncation() {
        let dir = std::env::temp_dir().join(format!("synapse-ps-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = FileStore::open(&dir).unwrap();
        let p = profile("app", "k=v", 50, 50.0);
        let rep = ProfileStore::save(&store, &p).unwrap();
        assert_eq!(rep.dropped_samples, 0);
        assert_eq!(rep.stored_samples, 50);
        let got = ProfileStore::load_matching(&store, &p.key).unwrap();
        assert_eq!(got.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fit_to_limit_is_monotone() {
        let p = profile("a", "", 20, 20.0);
        let full = serde_json::to_string(&p).unwrap();
        let (all, d0) = fit_to_limit(&p, full.len()).unwrap();
        assert_eq!(d0, 0);
        assert_eq!(all, full);
        let (half, dh) = fit_to_limit(&p, full.len() / 2).unwrap();
        assert!(dh > 0);
        assert!(half.len() <= full.len() / 2);
        // The text is the truncated profile's own serialization.
        let mut truncated = p.clone();
        truncated.samples.truncate(20 - dh);
        assert_eq!(half, serde_json::to_string(&truncated).unwrap());
    }
}
