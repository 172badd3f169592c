//! File-based profile storage: one JSON file per profile, no size
//! limit ("File-based storage of profiles is available, which poses no
//! limit on the number of samples", §4.5).

use std::fs;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use synapse_model::{Profile, ProfileKey};

use crate::error::StoreError;

/// Directory-backed profile storage.
///
/// Profiles for the same `(command, tags)` key are stored as numbered
/// files inside a per-key subdirectory, preserving the order in which
/// repeated profiling runs were recorded.
pub struct FileStore {
    root: PathBuf,
}

impl FileStore {
    /// Open (and create) a file store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(FileStore { root })
    }

    /// Root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn key_dir(&self, key: &ProfileKey) -> PathBuf {
        self.root.join(sanitize(&key.id()))
    }

    /// Store a profile; returns the path written.
    ///
    /// The JSON is written in full under a temp name no reader lists,
    /// then hard-linked to the next free `NNNNNN.json`. The link claims
    /// the number and publishes the whole file in one step: a
    /// concurrent saver that picked the same number gets
    /// `AlreadyExists` and moves on, and neither a concurrent reader
    /// nor a saver killed mid-write can leave a numbered file empty.
    pub fn save(&self, profile: &Profile) -> Result<PathBuf, StoreError> {
        static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = self.key_dir(&profile.key);
        fs::create_dir_all(&dir)?;
        let json = profile.to_json()?;
        let tmp = dir.join(format!(
            "{}-{}.json.tmp",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let published = fs::write(&tmp, json)
            .map_err(StoreError::from)
            .and_then(|()| publish(&dir, &tmp));
        let _ = fs::remove_file(&tmp);
        published
    }

    /// Load every stored profile whose key *matches* the query key
    /// (equal command, query tags are a subset of stored tags), in
    /// recording order, grouped key by key.
    pub fn load_matching(&self, query: &ProfileKey) -> Result<Vec<Profile>, StoreError> {
        let mut out = Vec::new();
        if !self.root.exists() {
            return Ok(out);
        }
        let mut dirs: Vec<PathBuf> = fs::read_dir(&self.root)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for dir in dirs {
            for seq in existing_seqs(&dir)? {
                let path = dir.join(format!("{seq:06}.json"));
                let json = fs::read_to_string(&path)?;
                let profile = Profile::from_json(&json)?;
                if profile.key.matches(query) {
                    out.push(profile);
                }
            }
        }
        Ok(out)
    }

    /// All distinct keys with at least one stored profile.
    pub fn keys(&self) -> Result<Vec<ProfileKey>, StoreError> {
        let mut keys = Vec::new();
        if !self.root.exists() {
            return Ok(keys);
        }
        let mut dirs: Vec<PathBuf> = fs::read_dir(&self.root)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for dir in dirs {
            if let Some(first) = existing_seqs(&dir)?.first() {
                let path = dir.join(format!("{first:06}.json"));
                let profile = Profile::from_json(&fs::read_to_string(path)?)?;
                keys.push(profile.key);
            }
        }
        Ok(keys)
    }
}

/// Link the finished file `tmp` to the first free sequence number in
/// `dir`.
fn publish(dir: &Path, tmp: &Path) -> Result<PathBuf, StoreError> {
    let mut seq = existing_seqs(dir)?.last().map_or(1, |s| s + 1);
    loop {
        let path = dir.join(format!("{seq:06}.json"));
        match fs::hard_link(tmp, &path) {
            Ok(()) => return Ok(path),
            Err(e) if e.kind() == ErrorKind::AlreadyExists => seq += 1,
            Err(e) => return Err(e.into()),
        }
    }
}

/// Sorted sequence numbers of profile files in a key directory (temp
/// files, `*.json.tmp`, are not listed).
fn existing_seqs(dir: &Path) -> Result<Vec<u64>, StoreError> {
    if !dir.exists() {
        return Ok(Vec::new());
    }
    let mut seqs: Vec<u64> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let name = e.file_name();
            let name = name.to_str()?;
            name.strip_suffix(".json")?.parse().ok()
        })
        .collect();
    seqs.sort_unstable();
    Ok(seqs)
}

/// Replace filesystem-hostile characters in a key id.
fn sanitize(id: &str) -> String {
    id.chars()
        .map(|c| {
            if c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | '=' | ',' | '#') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProfileStore;
    use synapse_model::{Sample, SystemInfo, Tags};

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("synapse-fs-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn profile(cmd: &str, tags: &str, runtime: f64) -> Profile {
        let mut p = Profile::new(
            ProfileKey::new(cmd, Tags::parse(tags)),
            SystemInfo::default(),
            1.0,
        );
        p.runtime = runtime;
        p.push(Sample::at(0.0, 1.0)).unwrap();
        p
    }

    #[test]
    fn save_and_load_roundtrip() {
        let dir = tmp("roundtrip");
        let store = FileStore::open(&dir).unwrap();
        let p = profile("app", "steps=10", 1.5);
        let path = store.save(&p).unwrap();
        assert!(path.exists());
        let loaded = store.load_matching(&p.key).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0], p);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repeated_saves_accumulate_in_order() {
        let dir = tmp("repeat");
        let store = FileStore::open(&dir).unwrap();
        for i in 1..=3 {
            store.save(&profile("app", "steps=10", i as f64)).unwrap();
        }
        let set = store
            .load_set(&ProfileKey::new("app", Tags::parse("steps=10")))
            .unwrap();
        assert_eq!(set.len(), 3);
        let runtimes: Vec<f64> = set.profiles().iter().map(|p| p.runtime).collect();
        assert_eq!(runtimes, vec![1.0, 2.0, 3.0]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn subset_tag_queries_match() {
        let dir = tmp("subset");
        let store = FileStore::open(&dir).unwrap();
        store
            .save(&profile("app", "steps=10,host=thinkie", 1.0))
            .unwrap();
        store
            .save(&profile("app", "steps=20,host=thinkie", 2.0))
            .unwrap();
        // Query by host only -> both match.
        let q = ProfileKey::new("app", Tags::parse("host=thinkie"));
        assert_eq!(store.load_matching(&q).unwrap().len(), 2);
        // Query by steps -> exactly one.
        let q10 = ProfileKey::new("app", Tags::parse("steps=10"));
        assert_eq!(store.load_matching(&q10).unwrap().len(), 1);
        // Command must match exactly.
        let qc = ProfileKey::new("other", Tags::new());
        assert!(store.load_matching(&qc).unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_set_errors_when_empty() {
        let dir = tmp("empty");
        let store = FileStore::open(&dir).unwrap();
        let q = ProfileKey::new("ghost", Tags::new());
        assert!(matches!(store.load_set(&q), Err(StoreError::NotFound(_))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn keys_lists_distinct_keys() {
        let dir = tmp("keys");
        let store = FileStore::open(&dir).unwrap();
        store.save(&profile("a", "x=1", 1.0)).unwrap();
        store.save(&profile("a", "x=1", 2.0)).unwrap();
        store.save(&profile("b", "", 1.0)).unwrap();
        let keys = store.keys().unwrap();
        assert_eq!(keys.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn loads_racing_saves_of_one_key_never_see_a_partial_file() {
        let dir = tmp("race-load");
        let store = FileStore::open(&dir).unwrap();
        let key = ProfileKey::new("app", Tags::parse("steps=10"));
        const ROUNDS: usize = 300;
        let saved = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..ROUNDS {
                    store.save(&profile("app", "steps=10", i as f64)).unwrap();
                }
                saved.store(true, Ordering::Release);
            });
            let mut seen = 0;
            while !saved.load(Ordering::Acquire) {
                let runs = store.load_matching(&key).expect("load during saves");
                assert!(runs.len() >= seen, "runs only accumulate");
                seen = runs.len();
                store.keys().expect("keys during saves");
            }
        });
        assert_eq!(store.load_matching(&key).unwrap().len(), ROUNDS);
        let names: Vec<String> = fs::read_dir(store.key_dir(&key))
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert!(names.iter().all(|n| n.ends_with(".json")), "{names:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_leftover_temp_file_is_ignored() {
        let dir = tmp("leftover");
        let store = FileStore::open(&dir).unwrap();
        let p = profile("app", "steps=10", 1.0);
        // A saver killed before publishing: an empty temp in one key's
        // directory, a half-written one alone in another's.
        store.save(&p).unwrap();
        fs::write(store.key_dir(&p.key).join("4242-0.json.tmp"), "").unwrap();
        let orphan = ProfileKey::new("orphan", Tags::new());
        fs::create_dir_all(store.key_dir(&orphan)).unwrap();
        fs::write(store.key_dir(&orphan).join("4242-1.json.tmp"), "{\"key\":").unwrap();

        assert_eq!(store.load_matching(&p.key).unwrap(), vec![p.clone()]);
        assert!(store.load_matching(&orphan).unwrap().is_empty());
        assert_eq!(store.keys().unwrap(), vec![p.key.clone()]);
        // The next save takes the next number, not the temp's.
        let path = store.save(&p).unwrap();
        assert!(path.ends_with("000002.json"), "{path:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hostile_key_characters_are_sanitized() {
        let dir = tmp("hostile");
        let store = FileStore::open(&dir).unwrap();
        let p = profile("../../etc/passwd | rm -rf", "a=/b", 1.0);
        store.save(&p).unwrap();
        // Still loadable through the same key.
        assert_eq!(store.load_matching(&p.key).unwrap().len(), 1);
        // And nothing escaped the root: exactly one sanitized subdir.
        let entries: Vec<_> = fs::read_dir(store.root()).unwrap().collect();
        assert_eq!(entries.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
