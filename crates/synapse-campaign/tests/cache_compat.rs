//! Result caches already on disk must keep working. `fixtures/cache_v4/`
//! holds a cache directory written by `synapse campaign run` at engine
//! v4 (`cache/`: the manifest and shard files, byte for byte as that
//! run left them) and the spec it ran (`spec.toml`). Today's code must
//! open it, serve every point of the spec from it, and — given the same
//! results — write the very same bytes.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use synapse_campaign::{
    expand, fingerprint, simulate_point, CampaignEngine, CampaignSpec, CancelToken, ResultCache,
    ResultText, RunConfig,
};
use synapse_store::{Document, LOCK_FILE};

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/cache_v4")
}

/// A fresh scratch directory for this test run.
fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("synapse-cache-compat-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Every file under `dir`, keyed by its path relative to `dir`.
fn files(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<PathBuf, Vec<u8>>) {
        for entry in fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path.strip_prefix(root).unwrap().to_path_buf();
                out.insert(rel, fs::read(&path).unwrap());
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out);
    out
}

#[test]
fn a_v4_cache_directory_opens_serves_every_point_and_is_rewritten_byte_for_byte() {
    let spec_text = fs::read_to_string(fixture().join("spec.toml")).unwrap();
    let spec = CampaignSpec::from_toml(&spec_text).unwrap();
    let points = expand(&spec);
    assert_eq!(points.len(), 16);
    let committed = files(&fixture().join("cache"));
    assert!(committed.contains_key(Path::new("manifest.json")));

    // Opening takes the directory lock, which creates a file: open a
    // copy, not the checkout.
    let copy = scratch("open");
    for (rel, bytes) in &committed {
        let path = copy.join(rel);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, bytes).unwrap();
    }
    let cache = ResultCache::open(&copy).unwrap();
    assert_eq!(cache.len(), points.len());
    let fresh: Vec<_> = points.iter().map(|p| simulate_point(p).unwrap()).collect();
    for (point, result) in points.iter().zip(&fresh) {
        let served = cache.get(&fingerprint(point));
        assert_eq!(served.as_ref(), Some(result), "point {}", point.index);
    }
    // The engine's verified hits serve every point too, in both of the
    // forms it lands them in.
    let config = RunConfig { workers: 2 };
    let (decoded, stats) = CampaignEngine::new(&points, &cache, &config)
        .run(&|_| {}, &CancelToken::new())
        .unwrap();
    assert_eq!((stats.cache_hits, stats.simulated), (16, 0));
    assert_eq!(decoded, fresh);
    let (texts, stats) = CampaignEngine::<ResultText>::landing(&points, &cache, &config)
        .run(&|_| {}, &CancelToken::new())
        .unwrap();
    assert_eq!((stats.cache_hits, stats.simulated), (16, 0));
    for (text, result) in texts.iter().zip(&fresh) {
        assert_eq!(
            serde_json::to_string(text).unwrap(),
            serde_json::to_string(result).unwrap()
        );
    }

    // A shard file read and written back is the same file: loading
    // gives each document exactly the text it was stored with.
    for (rel, bytes) in committed
        .iter()
        .filter(|(rel, _)| rel.starts_with("shards"))
    {
        let text = std::str::from_utf8(bytes).unwrap();
        let docs: Vec<Document> = serde_json::from_str(text).unwrap();
        let again = serde_json::to_string(&docs).unwrap();
        assert!(again == text, "{} reloads differently", rel.display());
    }

    // The same results put into a fresh directory and saved: the same
    // shard files and manifest, to the byte.
    let rewritten = scratch("rewrite");
    let cache = ResultCache::open(&rewritten).unwrap();
    for result in &fresh {
        cache.put(&result.fingerprint.hex(), result).unwrap();
    }
    cache.persist().unwrap();
    let mut written = files(&rewritten);
    written.remove(Path::new(LOCK_FILE));
    assert_eq!(
        written.keys().collect::<Vec<_>>(),
        committed.keys().collect::<Vec<_>>()
    );
    for (rel, bytes) in &committed {
        assert!(written[rel] == *bytes, "{} differs", rel.display());
    }
    fs::remove_dir_all(&copy).unwrap();
    fs::remove_dir_all(&rewritten).unwrap();
}
