//! Allocation budgets for the per-point simulate, wire and cache
//! paths, as a deterministic gate: a counting global allocator (this
//! test binary only) and a fixed number of allocator calls allowed per
//! call on a warm path. Counts repeat exactly from run to run, so unlike a
//! timing this does not depend on how noisy the machine is — a `Value`
//! tree or a deep clone creeping back onto one of these paths fails
//! here by a factor of several, not by a few percent.

#![expect(
    unsafe_code,
    reason = "the counting allocator implements the unsafe GlobalAlloc trait over System"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use synapse_campaign::{
    expand, fingerprint, simulate_point, CampaignEngine, CampaignSpec, CancelToken, Fingerprint,
    LiveAggregates, PointResult, Probe, ResultCache, ResultText, RunConfig, ScenarioPoint,
};
use synapse_cluster::protocol::{parse_event, WorkerEvent};
use synapse_server::{lease_batch_line, DEFAULT_BATCH_POINTS};

thread_local! {
    /// Allocator calls made by this thread (`const`-initialized: reading
    /// it never allocates).
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every call that hands out or grows a
/// block — `alloc`, `alloc_zeroed`, `realloc` — per thread, so the
/// harness's other threads cannot disturb a measurement.
struct Counting;

fn count() {
    // `try_with`: a thread tearing down its locals may still free.
    let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state and does not allocate.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's `layout` goes to `System` as is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    // SAFETY: the caller's `layout` goes to `System` as is.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    // SAFETY: `ptr` came from this allocator, that is from `System`,
    // with `layout`; both go back to it as they are.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: as for `realloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls `f` makes on this thread. Run twice: the first pass
/// is the warm-up (lazy statics, metric registration), and the two
/// counts after it must agree — the gate is only as good as its
/// repeatability.
fn calls<R>(mut f: impl FnMut() -> R) -> u64 {
    let mut measure = || {
        let before = CALLS.with(Cell::get);
        let out = f();
        let spent = CALLS.with(Cell::get) - before;
        drop(out);
        spent
    };
    measure();
    let (first, second) = (measure(), measure());
    assert_eq!(first, second, "allocation counts must repeat exactly");
    first
}

/// A 16-point grid, grown by the TOML lines in `axes`.
fn spec(axes: &str) -> CampaignSpec {
    CampaignSpec::from_toml(&format!(
        r#"
        name = "budget"
        seed = 3
        machines = ["thinkie", "comet", "stampede", "titan"]
        kernels = ["asm", "c"]
        {axes}

        [[workloads]]
        app = "gromacs"
        steps = [1000, 2000]
        "#,
    ))
    .unwrap()
}

fn results() -> Vec<PointResult> {
    let results: Vec<_> = expand(&spec("threads = [1, 8]\nio_blocks = [65536, 1048576]"))
        .iter()
        .map(|p| simulate_point(p).unwrap())
        .collect();
    assert_eq!(results.len(), DEFAULT_BATCH_POINTS, "one full frame");
    results
}

#[test]
fn warm_per_point_paths_stay_within_their_allocation_budgets() {
    let results = results();
    let one = &results[0];

    // A grid is its vector of points and the resolved names: a point's
    // names are catalog names, and its seed is folded, not written out.
    let grid = spec("");
    let points = calls(|| expand(&grid));
    assert_eq!(expand(&grid).len(), 16);
    assert!(
        points <= 2,
        "expanding 16 points made {points} allocator calls"
    );
    // ... so a point is `Copy`, and copying one copies no string.
    assert_eq!(calls(|| one.point), 0);

    // A fingerprint is a `u64` hashed from the point's text, written
    // into one buffer; the by-key `String` form adds its hex text.
    assert!(calls(|| Fingerprint::of(&one.point)) <= 1);
    assert!(calls(|| fingerprint(&one.point)) <= 2);

    // Simulating a point costs its fingerprint's buffer: resolving its
    // machines, plan and kernel builds nothing, and the result's point
    // and fingerprint are copies.
    let cold = calls(|| simulate_point(&one.point).unwrap());
    assert!(cold <= 1, "simulate_point made {cold} allocator calls");

    // The text, grown at most once.
    assert!(calls(|| serde_json::to_string(one).unwrap()) <= 2);

    let cache = ResultCache::in_memory();
    for r in &results {
        cache.put(&r.fingerprint.hex(), r).unwrap();
    }
    // A sweep worker's probe, once its buffer is warm, plus a verified
    // hit: the point's text is written into that buffer, the stored
    // text's numbers are read where they lie, and the point and
    // fingerprint are copies. Nothing is allocated.
    let mut probe = Probe::new();
    let mut moved = one.point;
    moved.index = 1_000_000;
    let hit = calls(|| {
        probe.write(&moved);
        cache.hit(&probe).unwrap()
    });
    assert_eq!(
        hit, 0,
        "a probe and a verified hit made {hit} allocator calls"
    );
    // The by-key lookup decodes the whole document: a result's
    // strings are catalog names and a `u64`, so it allocates nothing
    // either.
    let by_key = calls(|| cache.get(&one.fingerprint.hex()).unwrap());
    assert_eq!(by_key, 0, "a by-key hit made {by_key} allocator calls");

    // A hit as stored text, what a lease job lands, is the one copy of
    // that text with its index replaced: no decode.
    let text_hit = calls(|| cache.hit_text(&probe).unwrap());
    assert!(text_hit <= 1, "a text hit made {text_hit} allocator calls");

    // A warm sweep, run inline on this thread (one worker), costs per
    // point the `Arc` its result is shared through, and nothing more:
    // the per-run vectors cancel out between a 64- and a 16-point run.
    let wide = expand(&spec("threads = [1, 8]\nio_blocks = [65536, 1048576]"));
    let narrow = expand(&grid);
    let warm = ResultCache::in_memory();
    for point in wide.iter().chain(&narrow) {
        let result = simulate_point(point).unwrap();
        warm.put(&result.fingerprint.hex(), &result).unwrap();
    }
    let config = RunConfig { workers: 1 };
    let sweep = |points: &[ScenarioPoint]| {
        calls(|| {
            let (results, stats) = CampaignEngine::new(points, &warm, &config)
                .run(&|_| {}, &CancelToken::new())
                .unwrap();
            assert_eq!(stats.cache_hits, points.len());
            results
        })
    };
    let (wide_calls, narrow_calls) = (sweep(&wide), sweep(&narrow));
    let per_point = (wide_calls - narrow_calls) as f64 / (wide.len() - narrow.len()) as f64;
    assert!(
        per_point <= 1.0,
        "a warm sweep made {per_point} allocator calls per point ({wide_calls} for {}, {narrow_calls} for {})",
        wide.len(),
        narrow.len()
    );

    // A put of a result the cache has not seen costs its text, the
    // document's id and the store's copy of that id as the key: no
    // tree. The keys share one shard whose node already exists, so
    // the count is the put's own, every time.
    let cold_cache = ResultCache::in_memory();
    cold_cache.put("00ffffffffffffff", one).unwrap();
    let fresh: Vec<String> = (0..3).map(|i| format!("00{i:014x}")).collect();
    let mut fresh = fresh.iter();
    let put = calls(|| cold_cache.put(fresh.next().unwrap(), one).unwrap());
    assert!(put <= 4, "a new put made {put} allocator calls");

    // A frame is its payload buffer and its line, however many points
    // it packs: nothing per point.
    let packed: Vec<(Arc<PointResult>, bool)> = results
        .iter()
        .map(|r| (Arc::new(r.clone()), true))
        .collect();
    let per_frame = |n: usize| calls(|| lease_batch_line(&packed[..n], Some("t0123456789abcdef")));
    assert!(per_frame(1) <= 4);
    assert!(per_frame(DEFAULT_BATCH_POINTS) <= 4);
    // The same frame over stored texts: each is copied in as it is.
    let texts: Vec<(Arc<ResultText>, bool)> = results
        .iter()
        .map(|r| (Arc::new(ResultText::of(r)), true))
        .collect();
    let per_text_frame =
        |n: usize| calls(|| lease_batch_line(&texts[..n], Some("t0123456789abcdef")));
    assert!(per_text_frame(1) <= 4);
    assert!(per_text_frame(DEFAULT_BATCH_POINTS) <= 4);

    // Decoding one: the vectors the results sit in, grown by doubling
    // — a result's fingerprint is a `u64` and its names are catalog
    // names, so no result allocates — and no document tree.
    let frame = lease_batch_line(&packed, None);
    let decode = || match parse_event(&frame) {
        Some(WorkerEvent::Batch(points)) => points,
        other => panic!("frame decoded as {other:?}"),
    };
    assert_eq!(decode().len(), DEFAULT_BATCH_POINTS);
    let decoded = calls(decode);
    assert!(
        decoded <= 8,
        "a {DEFAULT_BATCH_POINTS}-point frame decode made {decoded} allocator calls"
    );
}

/// Allocator calls one run of `f` makes on this thread: for paths that
/// do not repeat their counts, like a growing view's.
fn once<R>(f: impl FnOnce() -> R) -> u64 {
    let before = CALLS.with(Cell::get);
    let out = f();
    let spent = CALLS.with(Cell::get) - before;
    drop(out);
    spent
}

#[test]
fn a_live_view_allocates_for_growth_and_per_slice_only() {
    let results = results();
    let fold = |points: usize| {
        let live = LiveAggregates::new();
        let folded = once(|| {
            for r in results.iter().cycle().take(points) {
                live.record(r);
            }
        });
        (live, folded)
    };
    // Warm-up: the metric handles register on first use.
    fold(1);

    // Recording a point whose slices exist, into room the view has,
    // writes one row: nothing is formatted, nothing allocated.
    let (live, _) = fold(1000);
    let one = once(|| live.record(&results[0]));
    assert_eq!(one, 0, "a record made {one} allocator calls");

    // Folding 1536 points allocates for its 18 slices (each one's
    // text, and the tables that find it) and for the row vector's
    // doublings: 48 calls, under a bound that one call per point
    // would break 25-fold.
    let (small, folded) = fold(1536);
    assert!(folded <= 60, "1536 records made {folded} allocator calls");

    // A read of a finished view summarises it once: per metric, a sort
    // of the rows into runs of 512 — one allocation per run, not per
    // point — and the summaries, kept until the next change. A second
    // read writes the same document from them, straight to text: its
    // slice vector, each slice's value text and the text's buffer,
    // whatever the view's size. The report's slices, read right after,
    // summarise nothing again: one vector and each slice's two texts.
    let (big, _) = fold(16_384);
    let render = |live: &LiveAggregates| serde_json::to_string(&live.view(None, None));
    let read = |live: &LiveAggregates| {
        let first = once(|| render(live));
        let again = once(|| render(live));
        let slices = once(|| live.slices());
        (first - again, again, slices)
    };
    let ((small_read, small_render, small_slices), (big_read, big_render, big_slices)) =
        (read(&small), read(&big));
    assert_eq!(small.slices().len(), 18);
    assert!(
        small_render <= 64 && big_render <= 64,
        "a render of 18 slices made {small_render} and {big_render} allocator calls"
    );
    assert!(
        small_slices == big_slices && small_slices <= 1 + 2 * 18,
        "reading 18 slices made {small_slices} and {big_slices} allocator calls"
    );
    assert!(
        small_read <= 16,
        "summarising 1536 points made {small_read} allocator calls"
    );
    assert!(
        big_read <= small_read + 2 * 16_384 / 512,
        "summarising 16384 points made {big_read} allocator calls ({small_read} for 1536)"
    );
}
