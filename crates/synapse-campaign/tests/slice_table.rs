//! The slice table against the fold it replaced: every slice kept its
//! own raw values in arrival order and a read sorted them, slice by
//! slice, with a stable sort (`Series`). Here that fold is copied, test
//! local, and run over seeded result sets — one to three values per
//! axis, duplicate metrics, `-0.0` next to `0.0`, random arrival
//! orders, reads mid-sweep, and views assembled from digests — and the
//! report's slices, the live view's bytes and its mean |error| must
//! come out the same, bit for bit. The view's bytes are held to the
//! `Value`-tree renderer the live plane used before it wrote its own
//! JSON, copied here too: every view filter, and deltas at random
//! cursors.
//!
//! The old fold sorted with `partial_cmp`, under which `-0.0 == 0.0`:
//! with both in one slice its output depended on which arrived first.
//! The reference therefore sorts with `f64::total_cmp` in every case,
//! and with `partial_cmp` too — the old comparator verbatim — in the
//! cases that hold no `-0.0`, where the two orders agree.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use serde_json::{json, Value};
use synapse_campaign::aggregate::{axis_slices, AxisSlice, Percentiles};
use synapse_campaign::grid::Name;
use synapse_campaign::{
    expand, CampaignEngine, CampaignSpec, CancelToken, LiveAggregates, PointResult, ResultCache,
    RunConfig, AGGREGATES_VERSION,
};

/// SplitMix64: a seeded stream of cases.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len())]
    }

    /// One to three draws from `from`, repeats allowed.
    fn some<T: Copy>(&mut self, from: &[T]) -> Vec<T> {
        (0..1 + self.below(3)).map(|_| self.pick(from)).collect()
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A catalog name drawn from `from`, either as the catalog holds it or
/// as a literal of this file: one spelling at (possibly) two addresses,
/// which the table must count as one slice.
fn name(rng: &mut Rng, from: &[&'static str]) -> Name {
    let spelling = rng.pick(from);
    if rng.below(2) == 0 {
        Name::resolve(spelling).expect("a catalog spelling")
    } else {
        Name::from(spelling)
    }
}

/// `points` results around `base`, each axis drawing from its own one
/// to three values.
fn results(rng: &mut Rng, base: &PointResult, with_negative_zero: bool) -> Vec<PointResult> {
    let machines = rng.some(&["thinkie", "stampede", "titan", "comet"]);
    let workloads = rng.some(&["gromacs", "amber"]);
    let kernels = rng.some(&["asm", "c", "spin"]);
    let modes = rng.some(&["openmp", "mpi"]);
    let filesystems = rng.some(&["default", "local", "lustre"]);
    let atoms = rng.some(&["compute", "compute+memory", "all"]);
    let orders = rng.some(&["preserve", "shuffle"]);
    let steps = rng.some(&[10, 10_000, 123_457]);
    let threads = rng.some(&[1, 2, 8]);
    let io_blocks = rng.some(&[4096, 65536]);
    let sample_rates = rng.some(&[-0.0, 0.0, 0.25, 10.5, 1000.0]);
    let mut txs = vec![0.0, 1.5, 2.0, 1e-300, 3.25, 7.0];
    if with_negative_zero {
        txs.extend([-0.0, -0.0]);
    }
    let app_txs = [0.0, 1.5, 2.0, 5.0];
    (0..1 + rng.below(60))
        .map(|_| {
            let mut r = base.clone();
            let p = &mut r.point;
            p.machine = name(rng, &machines);
            p.workload = name(rng, &workloads);
            p.kernel = name(rng, &kernels);
            p.mode = name(rng, &modes);
            p.fs = name(rng, &filesystems);
            p.atoms = name(rng, &atoms);
            p.sample_order = name(rng, &orders);
            p.steps = rng.pick(&steps);
            p.threads = rng.pick(&threads);
            p.io_block = rng.pick(&io_blocks);
            p.sample_rate = rng.pick(&sample_rates);
            r.tx = rng.pick(&txs);
            r.app_tx = rng.pick(&app_txs);
            assert!(r.times_are_valid());
            r
        })
        .collect()
}

/// The old estimator: nearest-rank over the sorted series, the mean
/// summed in sorted order.
fn of_sorted(sorted: &[f64]) -> Option<Percentiles> {
    let (&min, &max) = (sorted.first()?, sorted.last()?);
    let rank = |p: f64| -> f64 {
        let idx = ((p / 100.0 * sorted.len() as f64).ceil() as usize).max(1);
        sorted[idx.min(sorted.len()) - 1]
    };
    Some(Percentiles {
        n: sorted.len(),
        mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        p50: rank(50.0),
        p95: rank(95.0),
        p99: rank(99.0),
        min,
        max,
    })
}

/// Every report axis with the value as the old fold wrote it.
fn old_keys(r: &PointResult) -> [(&'static str, String); 11] {
    let p = &r.point;
    [
        ("atoms", p.atoms.as_str().to_string()),
        ("fs", p.fs.as_str().to_string()),
        ("io_block", p.io_block.to_string()),
        ("kernel", p.kernel.as_str().to_string()),
        ("machine", p.machine.as_str().to_string()),
        ("mode", p.mode.as_str().to_string()),
        ("sample_order", p.sample_order.as_str().to_string()),
        ("sample_rate", p.sample_rate.to_string()),
        ("steps", p.steps.to_string()),
        ("threads", p.threads.to_string()),
        ("workload", p.workload.as_str().to_string()),
    ]
}

/// A slice's `error_pct` and `tx` values.
type Metrics = (Vec<f64>, Vec<f64>);

type Cmp = fn(&f64, &f64) -> Ordering;

/// One metric of one slice, as the old fold kept it: raw values in
/// arrival order, stably sorted on read.
fn summary(values: &[f64], cmp: Cmp) -> Option<Percentiles> {
    let mut sorted = values.to_vec();
    sorted.sort_by(cmp);
    of_sorted(&sorted)
}

/// The old fold's output for `arrived`: the report's slices, each with
/// the arrival (1-based) of its last point, the overall summaries and
/// the mean |error_pct|.
struct Reference {
    slices: Vec<AxisSlice>,
    last: Vec<usize>,
    overall: [Option<Percentiles>; 2],
    mean_abs_error_pct: Option<f64>,
}

/// The live plane's metric names, in render order.
const METRICS: [&str; 2] = ["error_pct", "tx"];

impl Reference {
    /// `{"error_pct": stats, "tx": stats}` (or one of them) as the
    /// tree renderer built it: a stats object is the [`Percentiles`],
    /// or `{"n": 0}` for an empty series.
    fn metrics(metrics: [Option<Percentiles>; 2], metric: Option<&str>) -> Value {
        let mut map = serde_json::Map::new();
        for (name, summary) in METRICS.into_iter().zip(metrics) {
            if metric.is_none_or(|m| m == name) {
                let stats = match summary {
                    Some(p) => serde_json::to_value(p).unwrap(),
                    None => json!({"n": 0}),
                };
                map.insert(name.to_string(), stats);
            }
        }
        Value::Object(map)
    }

    /// The slices `keep` selects, each as `{"axis", "metrics", "value"}`.
    fn slices_value(&self, metric: Option<&str>, keep: impl Fn(usize) -> bool) -> Value {
        let slices = self.slices.iter().enumerate().filter(|&(at, _)| keep(at));
        Value::Array(
            slices
                .map(|(_, s)| {
                    json!({
                        "axis": s.axis,
                        "metrics": Reference::metrics([Some(s.error_pct), Some(s.tx)], metric),
                        "value": s.value,
                    })
                })
                .collect(),
        )
    }

    /// The pull-mode document.
    fn render(&self, axis: Option<&str>, metric: Option<&str>) -> Value {
        json!({
            "overall": {"metrics": Reference::metrics(self.overall, metric)},
            "points": self.overall[1].map_or(0, |p| p.n),
            "slices": self.slices_value(metric, |at| {
                axis.is_none_or(|want| want == self.slices[at].axis)
            }),
            "v": AGGREGATES_VERSION,
        })
    }

    /// The slices whose last point arrived after the first `since`.
    fn delta(&self, since: usize) -> Value {
        self.slices_value(None, |at| self.last[at] > since)
    }
}

fn reference(arrived: &[&PointResult], cmp: Cmp) -> Reference {
    // (axis, value text) → (error_pct values, tx values, last arrival),
    // in arrival order.
    let mut slices: BTreeMap<(&str, String), (Metrics, usize)> = BTreeMap::new();
    let (mut errors, mut txs) = (Vec::new(), Vec::new());
    for (at, r) in arrived.iter().enumerate() {
        errors.push(r.error_pct());
        txs.push(r.tx);
        for (axis, value) in old_keys(r) {
            let (node, last) = slices.entry((axis, value)).or_default();
            node.0.push(r.error_pct());
            node.1.push(r.tx);
            *last = at + 1;
        }
    }
    let (slices, last) = slices
        .into_iter()
        .map(|((axis, value), ((error_pct, tx), last))| {
            let slice = AxisSlice {
                axis: axis.to_string(),
                value,
                tx: summary(&tx, cmp).unwrap(),
                error_pct: summary(&error_pct, cmp).unwrap(),
            };
            (slice, last)
        })
        .unzip();
    let overall = [summary(&errors, cmp), summary(&txs, cmp)];
    let mut sorted = errors;
    sorted.sort_by(cmp);
    let mean_abs_error_pct = (!sorted.is_empty())
        .then(|| sorted.iter().map(|v| v.abs()).sum::<f64>() / sorted.len() as f64);
    Reference {
        slices,
        last,
        overall,
        mean_abs_error_pct,
    }
}

fn text(v: &impl serde::Serialize) -> String {
    serde_json::to_string(v).unwrap()
}

fn base() -> PointResult {
    let spec = CampaignSpec::from_toml(
        r#"
        name = "slices"
        machines = ["thinkie"]
        kernels = ["c"]

        [[workloads]]
        app = "gromacs"
        steps = [10000]
        "#,
    )
    .unwrap();
    let (results, _) = CampaignEngine::new(
        &expand(&spec),
        &ResultCache::in_memory(),
        &RunConfig::default(),
    )
    .run(&|_| {}, &CancelToken::new())
    .unwrap();
    results.into_iter().next().unwrap()
}

/// The view's outputs in the reference's shapes, byte for byte: the
/// report's slices, the view under every filter, `delta_since(0)`
/// and the mean |error_pct|.
fn assert_view_is(live: &LiveAggregates, want: &Reference, case: usize) {
    assert_eq!(
        text(&live.slices()),
        text(&want.slices),
        "case {case}: slices"
    );
    for axis in [None, Some("machine"), Some("sample_rate")] {
        for metric in [None, Some("error_pct"), Some("tx")] {
            assert_eq!(
                text(&live.view(axis, metric)),
                text(&want.render(axis, metric)),
                "case {case}: view({axis:?}, {metric:?})"
            );
        }
    }
    assert_eq!(
        text(&live.delta_since(0).0),
        text(&want.delta(0)),
        "case {case}: delta_since(0)"
    );
    assert_eq!(
        live.mean_abs_error_pct().map(f64::to_bits),
        want.mean_abs_error_pct.map(f64::to_bits),
        "case {case}: mean_abs_error_pct"
    );
}

#[test]
fn an_empty_view_reads_as_the_tree_renderer_wrote_it() {
    let (live, want) = (LiveAggregates::new(), reference(&[], f64::total_cmp));
    assert_view_is(&live, &want, 0);
    assert_eq!(
        text(&live.view(None, Some("tx"))),
        r#"{"overall":{"metrics":{"tx":{"n":0}}},"points":0,"slices":[],"v":1}"#
    );
}

#[test]
fn the_slice_table_reads_exactly_as_the_per_slice_fold_did() {
    let base = base();
    let mut rng = Rng(0x5eed_0043);
    for case in 0..200 {
        let with_negative_zero = case % 2 == 0;
        let rs = results(&mut rng, &base, with_negative_zero);
        let mut arrived: Vec<&PointResult> = rs.iter().collect();
        rng.shuffle(&mut arrived);
        let arrivals: Vec<PointResult> = arrived.iter().map(|&r| r.clone()).collect();

        let mut comparators: Vec<Cmp> = vec![f64::total_cmp];
        if !with_negative_zero {
            comparators.push(|a, b| a.partial_cmp(b).expect("finite metric"));
        }
        for cmp in comparators {
            let want = reference(&arrived, cmp);
            assert_eq!(
                text(&axis_slices(&arrivals)),
                text(&want.slices),
                "case {case}: axis_slices"
            );

            // Recorded point by point, read at random moments on the way:
            // a version is the number of points recorded, so a delta at
            // a random cursor holds the slices a later point landed in.
            let live = LiveAggregates::new();
            for r in &arrived {
                live.record(r);
                match rng.below(8) {
                    0 => drop(live.view(None, None)),
                    1 => drop(live.delta_since(rng.next() % (live.version() + 1))),
                    2 => drop(live.mean_abs_error_pct()),
                    _ => {}
                }
            }
            assert_view_is(&live, &want, case);
            // Drawn from their own stream, so the cases stay the same.
            let mut cursors = Rng(case as u64);
            for _ in 0..3 {
                let since = cursors.below(arrived.len() + 1);
                assert_eq!(
                    text(&live.delta_since(since as u64).0),
                    text(&want.delta(since)),
                    "case {case}: delta_since({since})"
                );
            }

            // Split into views, some read mid-way, whose digests (as
            // text, as a wire would carry them) merge into one that
            // recorded the first part itself.
            let mut bounds = vec![0, arrived.len()];
            bounds.extend((0..rng.below(4)).map(|_| rng.below(arrived.len() + 1)));
            bounds.sort_unstable();
            let parts: Vec<&[&PointResult]> =
                bounds.windows(2).map(|w| &arrived[w[0]..w[1]]).collect();
            let merged = LiveAggregates::new();
            for r in parts[0] {
                merged.record(r);
            }
            let mut digests: Vec<String> = parts[1..]
                .iter()
                .map(|part| {
                    let view = LiveAggregates::new();
                    for r in *part {
                        view.record(r);
                    }
                    if rng.below(2) == 0 {
                        view.view(None, None);
                    }
                    text(&view.digest())
                })
                .collect();
            rng.shuffle(&mut digests);
            for digest in &digests {
                let digest: Value = serde_json::from_str(digest).unwrap();
                assert!(merged.merge_digest(&digest).is_some(), "case {case}");
            }
            assert_view_is(&merged, &want, case);
        }
    }
}
