//! Live, incrementally-maintained campaign aggregates.
//!
//! [`LiveAggregates`] is the shared view of one campaign, answerable
//! *mid-sweep*: updated from the engine's observer seam as each
//! [`PointResult`] lands, read concurrently by every watcher and by
//! `GET /campaigns/<id>/aggregates`.
//!
//! It folds results through the report's own slice table: each
//! `(axis, value)` slice keeps its raw `tx` and `error_pct` values, a
//! record appends to them, and a read summarises them with the
//! report's [`Percentiles`](crate::aggregate::Percentiles), sorting
//! only what arrived since the last read. So every stat is exact, none
//! depends on arrival order, and a finished job's view equals its
//! report's `slices` in every field. A monotone version counter stamps
//! every slice on update, which is what makes **delta** snapshots
//! possible: a caller that remembers the version of its last emission
//! gets back only the slices that changed since
//! ([`LiveAggregates::delta_since`]).
//!
//! One path fills the view for every job kind: the server's point
//! observer records each landed point. On a distributed run the
//! coordinator's merge collector calls that observer once per grid
//! index, so a cluster job's view advances point by point, exactly as
//! a local sweep's does. [`LiveAggregates::digest`] and
//! [`LiveAggregates::merge_digest`] carry whole views as their raw
//! values (a merge appends them); no wire path carries a digest.

use std::sync::{Arc, Mutex, OnceLock};

use serde_json::{json, Value};
use synapse_telemetry::{global, Counter, Histogram, SIZE_BUCKETS};

use crate::aggregate::{NodeValues, SliceNode, SliceTable, AXES};
use crate::runner::PointResult;

/// Version stamped on snapshot deltas and digests (`"v"` key).
/// Consumers accept any version ≤ theirs and must ignore unknown
/// keys; the version bumps only when an existing key changes meaning.
pub const AGGREGATES_VERSION: u64 = 1;

/// Metric names carried per slice, in render (alphabetical) order.
pub const METRICS: [&str; 2] = ["error_pct", "tx"];

/// `{"error_pct": {...stats...}, "tx": {...}}`, optionally restricted
/// to one metric. A stats object is the metric's
/// [`Percentiles`](crate::aggregate::Percentiles), or
/// `{"n": 0}` for an empty series.
fn metrics_value(node: &mut SliceNode, metric: Option<&str>) -> Value {
    let mut map = serde_json::Map::new();
    for (name, series) in [("error_pct", &mut node.error_pct), ("tx", &mut node.tx)] {
        if metric.is_none_or(|m| m == name) {
            let stats = match series.summary() {
                Some(p) => serde_json::to_value(p).expect("percentiles serialize"),
                None => json!({"n": 0}),
            };
            map.insert(name.to_string(), stats);
        }
    }
    Value::Object(map)
}

/// The slices `keep` selects, each as `{"axis", "metrics", "value"}`.
fn slices_value(
    table: &mut SliceTable,
    metric: Option<&str>,
    keep: impl Fn(&str, &SliceNode) -> bool,
) -> Vec<Value> {
    table
        .slices_mut()
        .filter(|(axis, _, node)| keep(axis, node))
        .map(|(axis, value, node)| {
            json!({"axis": axis, "metrics": metrics_value(node, metric), "value": value})
        })
        .collect()
}

/// A digest node's values: `None` unless both metrics are arrays of
/// finite numbers, one per point.
fn node_values(v: &Value) -> Option<NodeValues> {
    let series = |key: &str| -> Option<Vec<f64>> {
        v.get(key)?
            .as_array()?
            .iter()
            .map(|x| x.as_f64().filter(|x| x.is_finite()))
            .collect()
    };
    let (error_pct, tx) = (series("error_pct")?, series("tx")?);
    (error_pct.len() == tx.len()).then_some((error_pct, tx))
}

/// Shared live aggregates for one campaign. All methods are
/// thread-safe; `record` is called from engine observer context and
/// must stay cheap.
#[derive(Default)]
pub struct LiveAggregates {
    table: Mutex<SliceTable>,
}

impl LiveAggregates {
    /// An empty aggregate view.
    pub fn new() -> LiveAggregates {
        LiveAggregates::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SliceTable> {
        self.table.lock().expect("live aggregates lock")
    }

    /// Fold one finished point in: the overall node plus one slice per
    /// report axis. O(axes · log slices) per point, independent of how
    /// many points came before; once the point's slices exist it only
    /// appends to their series.
    pub fn record(&self, result: &PointResult) {
        self.lock().record(result);
        AggregateMetrics::get().updates.inc();
    }

    /// Current version: advances on every mutation. A reader that
    /// remembers it can later ask [`LiveAggregates::delta_since`] for
    /// just what changed.
    pub fn version(&self) -> u64 {
        self.lock().version
    }

    /// Points folded in so far.
    pub fn points(&self) -> u64 {
        self.lock().overall.tx.values().len() as u64
    }

    /// Mean of `|error_pct|` across all recorded points, summed in
    /// sorted order like every other mean here.
    pub fn mean_abs_error_pct(&self) -> Option<f64> {
        let mut table = self.lock();
        let sorted = table.overall.error_pct.sorted();
        (!sorted.is_empty())
            .then(|| sorted.iter().map(|v| v.abs()).sum::<f64>() / sorted.len() as f64)
    }

    /// The slices that changed after version `since`, rendered for the
    /// snapshot-delta wire format, plus the version to remember for
    /// the next call. `since = 0` returns everything.
    pub fn delta_since(&self, since: u64) -> (Vec<Value>, u64) {
        let mut table = self.lock();
        let slices = slices_value(&mut table, None, |_, node| node.version > since);
        (slices, table.version)
    }

    /// Full pull-mode render for `GET /campaigns/<id>/aggregates`,
    /// optionally filtered to one axis and/or one metric. Axis and
    /// metric names are validated by the caller against
    /// [`crate::aggregate::AXES`] / [`METRICS`].
    pub fn render(&self, axis: Option<&str>, metric: Option<&str>) -> Value {
        let mut table = self.lock();
        let slices = slices_value(&mut table, metric, |a, _| axis.is_none_or(|want| want == a));
        let overall = &mut table.overall;
        json!({
            "overall": {"metrics": metrics_value(overall, metric)},
            "points": overall.tx.values().len(),
            "slices": Value::Array(slices),
            "v": AGGREGATES_VERSION,
        })
    }

    /// The whole view as each slice's raw values, which
    /// [`merge_digest`](LiveAggregates::merge_digest) appends to
    /// another view's.
    pub fn digest(&self) -> Value {
        let mut table = self.lock();
        let slices: Vec<Value> = table
            .slices_mut()
            .map(|(axis, value, node)| {
                json!({
                    "axis": axis,
                    "error_pct": node.error_pct.values(),
                    "tx": node.tx.values(),
                    "value": value,
                })
            })
            .collect();
        let overall = &table.overall;
        json!({
            "overall": {"error_pct": overall.error_pct.values(), "tx": overall.tx.values()},
            "slices": Value::Array(slices),
            "v": AGGREGATES_VERSION,
        })
    }

    /// Fold a digest in, exactly: the view then equals one that
    /// recorded both sides' points. Returns the number of slices
    /// merged, or `None` — with this view untouched — on any shape
    /// mismatch or an unsupported (newer) version.
    pub fn merge_digest(&self, v: &Value) -> Option<usize> {
        if v.get("v")?.as_u64()? > AGGREGATES_VERSION {
            return None;
        }
        let overall = node_values(v.get("overall")?)?;
        let mut parsed = Vec::new();
        for slice in v.get("slices")?.as_array()? {
            let axis = slice.get("axis")?.as_str()?;
            let value = slice.get("value")?.as_str()?;
            let values = node_values(slice)?;
            // An axis this build does not report is, like any unknown
            // key, ignored.
            if let Some(at) = AXES.iter().position(|(known, _)| *known == axis) {
                parsed.push((at, value, values));
            }
        }
        // Everything parsed: now mutate, as one change.
        self.lock().append(&overall, &parsed);
        Some(parsed.len())
    }
}

/// Handles into the process-wide telemetry registry for the
/// aggregates plane (`synapse_aggregates_*`; see the README catalog).
pub struct AggregateMetrics {
    /// Point observations folded into any live view.
    pub updates: Arc<Counter>,
    /// Snapshot delta events emitted to event streams.
    pub snapshots_emitted: Arc<Counter>,
    /// Pull-mode aggregate queries served.
    pub queries: Arc<Counter>,
    /// Serialized size of emitted snapshot deltas, in bytes.
    pub snapshot_bytes: Arc<Histogram>,
}

impl AggregateMetrics {
    /// The process-wide handles (registering the series on first use).
    pub fn get() -> &'static AggregateMetrics {
        static METRICS: OnceLock<AggregateMetrics> = OnceLock::new();
        METRICS.get_or_init(|| {
            let r = global();
            AggregateMetrics {
                updates: r.counter(
                    "synapse_aggregates_updates_total",
                    "Point observations folded into live aggregate views.",
                ),
                snapshots_emitted: r.counter(
                    "synapse_aggregates_snapshots_emitted_total",
                    "Aggregate snapshot delta events emitted to event streams.",
                ),
                queries: r.counter(
                    "synapse_aggregates_queries_total",
                    "Pull-mode aggregate queries served.",
                ),
                snapshot_bytes: r.histogram(
                    "synapse_aggregates_snapshot_bytes",
                    "Serialized size of emitted aggregate snapshot deltas.",
                    SIZE_BUCKETS,
                ),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use proptest::prelude::*;

    use super::*;
    use crate::aggregate::{axis_slices, Percentiles};
    use crate::cache::ResultCache;
    use crate::engine::{CampaignEngine, CancelToken};
    use crate::grid::expand;
    use crate::runner::RunConfig;
    use crate::spec::CampaignSpec;

    /// Points of the test grid.
    const POINTS: usize = 48;

    fn results() -> &'static [PointResult] {
        static RESULTS: OnceLock<Vec<PointResult>> = OnceLock::new();
        RESULTS.get_or_init(|| {
            let spec = CampaignSpec::from_toml(
                r#"
                name = "live"
                machines = ["thinkie", "stampede", "titan"]
                kernels = ["asm", "c"]
                threads = [1, 4]

                [[workloads]]
                app = "gromacs"
                steps = [10000, 100000]

                [[workloads]]
                app = "amber"
                steps = [10000, 100000]
                "#,
            )
            .unwrap();
            let results = CampaignEngine::new(
                &expand(&spec),
                &ResultCache::in_memory(),
                &RunConfig::default(),
            )
            .run(&|_| {}, &CancelToken::new())
            .unwrap()
            .0;
            assert_eq!(results.len(), POINTS);
            results
        })
    }

    fn live_of<'a>(results: impl IntoIterator<Item = &'a PointResult>) -> LiveAggregates {
        let live = LiveAggregates::new();
        for r in results {
            live.record(r);
        }
        live
    }

    fn bytes(live: &LiveAggregates) -> String {
        serde_json::to_string(&live.render(None, None)).unwrap()
    }

    /// The report's slices in the live view's slice shape.
    fn report_view(results: &[PointResult]) -> Value {
        let slices: Vec<Value> = axis_slices(results)
            .into_iter()
            .map(|s| {
                json!({
                    "axis": s.axis,
                    "metrics": {"error_pct": s.error_pct, "tx": s.tx},
                    "value": s.value,
                })
            })
            .collect();
        Value::Array(slices)
    }

    #[test]
    fn render_is_the_report_slices_plus_the_overall_node() {
        let rs = results();
        let live = live_of(rs);
        assert_eq!(live.points(), rs.len() as u64);
        let doc = live.render(None, None);
        assert_eq!(doc["v"].as_u64(), Some(AGGREGATES_VERSION));
        assert_eq!(doc["slices"], report_view(rs));
        let overall = |f: fn(&PointResult) -> f64| {
            let values: Vec<f64> = rs.iter().map(f).collect();
            serde_json::to_value(Percentiles::of(&values)).unwrap()
        };
        assert_eq!(doc["overall"]["metrics"]["tx"], overall(|r| r.tx));
        assert_eq!(
            doc["overall"]["metrics"]["error_pct"],
            overall(PointResult::error_pct)
        );
        assert_eq!(
            LiveAggregates::new().render(None, None)["overall"]["metrics"]["tx"],
            json!({"n": 0})
        );
    }

    #[test]
    fn filters_restrict_axis_and_metric() {
        let live = live_of(results());
        let doc = live.render(Some("machine"), Some("tx"));
        let slices = doc["slices"].as_array().unwrap();
        assert_eq!(slices.len(), 3, "three machines");
        for s in slices {
            assert_eq!(s["axis"].as_str(), Some("machine"));
            assert!(s["metrics"]["tx"].as_object().is_some());
            assert!(
                s["metrics"].get("error_pct").is_none(),
                "metric filter drops the other metric"
            );
        }
    }

    #[test]
    fn delta_reads_return_only_changed_slices() {
        let rs = results();
        let live = live_of(&rs[..rs.len() - 1]);
        let (all, cursor) = live.delta_since(0);
        assert!(!all.is_empty(), "since 0 returns everything");
        let (none, same) = live.delta_since(cursor);
        assert!(none.is_empty(), "nothing changed since the cursor");
        assert_eq!(same, cursor);
        live.record(&rs[rs.len() - 1]);
        let (delta, next) = live.delta_since(cursor);
        assert!(next > cursor);
        // One point touches exactly one value per axis.
        assert_eq!(delta.len(), AXES.len());
        assert!(delta.len() < all.len(), "a delta, not a full snapshot");
    }

    proptest! {
        /// However the points arrive — in any order, read mid-sweep or
        /// not, or split into views whose digests merge in any order —
        /// the view renders the same bytes (whose slices are the
        /// report's, as the test above shows).
        #[test]
        fn arrival_order_and_digest_splits_do_not_change_the_view(
            keys in proptest::collection::vec(any::<u64>(), POINTS..POINTS + 1),
            cuts in proptest::collection::vec(0usize..POINTS, 0..5),
            merge_keys in proptest::collection::vec(any::<u64>(), 6..7),
        ) {
            let rs = results();
            let in_order = live_of(rs);
            let want = bytes(&in_order);

            let mut order: Vec<usize> = (0..rs.len()).collect();
            order.sort_by_key(|&i| keys[i]);
            let arrived: Vec<&PointResult> = order.iter().map(|&i| &rs[i]).collect();
            // Read mid-sweep too, so later reads merge into sorted series.
            let permuted = LiveAggregates::new();
            for (at, r) in arrived.iter().enumerate() {
                permuted.record(r);
                if cuts.contains(&at) {
                    permuted.render(None, None);
                }
            }
            prop_assert_eq!(bytes(&permuted), want.clone());
            prop_assert_eq!(permuted.mean_abs_error_pct(), in_order.mean_abs_error_pct());

            let mut bounds = cuts.clone();
            bounds.extend([0, rs.len()]);
            bounds.sort_unstable();
            bounds.dedup();
            let digests: Vec<Value> = bounds
                .windows(2)
                .map(|w| live_of(arrived[w[0]..w[1]].iter().copied()).digest())
                .collect();
            let mut merge_order: Vec<usize> = (0..digests.len()).collect();
            merge_order.sort_by_key(|&i| merge_keys[i]);
            let merged = LiveAggregates::new();
            for i in merge_order {
                prop_assert!(merged.merge_digest(&digests[i]).is_some());
            }
            prop_assert_eq!(bytes(&merged), want);
        }
    }

    #[test]
    fn malformed_digest_leaves_the_view_untouched() {
        let live = live_of(results());
        let before = bytes(&live);
        assert_eq!(live.merge_digest(&json!({"v": 1})), None);
        assert_eq!(
            live.merge_digest(&json!({"v": AGGREGATES_VERSION + 1, "slices": [], "overall": {}})),
            None,
            "newer digest versions are refused"
        );
        let with = |key: &str, value: Value| {
            let mut digest = live.digest();
            if let Value::Object(obj) = &mut digest {
                obj.insert(key.into(), value);
            }
            digest
        };
        let bad = [
            with("slices", json!([{"axis": "machine"}])),
            with("overall", json!({"error_pct": [1.0], "tx": []})),
            with("overall", json!({"error_pct": [1.0], "tx": ["slow"]})),
            with(
                "overall",
                json!({"error_pct": [1.0], "tx": [f64::INFINITY]}),
            ),
        ];
        for digest in &bad {
            assert_eq!(live.merge_digest(digest), None, "{digest:?}");
        }
        assert_eq!(bytes(&live), before);
    }
}
