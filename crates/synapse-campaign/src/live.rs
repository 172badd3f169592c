//! Live, incrementally-maintained campaign aggregates.
//!
//! [`LiveAggregates`] is the shared view of one campaign, answerable
//! *mid-sweep*: updated from the engine's observer seam as each
//! [`PointResult`] lands, read concurrently by every watcher and by
//! `GET /campaigns/<id>/aggregates`.
//!
//! It folds results through the report's own slice table
//! ([`crate::aggregate`]): a record appends one row (the point's
//! `error_pct`, its `tx` and its slice per axis), and a read sorts each
//! metric's rows once — only the rows that came since the last read,
//! merged into the sorted rest — and summarises every slice from that
//! order with the report's [`Percentiles`]. So every stat is exact,
//! none depends on arrival order, and a finished job's view equals its
//! report's `slices` in every field. A read keeps its summaries until
//! the next change, so the reads of one snapshot (its delta, then its
//! `mean_abs_error_pct`) sort once. A monotone version counter stamps
//! every slice on update, which is what makes **delta** snapshots
//! possible: a caller that remembers the version of its last emission
//! gets back only the slices that changed since
//! ([`LiveAggregates::delta_since`]).
//!
//! One path fills the view for every job kind: the server's point
//! observer records each landed point. On a distributed run the
//! coordinator's merge collector calls that observer once per grid
//! index, so a cluster job's view advances point by point, exactly as
//! a local sweep's does. The job's report then reads its `slices` from
//! the same view ([`LiveAggregates::slices`]): a served job folds each
//! point once, and its terminal snapshot, its `/aggregates` document
//! and its report come out of one read.
//!
//! A read comes out as owned, serializable parts ([`View`], [`Slice`]),
//! which the streaming writer writes straight to text, their keys
//! sorted by the derive. [`LiveAggregates::digest`] and
//! [`LiveAggregates::merge_digest`] carry whole views as their rows
//! (each row's metrics, and each slice's row numbers; a merge appends
//! them) as `Value` trees; no wire path carries a digest.

use std::sync::{Arc, Mutex, OnceLock};

use serde::json::write_escaped;
use serde::Serialize;
use serde_json::{json, Value};
use synapse_telemetry::{global, Counter, Histogram, SIZE_BUCKETS};

use crate::aggregate::{AxisSlice, Percentiles, SliceSummary, SliceTable, AXES};
use crate::runner::PointResult;

/// Version stamped on snapshot deltas and digests (`"v"` key).
/// Consumers accept any version ≤ theirs and must ignore unknown
/// keys; the version bumps only when an existing key changes meaning.
pub const AGGREGATES_VERSION: u64 = 1;

/// Metric names carried per slice, in render (alphabetical) order.
pub const METRICS: [&str; 2] = ["error_pct", "tx"];

/// One read's metrics: `{"error_pct": stats, "tx": stats}`, or the one
/// a filter kept. A stats object is the metric's [`Percentiles`], or
/// `{"n": 0}` for an empty series. Indexed like [`METRICS`]: the outer
/// `None` is a metric the filter dropped, the inner one an empty series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metrics([Option<Option<Percentiles>>; 2]);

impl Metrics {
    /// `summaries`, indexed like [`METRICS`], restricted to `metric`.
    fn of(summaries: [Option<Percentiles>; 2], metric: Option<&str>) -> Metrics {
        Metrics(std::array::from_fn(|at| {
            metric
                .is_none_or(|m| m == METRICS[at])
                .then_some(summaries[at])
        }))
    }
}

// Written by hand: a derived struct cannot leave out a dropped key.
impl Serialize for Metrics {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        let start = out.len();
        for (name, summary) in METRICS.into_iter().zip(self.0) {
            let Some(summary) = summary else { continue };
            if out.len() > start {
                out.push(',');
            }
            write_escaped(out, name);
            out.push(':');
            match summary {
                Some(p) => p.write_json(out),
                None => out.push_str(r#"{"n":0}"#),
            }
        }
        out.push('}');
    }
}

/// One slice of a read: `{"axis", "metrics", "value"}`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Slice {
    /// The report axis.
    pub axis: &'static str,
    /// The slice's metrics.
    pub metrics: Metrics,
    /// The axis value, as text.
    pub value: String,
}

impl Slice {
    fn of(slice: SliceSummary<'_>, metric: Option<&str>) -> Slice {
        Slice {
            axis: slice.axis,
            metrics: Metrics::of(slice.metrics.map(Some), metric),
            value: slice.value.to_string(),
        }
    }
}

/// The view's `overall` node: `{"metrics": …}` over every point.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Overall {
    /// Every point's metrics.
    pub metrics: Metrics,
}

/// One read of the whole view, as [`LiveAggregates::view`] returns it.
/// Serialized, it is the pull-mode document.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct View {
    /// Summaries over every point.
    pub overall: Overall,
    /// Points folded in.
    pub points: usize,
    /// The slices the axis filter kept, in report order.
    pub slices: Vec<Slice>,
    /// [`AGGREGATES_VERSION`].
    pub v: u64,
}

/// `v[key]` as an array of finite numbers, else `None`.
fn finite_numbers(v: &Value, key: &str) -> Option<Vec<f64>> {
    v.get(key)?
        .as_array()?
        .iter()
        .map(|x| x.as_f64().filter(|x| x.is_finite()))
        .collect()
}

/// `v["rows"]` as an array of row numbers, else `None`.
fn row_numbers(v: &Value) -> Option<Vec<usize>> {
    v.get("rows")?
        .as_array()?
        .iter()
        .map(|x| usize::try_from(x.as_u64()?).ok())
        .collect()
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

    /// Fold one finished point in: one row, naming its slice on every
    /// report axis. O(axes · log values) per point, independent of how
    /// many points came before; once the point's slices exist it only
    /// appends the row.
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
        self.lock().points() as u64
    }

    /// Mean of `|error_pct|` across all recorded points, summed in
    /// ascending `error_pct` order like every other mean here.
    pub fn mean_abs_error_pct(&self) -> Option<f64> {
        self.lock().read().mean_abs_error_pct()
    }

    /// Every slice as the report holds it, in report order: a finished
    /// job's report `slices`. Reads what the last read summarised, if
    /// nothing changed since.
    pub fn slices(&self) -> Vec<AxisSlice> {
        self.lock().read().axis_slices()
    }

    /// The slices that changed after version `since`, for the
    /// snapshot-delta wire format, plus the version to remember for
    /// the next call. `since = 0` returns everything.
    pub fn delta_since(&self, since: u64) -> (Vec<Slice>, u64) {
        let mut table = self.lock();
        let slices = table.read().slices().filter(|slice| slice.version > since);
        let slices = slices.map(|slice| Slice::of(slice, None)).collect();
        (slices, table.version)
    }

    /// Full pull-mode read for `GET /campaigns/<id>/aggregates`,
    /// optionally filtered to one axis and/or one metric. Axis and
    /// metric names are validated by the caller against
    /// [`crate::aggregate::AXES`] / [`METRICS`].
    pub fn view(&self, axis: Option<&str>, metric: Option<&str>) -> View {
        let mut table = self.lock();
        let read = table.read();
        let slices = read
            .slices()
            .filter(|slice| axis.is_none_or(|want| want == slice.axis));
        View {
            overall: Overall {
                metrics: Metrics::of(read.overall(), metric),
            },
            points: read.points(),
            slices: slices.map(|slice| Slice::of(slice, metric)).collect(),
            v: AGGREGATES_VERSION,
        }
    }

    /// The whole view as its rows — every row's metrics under
    /// `overall`, and every slice's row numbers — which
    /// [`merge_digest`](LiveAggregates::merge_digest) appends to
    /// another view's.
    pub fn digest(&self) -> Value {
        let table = self.lock();
        let mut rows = table.rows_by_slice();
        let slices: Vec<Value> = table
            .slices()
            .map(|(s, axis, value, _)| {
                json!({"axis": axis, "rows": std::mem::take(&mut rows[s]), "value": value})
            })
            .collect();
        let (error_pct, tx): (Vec<f64>, Vec<f64>) = table
            .values()
            .map(|[error_pct, tx]| (error_pct, tx))
            .unzip();
        json!({
            "overall": {"error_pct": error_pct, "tx": tx},
            "slices": Value::Array(slices),
            "v": AGGREGATES_VERSION,
        })
    }

    /// Fold a digest in, exactly: the view then equals one that
    /// recorded both sides' points. Returns the number of slices
    /// merged, or `None` — with this view untouched — on any shape
    /// mismatch (a metric that is not finite, a row that is not in
    /// exactly one slice of every axis) or an unsupported (newer)
    /// version.
    pub fn merge_digest(&self, v: &Value) -> Option<usize> {
        if v.get("v")?.as_u64()? > AGGREGATES_VERSION {
            return None;
        }
        let overall = v.get("overall")?;
        let (error_pct, tx) = (
            finite_numbers(overall, "error_pct")?,
            finite_numbers(overall, "tx")?,
        );
        if error_pct.len() != tx.len() {
            return None;
        }
        let values: Vec<[f64; 2]> = error_pct.into_iter().zip(tx).map(Into::into).collect();
        let mut parsed = Vec::new();
        for slice in v.get("slices")?.as_array()? {
            let axis = slice.get("axis")?.as_str()?;
            let value = slice.get("value")?.as_str()?;
            let rows = row_numbers(slice)?;
            // An axis this build does not report is, like any unknown
            // key, ignored.
            if let Some(at) = AXES.iter().position(|(known, _)| *known == axis) {
                parsed.push((at, value, rows));
            }
        }
        // Everything parsed: the table checks the rows, then appends
        // them as one change.
        self.lock().append(&values, &parsed).then_some(parsed.len())
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
    use crate::aggregate::axis_slices;
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
        serde_json::to_string(&live.view(None, None)).unwrap()
    }

    #[test]
    fn the_view_is_the_report_slices_plus_the_overall_node() {
        let rs = results();
        let live = live_of(rs);
        assert_eq!(live.points(), rs.len() as u64);
        assert_eq!(live.slices(), axis_slices(rs));
        let doc: Value = serde_json::from_str(&bytes(&live)).unwrap();
        assert_eq!(doc["v"].as_u64(), Some(AGGREGATES_VERSION));
        assert_eq!(
            doc["slices"],
            serde_json::to_value(live.delta_since(0).0).unwrap()
        );
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
            bytes(&LiveAggregates::new()),
            r#"{"overall":{"metrics":{"error_pct":{"n":0},"tx":{"n":0}}},"points":0,"slices":[],"v":1}"#
        );
    }

    #[test]
    fn filters_restrict_axis_and_metric() {
        let live = live_of(results());
        let doc = live.view(Some("machine"), Some("tx"));
        assert_eq!(doc.slices.len(), 3, "three machines");
        for s in doc.slices {
            assert_eq!(s.axis, "machine");
            let metrics = serde_json::to_value(s.metrics).unwrap();
            assert!(metrics["tx"].as_object().is_some());
            assert!(
                metrics.get("error_pct").is_none(),
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

    /// `tx = -0.0` is a valid time, and so is `0.0`: whichever of the
    /// two lands first, the view and the report read the same, `-0.0`
    /// as the least.
    #[test]
    fn signed_zeros_read_the_same_in_either_arrival_order() {
        let base = &results()[0];
        let negative = PointResult {
            tx: -0.0,
            ..base.clone()
        };
        let positive = PointResult {
            tx: 0.0,
            ..base.clone()
        };
        assert!(negative.times_are_valid() && positive.times_are_valid());
        let one_way = [negative.clone(), positive.clone()];
        let other_way = [positive, negative];
        assert_eq!(bytes(&live_of(&one_way)), bytes(&live_of(&other_way)));
        let report = |rs: &[PointResult]| serde_json::to_string(&axis_slices(rs)).unwrap();
        assert_eq!(report(&one_way), report(&other_way));
        let atoms = &axis_slices(&one_way)[0];
        assert_eq!(atoms.axis, "atoms");
        assert!(atoms.tx.min.is_sign_negative() && atoms.tx.max.is_sign_positive());
    }

    proptest! {
        /// However the points arrive — in any order, read mid-sweep or
        /// not, or split into views whose digests merge in any order —
        /// the view writes the same bytes (whose slices are the
        /// report's, as the first test shows).
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
                    permuted.view(None, None);
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
