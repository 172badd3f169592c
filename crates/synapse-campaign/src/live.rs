//! Live, incrementally-maintained campaign aggregates.
//!
//! The offline path ([`crate::aggregate`]) sorts every series after
//! the sweep; a watcher-facing server cannot afford that per viewer,
//! and must answer *mid-sweep*. [`LiveAggregates`] is the shared
//! incremental view: one per campaign, updated in O(axes) per
//! [`PointResult`] from the engine's observer seam, read concurrently
//! by every watcher and by `GET /campaigns/<id>/aggregates`.
//!
//! Slices are keyed by the same `(axis, value)` table as the offline
//! report ([`crate::aggregate::AXES`]); each slice holds one
//! [`QuantileSketch`] per metric (`tx`, `error_pct`), so count, mean,
//! min and max are exact and quantiles carry the sketch's documented
//! error bound. A monotone version counter stamps every slice on
//! update, which is what makes **delta** snapshots possible: a caller
//! that remembers the version of its last emission gets back only the
//! slices that changed since ([`LiveAggregates::delta_since`]).
//!
//! One path fills the view for every job kind: the server's point
//! observer records each landed point. On a distributed run the
//! coordinator's merge collector calls that observer once per grid
//! index, so a cluster job's view advances point by point, exactly as
//! a local sweep's does. [`LiveAggregates::digest`] and
//! [`LiveAggregates::merge_digest`] serialize and merge whole views
//! (sketch merging is bucket-count addition); no wire path carries a
//! digest.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use serde_json::{json, Value};
use synapse_telemetry::{global, Counter, Histogram, SIZE_BUCKETS};

use crate::aggregate::AXES;
use crate::runner::PointResult;
use crate::sketch::{key_of, QuantileSketch};

/// Version stamped on snapshot deltas and digests (`"v"` key).
/// Consumers accept any version ≤ theirs and must ignore unknown
/// keys; the version bumps only when an existing key changes meaning.
pub const AGGREGATES_VERSION: u64 = 1;

/// Metric names carried per slice, in render (alphabetical) order.
pub const METRICS: [&str; 2] = ["error_pct", "tx"];

/// One slice's (or the campaign-wide node's) metric sketches.
#[derive(Debug, Clone, Default)]
struct SliceNode {
    error_pct: QuantileSketch,
    tx: QuantileSketch,
    /// [`Inner::version`] at this node's last update.
    version: u64,
}

/// One point's two metric values, each with its sketch bucket key: a
/// point lands in a dozen nodes, and the key (a logarithm) is the same
/// in all of them.
#[derive(Clone, Copy)]
struct Observation {
    tx: (f64, i64),
    error_pct: (f64, i64),
}

impl Observation {
    fn of(result: &PointResult) -> Observation {
        let keyed = |v: f64| (v, key_of(v));
        Observation {
            tx: keyed(result.tx),
            error_pct: keyed(result.error_pct()),
        }
    }
}

impl SliceNode {
    fn observe(&mut self, seen: Observation, version: u64) {
        self.tx.observe_keyed(seen.tx.0, seen.tx.1);
        self.error_pct
            .observe_keyed(seen.error_pct.0, seen.error_pct.1);
        self.version = version;
    }

    fn merge(&mut self, other: &SliceNode, version: u64) {
        self.tx.merge(&other.tx);
        self.error_pct.merge(&other.error_pct);
        self.version = version;
    }

    /// `{"error_pct": {...stats...}, "tx": {...}}`, optionally
    /// restricted to one metric.
    fn metrics_value(&self, metric: Option<&str>) -> Value {
        let mut map = serde_json::Map::new();
        for (name, sketch) in [("error_pct", &self.error_pct), ("tx", &self.tx)] {
            if metric.is_none_or(|m| m == name) {
                map.insert(name.to_string(), stats_value(sketch));
            }
        }
        Value::Object(map)
    }

    fn digest(&self) -> Value {
        json!({
            "error_pct": self.error_pct.digest(),
            "tx": self.tx.digest(),
        })
    }

    fn from_digest(v: &Value) -> Option<SliceNode> {
        Some(SliceNode {
            error_pct: QuantileSketch::from_digest(v.get("error_pct")?)?,
            tx: QuantileSketch::from_digest(v.get("tx")?)?,
            version: 0,
        })
    }
}

/// Render one sketch as the stats object watchers consume:
/// `n`/`mean`/`min`/`max` exact, `p50`/`p95`/`p99` within sketch
/// error. An empty sketch renders `{"n": 0}`.
fn stats_value(sketch: &QuantileSketch) -> Value {
    match sketch.percentiles() {
        Some(p) => json!({
            "max": p.max,
            "mean": p.mean,
            "min": p.min,
            "n": p.n,
            "p50": p.p50,
            "p95": p.p95,
            "p99": p.p99,
        }),
        None => json!({"n": 0}),
    }
}

struct Inner {
    /// One `value → sketches` map per report axis, indexed like
    /// [`AXES`] (which is in axis-name order), so walking the array and
    /// then each map visits slices in `(axis, value)` order — render
    /// order. Keyed per axis so a point finds its slices by `&str`.
    slices: [BTreeMap<String, SliceNode>; AXES.len()],
    /// The campaign-wide node (all points, no slicing).
    overall: SliceNode,
    /// Bumped once per mutation; slices remember the version of their
    /// last change, enabling delta reads.
    version: u64,
    /// Where numeric axis values are formatted for lookup.
    scratch: String,
}

/// Run `f` on the node under `value`, found by `&str`: the key is
/// copied only when the slice is seen for the first time.
fn with_node(
    values: &mut BTreeMap<String, SliceNode>,
    value: &str,
    f: impl FnOnce(&mut SliceNode),
) {
    match values.get_mut(value) {
        Some(node) => f(node),
        None => f(values.entry(value.to_string()).or_default()),
    }
}

impl Inner {
    /// Every slice as `(axis, value, node)`, in render order.
    fn slices(&self) -> impl Iterator<Item = (&'static str, &String, &SliceNode)> {
        AXES.iter()
            .zip(&self.slices)
            .flat_map(|((axis, _), values)| values.iter().map(|(value, node)| (*axis, value, node)))
    }
}

/// Shared live aggregates for one campaign. All methods are
/// thread-safe; `record` is called from engine observer context and
/// must stay cheap.
pub struct LiveAggregates {
    inner: Mutex<Inner>,
}

impl Default for LiveAggregates {
    fn default() -> LiveAggregates {
        LiveAggregates::new()
    }
}

impl LiveAggregates {
    /// An empty aggregate view.
    pub fn new() -> LiveAggregates {
        LiveAggregates {
            inner: Mutex::new(Inner {
                slices: Default::default(),
                overall: SliceNode::default(),
                version: 0,
                scratch: String::new(),
            }),
        }
    }

    /// Fold one finished point in: the overall node plus one slice per
    /// report axis. O(axes · log slices) per point, independent of how
    /// many points came before — and, held under the job-wide lock as
    /// it is, allocation-free once the point's slices exist.
    pub fn record(&self, result: &PointResult) {
        let seen = Observation::of(result);
        let mut guard = self.inner.lock().expect("live aggregates lock");
        let Inner {
            slices,
            overall,
            version,
            scratch,
        } = &mut *guard;
        *version += 1;
        overall.observe(seen, *version);
        for (values, (_, key_of)) in slices.iter_mut().zip(AXES) {
            with_node(values, key_of(result, scratch), |node| {
                node.observe(seen, *version)
            });
        }
        AggregateMetrics::get().updates.inc();
    }

    /// Current version: advances on every mutation. A reader that
    /// remembers it can later ask [`LiveAggregates::delta_since`] for
    /// just what changed.
    pub fn version(&self) -> u64 {
        self.inner.lock().expect("live aggregates lock").version
    }

    /// Points folded in so far.
    pub fn points(&self) -> u64 {
        self.inner
            .lock()
            .expect("live aggregates lock")
            .overall
            .tx
            .count()
    }

    /// Exact mean of `|error_pct|` across all recorded points (the
    /// figure the legacy snapshot carried as a hand-maintained sum).
    pub fn mean_abs_error_pct(&self) -> Option<f64> {
        self.inner
            .lock()
            .expect("live aggregates lock")
            .overall
            .error_pct
            .mean_abs()
    }

    /// The slices that changed after version `since`, rendered for the
    /// snapshot-delta wire format, plus the version to remember for
    /// the next call. `since = 0` returns everything.
    pub fn delta_since(&self, since: u64) -> (Vec<Value>, u64) {
        let inner = self.inner.lock().expect("live aggregates lock");
        let slices = inner
            .slices()
            .filter(|(_, _, node)| node.version > since)
            .map(|(axis, value, node)| {
                json!({
                    "axis": axis,
                    "metrics": node.metrics_value(None),
                    "value": value,
                })
            })
            .collect();
        (slices, inner.version)
    }

    /// Full pull-mode render for `GET /campaigns/<id>/aggregates`,
    /// optionally filtered to one axis and/or one metric. Axis and
    /// metric names are validated by the caller against
    /// [`crate::aggregate::AXES`] / [`METRICS`].
    pub fn render(&self, axis: Option<&str>, metric: Option<&str>) -> Value {
        let inner = self.inner.lock().expect("live aggregates lock");
        let slices: Vec<Value> = inner
            .slices()
            .filter(|(a, _, _)| axis.is_none_or(|want| want == *a))
            .map(|(a, value, node)| {
                json!({
                    "axis": a,
                    "metrics": node.metrics_value(metric),
                    "value": value,
                })
            })
            .collect();
        json!({
            "overall": {"metrics": inner.overall.metrics_value(metric)},
            "points": inner.overall.tx.count(),
            "slices": Value::Array(slices),
            "v": AGGREGATES_VERSION,
        })
    }

    /// Lossless digest of the whole view, which
    /// [`merge_digest`](LiveAggregates::merge_digest) folds into
    /// another.
    pub fn digest(&self) -> Value {
        let inner = self.inner.lock().expect("live aggregates lock");
        let slices: Vec<Value> = inner
            .slices()
            .map(|(axis, value, node)| {
                let mut map = serde_json::Map::new();
                map.insert("axis".into(), json!(axis));
                map.insert("value".into(), json!(value));
                if let Value::Object(metrics) = node.digest() {
                    map.extend(metrics);
                }
                Value::Object(map)
            })
            .collect();
        json!({
            "overall": inner.overall.digest(),
            "slices": Value::Array(slices),
            "v": AGGREGATES_VERSION,
        })
    }

    /// Fold a digest in. Returns the number of slices merged,
    /// or `None` — with this view untouched — on any shape mismatch
    /// or an unsupported (newer) version.
    pub fn merge_digest(&self, v: &Value) -> Option<usize> {
        if v.get("v")?.as_u64()? > AGGREGATES_VERSION {
            return None;
        }
        let overall = SliceNode::from_digest(v.get("overall")?)?;
        let mut parsed: Vec<(usize, &str, SliceNode)> = Vec::new();
        for slice in v.get("slices")?.as_array()? {
            let axis = slice.get("axis")?.as_str()?;
            let value = slice.get("value")?.as_str()?;
            let node = SliceNode::from_digest(slice)?;
            // An axis this build does not report is, like any unknown
            // key, ignored.
            if let Some(at) = AXES.iter().position(|(known, _)| *known == axis) {
                parsed.push((at, value, node));
            }
        }
        // Everything parsed: now mutate, under one version bump.
        let merged = parsed.len();
        let mut inner = self.inner.lock().expect("live aggregates lock");
        inner.version += 1;
        let version = inner.version;
        inner.overall.merge(&overall, version);
        for (at, value, node) in parsed {
            with_node(&mut inner.slices[at], value, |mine| {
                mine.merge(&node, version)
            });
        }
        Some(merged)
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
    use super::*;
    use crate::aggregate::axis_slices;
    use crate::cache::ResultCache;
    use crate::engine::{CampaignEngine, CancelToken};
    use crate::grid::expand;
    use crate::runner::RunConfig;
    use crate::spec::CampaignSpec;

    fn results() -> Vec<PointResult> {
        let spec = CampaignSpec::from_toml(
            r#"
            name = "live"
            machines = ["thinkie", "stampede", "titan"]
            kernels = ["asm", "c"]

            [[workloads]]
            app = "gromacs"
            steps = [10000, 100000]
            "#,
        )
        .unwrap();
        CampaignEngine::new(
            &expand(&spec),
            &ResultCache::in_memory(),
            &RunConfig::default(),
        )
        .run(&|_| {}, &CancelToken::new())
        .unwrap()
        .0
    }

    fn live_of(results: &[PointResult]) -> LiveAggregates {
        let live = LiveAggregates::new();
        for r in results {
            live.record(r);
        }
        live
    }

    #[test]
    fn render_covers_every_axis_with_exact_counts() {
        let rs = results();
        let live = live_of(&rs);
        assert_eq!(live.points(), rs.len() as u64);
        let doc = live.render(None, None);
        assert_eq!(doc["v"].as_u64(), Some(AGGREGATES_VERSION));
        let slices = doc["slices"].as_array().unwrap();
        let exact = axis_slices(&rs);
        assert_eq!(slices.len(), exact.len(), "one slice per (axis, value)");
        for (got, want) in slices.iter().zip(&exact) {
            assert_eq!(got["axis"].as_str().unwrap(), want.axis);
            assert_eq!(got["value"].as_str().unwrap(), want.value);
            let tx = &got["metrics"]["tx"];
            assert_eq!(tx["n"].as_u64().unwrap() as usize, want.tx.n);
            // The offline mean sums *sorted* values; the live mean
            // sums in arrival order — identical up to f64 grouping.
            let mean = tx["mean"].as_f64().unwrap();
            assert!((mean - want.tx.mean).abs() <= 1e-9 * want.tx.mean.abs().max(1.0));
            assert_eq!(tx["min"].as_f64().unwrap(), want.tx.min);
            assert_eq!(tx["max"].as_f64().unwrap(), want.tx.max);
        }
    }

    #[test]
    fn filters_restrict_axis_and_metric() {
        let live = live_of(&results());
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
        let live = LiveAggregates::new();
        for r in &rs[..rs.len() - 1] {
            live.record(r);
        }
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

    #[test]
    fn digest_merge_reproduces_direct_recording() {
        let rs = results();
        let (left, right) = rs.split_at(5);
        let (a, b) = (live_of(left).digest(), live_of(right).digest());
        let merged = LiveAggregates::new();
        assert!(merged.merge_digest(&a).is_some());
        assert!(merged.merge_digest(&b).is_some());
        // Merge order must not matter (exactly — two-operand f64
        // addition is commutative).
        let flipped = LiveAggregates::new();
        assert!(flipped.merge_digest(&b).is_some());
        assert!(flipped.merge_digest(&a).is_some());
        assert_eq!(
            serde_json::to_string(&merged.render(None, None)).unwrap(),
            serde_json::to_string(&flipped.render(None, None)).unwrap(),
        );
        // Against single-process recording: every bucket-derived and
        // count/min/max answer is identical; means agree up to f64
        // sum grouping across the split.
        let whole = live_of(&rs);
        let (m, w) = (merged.render(None, None), whole.render(None, None));
        assert_eq!(m["points"], w["points"]);
        let (ms, ws) = (
            m["slices"].as_array().unwrap(),
            w["slices"].as_array().unwrap(),
        );
        assert_eq!(ms.len(), ws.len());
        for (m, w) in ms.iter().zip(ws) {
            assert_eq!((&m["axis"], &m["value"]), (&w["axis"], &w["value"]));
            let (m, w) = (&m["metrics"]["tx"], &w["metrics"]["tx"]);
            for exact in ["n", "min", "max", "p50", "p95", "p99"] {
                assert_eq!(m[exact], w[exact], "{exact}");
            }
            let (m_mean, w_mean) = (m["mean"].as_f64().unwrap(), w["mean"].as_f64().unwrap());
            assert!((m_mean - w_mean).abs() <= 1e-9 * w_mean.abs().max(1.0));
        }
        let (m_err, w_err) = (
            merged.mean_abs_error_pct().unwrap(),
            whole.mean_abs_error_pct().unwrap(),
        );
        assert!((m_err - w_err).abs() <= 1e-9 * w_err.abs().max(1.0));
    }

    #[test]
    fn malformed_digest_leaves_the_view_untouched() {
        let live = live_of(&results());
        let before = serde_json::to_string(&live.render(None, None)).unwrap();
        assert_eq!(live.merge_digest(&json!({"v": 1})), None);
        assert_eq!(
            live.merge_digest(&json!({"v": AGGREGATES_VERSION + 1, "slices": [], "overall": {}})),
            None,
            "newer digest versions are refused"
        );
        let mut truncated = live.digest();
        if let Value::Object(obj) = &mut truncated {
            obj.insert("slices".into(), json!([{"axis": "machine"}]));
        }
        assert_eq!(live.merge_digest(&truncated), None);
        assert_eq!(
            serde_json::to_string(&live.render(None, None)).unwrap(),
            before
        );
    }
}
