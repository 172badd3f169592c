//! Aggregate statistics over campaign results.
//!
//! Three views, mirroring how the paper reads its sweeps:
//!
//! * [`Percentiles`] — mean/p50/p95/p99 summaries of any metric,
//! * [`axis_slices`] — one summary per axis value (all `machine=comet`
//!   points, all `kernel=c` points, ...), the campaign analogue of the
//!   paper's per-machine/per-kernel figures,
//! * [`reference_errors`] — per-machine runtime deviation against a
//!   designated reference machine, the cross-resource portability view
//!   of E.2.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::grid::Name;
use crate::runner::PointResult;

/// Order-statistics summary of a series.
///
/// The one estimator of the workspace: the report and the live view
/// ([`crate::live`]) both keep each slice's raw values and summarise
/// them here, exactly (nearest-rank over the sorted series, the mean
/// summed in sorted order). So a finished job's live view equals its
/// report in every field, and neither depends on the order in which
/// points landed — at 8 bytes per value per slice, the price of
/// holding the values.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Percentiles {
    /// Number of observations.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (nearest-rank).
    pub p50: f64,
    /// 95th percentile (nearest-rank).
    pub p95: f64,
    /// 99th percentile (nearest-rank).
    pub p99: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl Percentiles {
    /// Summarize a series (`None` for an empty one).
    pub fn of(values: &[f64]) -> Option<Percentiles> {
        let mut sorted: Vec<f64> = values.to_vec();
        sort(&mut sorted);
        Percentiles::of_sorted(&sorted)
    }

    /// Summarize a series already in [`sort`] order (`None` for an
    /// empty one).
    pub(crate) fn of_sorted(sorted: &[f64]) -> Option<Percentiles> {
        let (&min, &max) = (sorted.first()?, sorted.last()?);
        let rank = |p: f64| -> f64 {
            // Nearest-rank percentile: ceil(p/100 · n), 1-indexed.
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
}

/// Sort a series ascending, stably. Panics on a NaN, which no checked
/// result carries ([`PointResult::times_are_valid`]).
pub(crate) fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite metric"));
}

/// One metric's raw values in one slice, summarised on read: the fold
/// appends to `values` (which keeps the sorted prefix a prefix), and a
/// read sorts what arrived since the last read and merges it in.
#[derive(Debug, Clone, Default)]
pub(crate) struct Series {
    values: Vec<f64>,
    /// Length of the sorted prefix of `values`.
    sorted: usize,
}

impl Series {
    /// The values as they stand, sorted or not.
    pub(crate) fn values(&self) -> &[f64] {
        &self.values
    }

    /// The values in [`sort`] order: the sort of their arrival order.
    pub(crate) fn sorted(&mut self) -> &[f64] {
        if self.sorted == 0 {
            sort(&mut self.values);
        } else if self.sorted < self.values.len() {
            let mut tail = self.values.split_off(self.sorted);
            sort(&mut tail);
            merge(&mut self.values, &tail);
        }
        self.sorted = self.values.len();
        &self.values
    }

    pub(crate) fn summary(&mut self) -> Option<Percentiles> {
        Percentiles::of_sorted(self.sorted())
    }
}

/// Append the sorted `tail` to the sorted `values` and merge the two,
/// from the back, so only what sorts after the tail's least value
/// moves. On a tie the element of `values` stays first, as in a stable
/// sort of the two in sequence.
fn merge(values: &mut Vec<f64>, tail: &[f64]) {
    let (mut i, mut j) = (values.len(), tail.len());
    values.extend_from_slice(tail);
    while j > 0 {
        let at = i + j - 1;
        if i > 0 && values[i - 1] > tail[j - 1] {
            values[at] = values[i - 1];
            i -= 1;
        } else {
            values[at] = tail[j - 1];
            j -= 1;
        }
    }
}

/// Summary of every point sharing one axis value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AxisSlice {
    /// Axis name (`machine`, `kernel`, `workload`, `mode`, `threads`,
    /// `io_block`, `sample_rate`, `steps`, `fs`, `atoms`).
    pub axis: String,
    /// The shared axis value, rendered as text.
    pub value: String,
    /// Emulated runtime summary across the slice.
    pub tx: Percentiles,
    /// Emulation-vs-application error summary (percent).
    pub error_pct: Percentiles,
}

/// How an axis reads its value off a result, as text: a string axis
/// lends the field itself, a numeric one formats into `buf` and lends
/// that — either way the caller allocates only if it keeps the value.
pub type AxisKeyFn = for<'a> fn(&'a PointResult, &'a mut String) -> &'a str;

fn numeric(buf: &mut String, value: impl std::fmt::Display) -> &str {
    use std::fmt::Write as _;
    buf.clear();
    let _ = write!(buf, "{value}");
    buf
}

/// The slice-keying table: every report axis with its value renderer,
/// in alphabetical (= report) order. One slice table keys from it,
/// and both the report ([`axis_slices`]) and the live plane
/// ([`crate::live`]) fold results through that table.
pub const AXES: [(&str, AxisKeyFn); 11] = [
    ("atoms", |r, _| r.point.atoms.as_str()),
    ("fs", |r, _| r.point.fs.as_str()),
    ("io_block", |r, buf| numeric(buf, r.point.io_block)),
    ("kernel", |r, _| r.point.kernel.as_str()),
    ("machine", |r, _| r.point.machine.as_str()),
    ("mode", |r, _| r.point.mode.as_str()),
    ("sample_order", |r, _| r.point.sample_order.as_str()),
    ("sample_rate", |r, buf| numeric(buf, r.point.sample_rate)),
    ("steps", |r, buf| numeric(buf, r.point.steps)),
    ("threads", |r, buf| numeric(buf, r.point.threads)),
    ("workload", |r, _| r.point.workload.as_str()),
];

/// One slice's (or the campaign-wide node's) series, one per metric.
#[derive(Debug, Clone, Default)]
pub(crate) struct SliceNode {
    pub(crate) error_pct: Series,
    pub(crate) tx: Series,
    /// [`SliceTable::version`] at this node's last change.
    pub(crate) version: u64,
}

/// Results folded by slice: one [`SliceNode`] per `(axis, value)` of
/// [`AXES`], plus the campaign-wide node.
#[derive(Debug, Default)]
pub(crate) struct SliceTable {
    /// One `value → node` map per axis, indexed like [`AXES`] (which is
    /// in axis-name order), so walking the array and then each map
    /// visits slices in `(axis, value)` order — report order. Keyed
    /// per axis so a point finds its slices by `&str`.
    slices: [BTreeMap<String, SliceNode>; AXES.len()],
    /// The campaign-wide node (all points, no slicing).
    pub(crate) overall: SliceNode,
    /// Bumped once per change. Nodes remember the version of their
    /// last change, so a live reader can ask what changed since.
    pub(crate) version: u64,
    /// Where numeric axis values are formatted for lookup.
    scratch: String,
}

/// A node's `(error_pct, tx)` values, as one view hands them to another.
pub(crate) type NodeValues = (Vec<f64>, Vec<f64>);

impl SliceTable {
    /// Fold one result in: the overall node plus one slice per axis.
    /// Once the point's slices exist this only appends to their series.
    pub(crate) fn record(&mut self, result: &PointResult) {
        self.version += 1;
        let (error_pct, tx) = (result.error_pct(), result.tx);
        let push = |node: &mut SliceNode| {
            node.error_pct.values.push(error_pct);
            node.tx.values.push(tx);
            node.version = self.version;
        };
        push(&mut self.overall);
        for (nodes, (_, key_of)) in self.slices.iter_mut().zip(AXES) {
            with_node(nodes, key_of(result, &mut self.scratch), push);
        }
    }

    /// Append another table's values, as one change: its overall node's,
    /// and each of its slices' as `(index into AXES, value, values)`.
    pub(crate) fn append(&mut self, overall: &NodeValues, slices: &[(usize, &str, NodeValues)]) {
        self.version += 1;
        let append = |node: &mut SliceNode, (error_pct, tx): &NodeValues| {
            node.error_pct.values.extend_from_slice(error_pct);
            node.tx.values.extend_from_slice(tx);
            node.version = self.version;
        };
        append(&mut self.overall, overall);
        for (axis, value, values) in slices {
            with_node(&mut self.slices[*axis], value, |node| append(node, values));
        }
    }

    /// Every slice as `(axis, value, node)`, in report order.
    pub(crate) fn slices_mut(
        &mut self,
    ) -> impl Iterator<Item = (&'static str, &String, &mut SliceNode)> {
        AXES.iter()
            .zip(&mut self.slices)
            .flat_map(|((axis, _), nodes)| {
                nodes.iter_mut().map(|(value, node)| (*axis, value, node))
            })
    }
}

/// Run `f` on the node under `value`, found by `&str`: the key is
/// copied only when the slice is seen for the first time.
fn with_node(nodes: &mut BTreeMap<String, SliceNode>, value: &str, f: impl FnOnce(&mut SliceNode)) {
    match nodes.get_mut(value) {
        Some(node) => f(node),
        None => f(nodes.entry(value.to_string()).or_default()),
    }
}

/// Slice results along every axis: one [`AxisSlice`] per axis value,
/// sorted by `(axis, value)` for deterministic reports.
pub fn axis_slices(results: &[PointResult]) -> Vec<AxisSlice> {
    let mut table = SliceTable::default();
    for r in results {
        table.record(r);
    }
    table
        .slices_mut()
        .map(|(axis, value, node)| AxisSlice {
            axis: axis.to_string(),
            value: value.clone(),
            tx: node.tx.summary().expect("a slice holds a point"),
            error_pct: node.error_pct.summary().expect("a slice holds a point"),
        })
        .collect()
}

/// Per-machine runtime deviation against the reference machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReferenceError {
    /// The compared machine.
    pub machine: String,
    /// Scenario pairs compared.
    pub pairs: usize,
    /// Summary of the *signed* relative runtime difference vs. the
    /// reference machine, in percent (negative ⇒ faster than the
    /// reference).
    pub rel_diff_pct: Percentiles,
}

/// Compare every machine's runtimes against the reference machine on
/// otherwise-identical scenario points.
pub fn reference_errors(results: &[PointResult], reference: &str) -> Vec<ReferenceError> {
    // Key a point by every axis except the machine.
    let key_of = |r: &PointResult| {
        let p = &r.point;
        (
            p.workload,
            p.steps,
            p.kernel,
            p.mode,
            p.threads,
            p.io_block,
            p.sample_rate.to_bits(),
            p.fs,
            p.atoms,
            p.sample_order,
        )
    };
    let mut ref_tx = BTreeMap::new();
    for r in results {
        if r.point.machine == reference {
            ref_tx.insert(key_of(r), r.tx);
        }
    }
    let mut diffs: BTreeMap<Name, Vec<f64>> = BTreeMap::new();
    for r in results {
        if r.point.machine == reference {
            continue;
        }
        if let Some(&base) = ref_tx.get(&key_of(r)) {
            if base > 0.0 {
                diffs
                    .entry(r.point.machine)
                    .or_default()
                    .push((r.tx - base) / base * 100.0);
            }
        }
    }
    diffs
        .into_iter()
        .filter_map(|(machine, d)| {
            Percentiles::of(&d).map(|rel_diff_pct| ReferenceError {
                machine: machine.to_string(),
                pairs: d.len(),
                rel_diff_pct,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ResultCache;
    use crate::engine::{CampaignEngine, CancelToken};
    use crate::grid::expand;
    use crate::runner::RunConfig;
    use crate::spec::CampaignSpec;

    proptest::proptest! {
        /// Read as it grows, a series sorts exactly as a stable sort of
        /// its arrival order would, ties (and ±0) included.
        #[test]
        fn a_series_read_as_it_grows_is_the_stable_sort_of_its_arrivals(
            values in proptest::collection::vec(-20f64..20.0, 1..200),
            reads in proptest::collection::vec(0usize..200, 0..6),
        ) {
            // Rounded, so that values tie.
            let mut want: Vec<f64> = values.iter().map(|v| v.round()).collect();
            let mut series = Series::default();
            for (i, v) in want.iter().enumerate() {
                series.values.push(*v);
                if reads.contains(&i) {
                    series.sorted();
                }
            }
            sort(&mut want);
            let bits = |vs: &[f64]| vs.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
            proptest::prop_assert_eq!(bits(series.sorted()), bits(&want));
        }
    }

    #[test]
    fn percentiles_of_known_series() {
        let values: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let p = Percentiles::of(&values).unwrap();
        assert_eq!(p.n, 100);
        assert_eq!(p.mean, 50.5);
        assert_eq!(p.p50, 50.0);
        assert_eq!(p.p95, 95.0);
        assert_eq!(p.p99, 99.0);
        assert_eq!(p.min, 1.0);
        assert_eq!(p.max, 100.0);
        assert!(Percentiles::of(&[]).is_none());
        let single = Percentiles::of(&[7.0]).unwrap();
        assert_eq!(single.p50, 7.0);
        assert_eq!(single.p99, 7.0);
    }

    fn results() -> Vec<PointResult> {
        let spec = CampaignSpec::from_toml(
            r#"
            name = "agg"
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

    #[test]
    fn slices_cover_every_axis_value() {
        let rs = results();
        let slices = axis_slices(&rs);
        let machines: Vec<&str> = slices
            .iter()
            .filter(|s| s.axis == "machine")
            .map(|s| s.value.as_str())
            .collect();
        assert_eq!(machines, vec!["stampede", "thinkie", "titan"]);
        let kernel_ns: Vec<usize> = slices
            .iter()
            .filter(|s| s.axis == "kernel")
            .map(|s| s.tx.n)
            .collect();
        // 12 points split evenly over 2 kernels.
        assert_eq!(kernel_ns, vec![6, 6]);
        for s in &slices {
            assert!(s.tx.min <= s.tx.p50 && s.tx.p50 <= s.tx.p99);
            assert!(s.tx.p99 <= s.tx.max);
        }
    }

    #[test]
    fn slices_are_deterministically_ordered() {
        let rs = results();
        assert_eq!(axis_slices(&rs), axis_slices(&rs));
        let axes: Vec<String> = axis_slices(&rs).iter().map(|s| s.axis.clone()).collect();
        let mut sorted = axes.clone();
        sorted.sort();
        assert_eq!(axes, sorted, "slices grouped by axis in sorted order");
    }

    #[test]
    fn reference_errors_compare_against_reference() {
        let rs = results();
        let errs = reference_errors(&rs, "thinkie");
        assert_eq!(errs.len(), 2, "stampede and titan");
        for e in &errs {
            assert_eq!(e.pairs, 4, "2 step counts × 2 kernels");
        }
        // Stampede's Xeons beat the 2010 laptop; Titan's slow Opteron
        // cores do not (E.4 makes the same observation vs. Supermic).
        let by_machine = |m: &str| errs.iter().find(|e| e.machine == m).unwrap().rel_diff_pct;
        assert!(
            by_machine("stampede").mean < 0.0,
            "{:?}",
            by_machine("stampede")
        );
        assert!(by_machine("titan").mean > 0.0, "{:?}", by_machine("titan"));
        // The reference machine never compares against itself.
        assert!(reference_errors(&rs, "titan")
            .iter()
            .all(|e| e.machine != "titan"));
    }
}
