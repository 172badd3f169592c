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

use serde::{Deserialize, Serialize};

use crate::grid::Name;
use crate::runner::PointResult;

/// Order-statistics summary of a series.
///
/// The report keeps these exact nearest-rank statistics rather than
/// reading them off the live plane's [`crate::sketch::QuantileSketch`]:
/// a sketch quantile is only within
/// [`RELATIVE_ERROR`](crate::sketch::RELATIVE_ERROR) (< 1 %) of the
/// order statistic, so it cannot reproduce the report's bytes, and
/// those bytes are the contract (identical results ⇒ identical report,
/// live or replayed). A report already holds the whole result set,
/// which is all the exact sort needs.
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
        if values.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite metric"));
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
            min: sorted[0],
            max: sorted[sorted.len() - 1],
        })
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
/// in alphabetical (= report) order. Offline reports
/// ([`axis_slices`]) and the live plane ([`crate::live`]) both key
/// from this one table, so their slice coordinates can never drift.
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

/// Slice results along every axis: one [`AxisSlice`] per axis value,
/// sorted by `(axis, value)` for deterministic reports.
pub fn axis_slices(results: &[PointResult]) -> Vec<AxisSlice> {
    let mut slices = Vec::new();
    let mut buf = String::new();
    for (axis, key_of) in AXES {
        let mut groups: std::collections::BTreeMap<String, Vec<&PointResult>> =
            std::collections::BTreeMap::new();
        for r in results {
            let value = key_of(r, &mut buf);
            match groups.get_mut(value) {
                Some(group) => group.push(r),
                None => {
                    groups.insert(value.to_string(), vec![r]);
                }
            }
        }
        for (value, group) in groups {
            let tx: Vec<f64> = group.iter().map(|r| r.tx).collect();
            let err: Vec<f64> = group.iter().map(|r| r.error_pct()).collect();
            slices.push(AxisSlice {
                axis: axis.to_string(),
                value,
                tx: Percentiles::of(&tx).expect("non-empty group"),
                error_pct: Percentiles::of(&err).expect("non-empty group"),
            });
        }
    }
    slices
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
    use std::collections::BTreeMap;
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
