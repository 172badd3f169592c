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
//!
//! Slices come out of one slice table, which both the report and the
//! live view ([`crate::live`]) fold results through. It keeps one row
//! per point: the point's `error_pct` and `tx`, and per axis of
//! [`AXES`] the id of its slice, found by the axis value's typed key
//! (a catalog name's static spelling, a number's bits) so that nothing
//! is formatted per point. A read sorts the rows that came since the
//! last one once per metric, by [`f64::total_cmp`], and merges them
//! into that metric's order — kept as short sorted runs of rows, so
//! that a mid-sweep read moves few rows and walks memory front to
//! back. It then walks each metric's order once, handing each value to
//! the running summary of every slice its row lies in.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use serde::{Deserialize, Serialize};

use crate::grid::Name;
use crate::runner::PointResult;

/// Order-statistics summary of a series.
///
/// The one estimator of the workspace: the report and the live view
/// ([`crate::live`]) both summarise each slice's raw values here,
/// exactly (nearest-rank over the values in [`f64::total_cmp`] order,
/// the mean summed in that order). So a finished job's live view
/// equals its report in every field, and neither depends on the order
/// in which points landed.
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
        let mut summary = Summary::new(sorted.len());
        for &v in &sorted {
            summary.push(v);
        }
        summary.finish()
    }
}

/// Sort a series ascending by [`f64::total_cmp`]: a total order, so
/// `-0.0` sorts before `0.0` whatever order they came in, and values
/// that tie are the same bits.
pub(crate) fn sort(values: &mut [f64]) {
    values.sort_unstable_by(f64::total_cmp);
}

/// [`Percentiles`] of a series of `n` values, built as the values go by
/// in [`sort`] order: the values at the nearest ranks (and the first
/// and last) are kept as they pass, and the mean is summed in that
/// order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Summary {
    sum: f64,
    /// Values to go until the next position to keep.
    left: usize,
    /// Index into `at` of the next position to keep.
    next: usize,
    /// 1-based positions kept, ascending: min, p50, p95, p99, max, and
    /// a sentinel no series reaches.
    at: [usize; 6],
    kept: [f64; 5],
    n: usize,
}

impl Summary {
    pub(crate) fn new(n: usize) -> Summary {
        // Nearest rank: ceil(p/100 · n), at least 1.
        let rank = |p: f64| ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1));
        Summary {
            // The neutral element `Sum for f64` starts from, so a series
            // of `-0.0`s sums to `-0.0` here as in `iter().sum()`.
            sum: -0.0,
            left: 1,
            next: 0,
            at: [1, rank(50.0), rank(95.0), rank(99.0), n, usize::MAX],
            kept: [0.0; 5],
            n,
        }
    }

    /// The next value, no smaller than the ones before it.
    #[inline]
    pub(crate) fn push(&mut self, v: f64) {
        self.sum += v;
        self.left -= 1;
        if self.left == 0 {
            self.keep(v);
        }
    }

    /// Keep `v` at every position it stands at, and count down to the
    /// next one.
    #[cold]
    #[inline(never)]
    fn keep(&mut self, v: f64) {
        let at = self.at[self.next];
        while self.at[self.next] == at {
            self.kept[self.next] = v;
            self.next += 1;
        }
        self.left = self.at[self.next] - at;
    }

    /// The summary (`None` for an empty series), once all `n` values
    /// went by.
    pub(crate) fn finish(&self) -> Option<Percentiles> {
        debug_assert!(self.next == 5 || self.n == 0, "every value summarised");
        let [min, p50, p95, p99, max] = self.kept;
        (self.n > 0).then(|| Percentiles {
            n: self.n,
            mean: self.sum / self.n as f64,
            p50,
            p95,
            p99,
            min,
            max,
        })
    }
}

/// The summary of an empty series.
impl Default for Summary {
    fn default() -> Summary {
        Summary::new(0)
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

/// An axis value as a point carries it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AxisValue {
    /// A catalog name (`machine`, `kernel`, ...).
    Name(Name),
    /// An integer (`steps`, `threads`, `io_block`).
    Int(u64),
    /// A float (`sample_rate`).
    Float(f64),
}

impl AxisValue {
    /// The slice table's lookup key: a name's static spelling (its
    /// address and length), a number's bits. Equal keys are equal text;
    /// equal text under two keys (one spelling at two addresses) is
    /// joined by the table, which falls back to the text on a new key.
    fn key(self) -> u128 {
        match self {
            AxisValue::Name(name) => {
                let spelling = name.as_str();
                ((spelling.as_ptr().addr() as u128) << 64) | spelling.len() as u128
            }
            AxisValue::Int(v) => u128::from(v),
            AxisValue::Float(v) => u128::from(v.to_bits()),
        }
    }
}

/// The value as the report writes it.
impl fmt::Display for AxisValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AxisValue::Name(name) => f.write_str(name),
            AxisValue::Int(v) => write!(f, "{v}"),
            AxisValue::Float(v) => write!(f, "{v}"),
        }
    }
}

/// How an axis reads its value off a result.
pub type AxisKeyFn = fn(&PointResult) -> AxisValue;

/// The slice-keying table: every report axis with its value reader, in
/// alphabetical (= report) order. One slice table keys from it, and
/// both the report ([`axis_slices`]) and the live plane
/// ([`crate::live`]) fold results through that table.
pub const AXES: [(&str, AxisKeyFn); 11] = [
    ("atoms", |r| AxisValue::Name(r.point.atoms)),
    ("fs", |r| AxisValue::Name(r.point.fs)),
    ("io_block", |r| AxisValue::Int(r.point.io_block)),
    ("kernel", |r| AxisValue::Name(r.point.kernel)),
    ("machine", |r| AxisValue::Name(r.point.machine)),
    ("mode", |r| AxisValue::Name(r.point.mode)),
    ("sample_order", |r| AxisValue::Name(r.point.sample_order)),
    ("sample_rate", |r| AxisValue::Float(r.point.sample_rate)),
    ("steps", |r| AxisValue::Int(r.point.steps)),
    ("threads", |r| AxisValue::Int(u64::from(r.point.threads))),
    ("workload", |r| AxisValue::Name(r.point.workload)),
];

/// The metrics a row carries, by index: `0` is `error_pct`, `1` is
/// `tx` (the order of [`crate::live::METRICS`]).
pub(crate) const ERROR_PCT: usize = 0;
/// See [`ERROR_PCT`].
pub(crate) const TX: usize = 1;

/// One point: its metrics and, per axis of [`AXES`], its slice's id.
#[derive(Debug, Clone, Copy)]
struct Row {
    values: [f64; 2],
    slices: [u32; AXES.len()],
}

/// One `(axis, value)` slice.
#[derive(Debug)]
struct Slice {
    /// Index into [`AXES`].
    axis: usize,
    /// The value as the report writes it.
    value: String,
    /// Rows in the slice (at least one).
    points: usize,
    /// [`SliceTable::version`] at the slice's last change.
    version: u64,
}

/// What the last read found, at [`SliceTable::version`] `version`.
#[derive(Debug, Default)]
struct Summaries {
    version: u64,
    /// Per metric, over every row.
    overall: [Summary; 2],
    /// Per metric, per slice id.
    slices: [Vec<Summary>; 2],
    /// The mean of `|error_pct|` over every row, summed in ascending
    /// `error_pct` order.
    mean_abs_error_pct: Option<f64>,
}

/// Rows in one metric's [`sort`] order, as runs of at most
/// `2 · RUN` rows each: a read merges the rows that came since into
/// the runs they fall in, so that it moves only those runs' rows, and
/// walks the runs front to back.
#[derive(Debug, Default)]
struct Ranked {
    runs: Vec<Vec<Row>>,
    /// Rows in all runs.
    len: usize,
}

/// See [`Ranked`].
const RUN: usize = 512;

impl Ranked {
    fn rows(&self) -> impl Iterator<Item = &Row> + '_ {
        self.runs.iter().flatten()
    }

    /// Merge `new`, in `metric`'s order, in.
    fn merge(&mut self, new: &[Row], metric: usize) {
        let value = |row: &Row| row.values[metric];
        self.len += new.len();
        let mut rest = new;
        let mut runs = Vec::with_capacity(self.runs.len() + 1);
        let old = std::mem::take(&mut self.runs);
        let last = old.len().saturating_sub(1);
        for (r, mut run) in old.into_iter().enumerate() {
            // The new rows that sort no later than the run's last; the
            // last run takes all that are left.
            let take = match run.last() {
                Some(end) if r < last => {
                    rest.partition_point(|row| value(row).total_cmp(&value(end)).is_le())
                }
                _ => rest.len(),
            };
            let (tail, after) = rest.split_at(take);
            rest = after;
            // From the back, so that only the rows after the tail's
            // least move.
            let (mut i, mut j) = (run.len(), tail.len());
            run.extend_from_slice(tail);
            while j > 0 {
                let at = i + j - 1;
                if i > 0 && value(&run[i - 1]).total_cmp(&value(&tail[j - 1])).is_gt() {
                    run[at] = run[i - 1];
                    i -= 1;
                } else {
                    run[at] = tail[j - 1];
                    j -= 1;
                }
            }
            split_into(&mut runs, run);
        }
        if !rest.is_empty() {
            split_into(&mut runs, rest.to_vec());
        }
        self.runs = runs;
    }
}

/// Push `run` onto `runs`, cut into runs of `RUN` rows if it grew past
/// `2 · RUN`.
fn split_into(runs: &mut Vec<Vec<Row>>, run: Vec<Row>) {
    if run.len() <= 2 * RUN {
        runs.push(run);
    } else {
        runs.extend(run.chunks(RUN).map(<[Row]>::to_vec));
    }
}

/// Results folded by slice: one row per point, kept in each metric's
/// order once a read has merged it, and one [`Slice`] per `(axis,
/// value)` of [`AXES`].
#[derive(Debug, Default)]
pub(crate) struct SliceTable {
    /// Rows folded in since the last read, in arrival order.
    fresh: Vec<Row>,
    /// Per metric, the rows earlier reads merged, in the metric's order.
    ranked: [Ranked; 2],
    /// By id, in the order first seen.
    slices: Vec<Slice>,
    /// Slice ids in report order: by axis (whose index order is name
    /// order), then by value text.
    order: Vec<u32>,
    /// Per axis, `(key, id)` sorted by [`AxisValue::key`].
    keys: [Vec<(u128, u32)>; AXES.len()],
    /// Bumped once per change. Slices remember the version of their
    /// last change, so a live reader can ask what changed since.
    pub(crate) version: u64,
    read: Summaries,
    /// Where a new value is written out to find its slice by text.
    scratch: String,
}

/// A slice id, as a row's `u32` slot holds it.
fn id(at: usize) -> u32 {
    u32::try_from(at).expect("fewer than 2^32 slices")
}

impl SliceTable {
    /// Points folded in.
    pub(crate) fn points(&self) -> usize {
        self.ranked[TX].len + self.fresh.len()
    }

    /// Fold one result in: one row, naming one slice per axis. Once the
    /// point's slices exist this formats nothing and allocates only to
    /// grow the vector of fresh rows.
    pub(crate) fn record(&mut self, result: &PointResult) {
        self.version += 1;
        let mut slices = [0; AXES.len()];
        for (axis, (slot, (_, value_of))) in slices.iter_mut().zip(AXES).enumerate() {
            *slot = self.slice_of(axis, value_of(result));
        }
        self.push(Row {
            values: [result.error_pct(), result.tx],
            slices,
        });
    }

    fn push(&mut self, row: Row) {
        for &s in &row.slices {
            let slice = &mut self.slices[s as usize];
            slice.points += 1;
            slice.version = self.version;
        }
        self.fresh.push(row);
    }

    /// The id of `axis`'s slice holding `value`, found by key, else by
    /// text (then the key is remembered), else made.
    fn slice_of(&mut self, axis: usize, value: AxisValue) -> u32 {
        let key = value.key();
        match self.keys[axis].binary_search_by_key(&key, |&(k, _)| k) {
            Ok(at) => self.keys[axis][at].1,
            Err(at) => {
                let mut text = std::mem::take(&mut self.scratch);
                text.clear();
                let _ = write!(text, "{value}");
                let s = self.slice_named(axis, &text);
                self.scratch = text;
                self.keys[axis].insert(at, (key, s));
                s
            }
        }
    }

    /// The id of `axis`'s slice whose value reads `text`, made if new.
    fn slice_named(&mut self, axis: usize, text: &str) -> u32 {
        let slices = &self.slices;
        let at = self.order.partition_point(|&s| {
            let s = &slices[s as usize];
            (s.axis, s.value.as_str()) < (axis, text)
        });
        if let Some(&s) = self.order.get(at) {
            let slice = &slices[s as usize];
            if slice.axis == axis && slice.value == text {
                return s;
            }
        }
        let s = id(slices.len());
        self.slices.push(Slice {
            axis,
            value: text.to_string(),
            points: 0,
            version: 0,
        });
        self.order.insert(at, s);
        s
    }

    /// Append another table's rows, as one change: `values` holds each
    /// row's `[error_pct, tx]`, and `slices` each slice as `(index into
    /// AXES, value, its rows)`. Refused — `false`, nothing changed —
    /// unless every row lies in exactly one slice of every axis.
    pub(crate) fn append(
        &mut self,
        values: &[[f64; 2]],
        slices: &[(usize, &str, Vec<usize>)],
    ) -> bool {
        const NONE: usize = usize::MAX;
        let mut placed = vec![[NONE; AXES.len()]; values.len()];
        for (at, (axis, _, rows)) in slices.iter().enumerate() {
            for &row in rows {
                match placed.get_mut(row).map(|slots| &mut slots[*axis]) {
                    Some(slot) if *slot == NONE => *slot = at,
                    _ => return false,
                }
            }
        }
        if placed.iter().flatten().any(|&at| at == NONE) {
            return false;
        }
        self.version += 1;
        let mut ids = vec![0; slices.len()];
        for ((axis, value, rows), id) in slices.iter().zip(&mut ids) {
            if !rows.is_empty() {
                *id = self.slice_named(*axis, value);
            }
        }
        self.fresh.reserve(values.len());
        for (&values, placed) in values.iter().zip(placed) {
            self.push(Row {
                values,
                slices: placed.map(|at| ids[at]),
            });
        }
        true
    }

    /// Summarise what changed since the last read: the fresh rows are
    /// merged into each metric's order, and each metric's rows walked
    /// once in that order, each value going to the summary of every
    /// slice its row lies in. An axis none of whose slices changed keeps
    /// its summaries, and so is not walked; nor is one with a single
    /// slice, which holds every point and so reads as the overall
    /// summary.
    pub(crate) fn read(&mut self) -> Read<'_> {
        if self.read.version != self.version {
            for (metric, ranked) in self.ranked.iter_mut().enumerate() {
                self.fresh
                    .sort_unstable_by(|a, b| a.values[metric].total_cmp(&b.values[metric]));
                ranked.merge(&self.fresh, metric);
            }
            self.fresh.clear();
            if self.fresh.capacity() > RUN {
                // The rows live on in the runs; a long fold's room goes.
                self.fresh = Vec::new();
            }
            let n = self.points();
            let mut walked = [false; AXES.len()];
            for slice in &self.slices {
                walked[slice.axis] |= slice.version > self.read.version && slice.points < n;
            }
            let read = &mut self.read;
            for (metric, ranked) in self.ranked.iter().enumerate() {
                let summaries = &mut read.slices[metric];
                summaries.resize(self.slices.len(), Summary::default());
                for (summary, slice) in summaries.iter_mut().zip(&self.slices) {
                    if walked[slice.axis] {
                        *summary = Summary::new(slice.points);
                    }
                }
                let mut overall = Summary::new(n);
                // In ascending `error_pct` order, as the mean summed it.
                let mut abs_error_sum = -0.0;
                for row in ranked.rows() {
                    let v = row.values[metric];
                    overall.push(v);
                    for (&walk, &s) in walked.iter().zip(&row.slices) {
                        if walk {
                            summaries[s as usize].push(v);
                        }
                    }
                    if metric == ERROR_PCT {
                        abs_error_sum += v.abs();
                    }
                }
                for (summary, slice) in summaries.iter_mut().zip(&self.slices) {
                    if slice.points == n {
                        *summary = overall;
                    }
                }
                read.overall[metric] = overall;
                if metric == ERROR_PCT {
                    read.mean_abs_error_pct = (n > 0).then(|| abs_error_sum / n as f64);
                }
            }
            read.version = self.version;
        }
        Read { table: self }
    }

    /// Every row, read or fresh.
    fn rows(&self) -> impl Iterator<Item = &Row> + '_ {
        self.ranked[TX].rows().chain(&self.fresh)
    }

    /// Every slice's rows, by slice id, numbered in [`Self::values`]
    /// order.
    pub(crate) fn rows_by_slice(&self) -> Vec<Vec<usize>> {
        let mut rows: Vec<Vec<usize>> = self
            .slices
            .iter()
            .map(|slice| Vec::with_capacity(slice.points))
            .collect();
        for (at, row) in self.rows().enumerate() {
            for &s in &row.slices {
                rows[s as usize].push(at);
            }
        }
        rows
    }

    /// Every row's `[error_pct, tx]`.
    pub(crate) fn values(&self) -> impl Iterator<Item = [f64; 2]> + '_ {
        self.rows().map(|row| row.values)
    }

    /// Every slice as `(id, axis, value, version)`, in report order.
    pub(crate) fn slices(&self) -> impl Iterator<Item = (usize, &'static str, &str, u64)> + '_ {
        self.order.iter().map(|&s| {
            let slice = &self.slices[s as usize];
            let (axis, _) = AXES[slice.axis];
            (s as usize, axis, slice.value.as_str(), slice.version)
        })
    }
}

/// A table as its last read summarised it.
pub(crate) struct Read<'a> {
    table: &'a SliceTable,
}

/// One slice as a read summarised it.
pub(crate) struct SliceSummary<'a> {
    pub(crate) axis: &'static str,
    pub(crate) value: &'a str,
    /// [`SliceTable::version`] at the slice's last change.
    pub(crate) version: u64,
    /// Per metric, indexed like [`crate::live::METRICS`].
    pub(crate) metrics: [Percentiles; 2],
}

impl<'a> Read<'a> {
    /// Every slice, in report order.
    pub(crate) fn slices(&self) -> impl Iterator<Item = SliceSummary<'a>> + 'a {
        let table = self.table;
        let summaries = &table.read.slices;
        table
            .slices()
            .map(move |(s, axis, value, version)| SliceSummary {
                axis,
                value,
                version,
                metrics: [ERROR_PCT, TX]
                    .map(|m| summaries[m][s].finish().expect("a slice holds a point")),
            })
    }

    /// Every slice as the report holds it, in report order.
    pub(crate) fn axis_slices(&self) -> Vec<AxisSlice> {
        self.slices()
            .map(|s| AxisSlice {
                axis: s.axis.to_string(),
                value: s.value.to_string(),
                tx: s.metrics[TX],
                error_pct: s.metrics[ERROR_PCT],
            })
            .collect()
    }

    /// Per metric, over every point (`None` while there is none).
    pub(crate) fn overall(&self) -> [Option<Percentiles>; 2] {
        self.table.read.overall.map(|m| m.finish())
    }

    /// The mean of `|error_pct|` over every point.
    pub(crate) fn mean_abs_error_pct(&self) -> Option<f64> {
        self.table.read.mean_abs_error_pct
    }

    /// Points folded in.
    pub(crate) fn points(&self) -> usize {
        self.table.points()
    }
}

/// Slice results along every axis: one [`AxisSlice`] per axis value,
/// sorted by `(axis, value)` for deterministic reports.
pub fn axis_slices(results: &[PointResult]) -> Vec<AxisSlice> {
    let mut table = SliceTable::default();
    table.fresh.reserve(results.len());
    for r in results {
        table.record(r);
    }
    table.read().axis_slices()
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
        /// Read as it grows, a table ranks each metric's rows exactly
        /// as a sort of all of them would, ties (and ±0) included.
        #[test]
        fn a_table_read_as_it_grows_ranks_its_rows_in_sort_order(
            values in proptest::collection::vec(-20f64..20.0, 1..200),
            reads in proptest::collection::vec(0usize..200, 0..6),
        ) {
            let base = &results()[0];
            // Rounded, so that values tie; `-0.0` where one rounds to it.
            let txs: Vec<f64> = values.iter().map(|v| v.round()).collect();
            let mut table = SliceTable::default();
            for (i, &tx) in txs.iter().enumerate() {
                table.record(&PointResult { tx, ..base.clone() });
                if reads.contains(&i) {
                    table.read();
                }
            }
            table.read();
            let mut want = txs;
            sort(&mut want);
            let ranked: Vec<u64> = table.ranked[TX]
                .rows()
                .map(|row| row.values[TX].to_bits())
                .collect();
            let want: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
            proptest::prop_assert_eq!(ranked, want);
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
