#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! `synapse-telemetry` — the workspace's lock-light metrics plane.
//!
//! The paper's thesis is that workloads become tractable once you
//! profile them; this crate applies the same discipline to our own
//! production surface (engine, reactor server, store, cluster). It is
//! a hand-rolled, std-only substitute for the `prometheus` crate in
//! the same spirit as the other vendored stubs: exactly the surface
//! the workspace needs, nothing more.
//!
//! # Design
//!
//! * **Hot paths never lock.** [`Counter`] and [`Gauge`] are single
//!   atomics; [`Histogram`] is a fixed array of atomic bucket counts
//!   plus a CAS-looped f64 sum. Subsystems resolve their handles once
//!   (at startup, behind a `OnceLock`) and then update through `Arc`s;
//!   the registry's internal mutex is touched only at registration and
//!   scrape time.
//! * **Series can't drift from operational state.** A registry entry
//!   can be *bound* to a handle another subsystem already owns
//!   ([`Registry::bind_counter`]): `/store/stats` and `/metrics` then
//!   read the very same atomics, so there is no second bookkeeping
//!   path to fall out of sync.
//! * **Prometheus text exposition** ([`Registry::render`]) — version
//!   0.0.4 of the format: `# HELP`/`# TYPE` headers, cumulative
//!   `_bucket{le="..."}` series, `_sum`/`_count`, escaped label
//!   values, families sorted by name so scrapes are deterministic.
//!
//! # Naming scheme
//!
//! Every series is `synapse_<subsystem>_<name>`, with base units
//! (seconds, bytes) and the usual `_total` suffix on counters:
//! `synapse_engine_simulate_seconds`,
//! `synapse_server_connections_accepted_total`, …
//! [`Registry::naming_violations`] holds every family to it (gauges
//! never end `_total`; two count-valued histograms are named
//! exceptions to the unit suffix), and [`Registry::catalog`] renders
//! the README's metric catalog from the families' HELP text.
//!
//! ```
//! use synapse_telemetry::{global, DURATION_BUCKETS};
//!
//! let hits = global().counter("demo_cache_hits_total", "Cache hits.");
//! hits.inc();
//! let lat = global().histogram("demo_op_seconds", "Op latency.", DURATION_BUCKETS);
//! lat.observe(0.003);
//! let text = global().render();
//! assert!(text.contains("demo_cache_hits_total 1"));
//! assert!(text.contains("demo_op_seconds_bucket{le=\"+Inf\"} 1"));
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default latency buckets (seconds): 1µs → ~65s, doubling. Wide
/// enough for a cache probe and a 55k-point sweep on the same scale.
pub const DURATION_BUCKETS: &[f64] = &[
    1e-6, 2e-6, 4e-6, 8e-6, 16e-6, 32e-6, 64e-6, 128e-6, 256e-6, 512e-6, 1e-3, 2e-3, 4e-3, 8e-3,
    16e-3, 32e-3, 64e-3, 128e-3, 256e-3, 512e-3, 1.024, 2.048, 4.096, 8.192, 16.384, 32.768,
    65.536,
];

/// Default size buckets (counts/bytes): 1 → 64Ki, ×4.
pub const SIZE_BUCKETS: &[f64] = &[
    1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0,
];

/// `count` buckets starting at `start` and multiplying by `factor` —
/// the shape `prometheus::exponential_buckets` has.
pub fn exponential_buckets(start: f64, factor: f64, count: usize) -> Vec<f64> {
    assert!(start > 0.0 && factor > 1.0, "degenerate bucket ladder");
    let mut bounds = Vec::with_capacity(count);
    let mut bound = start;
    for _ in 0..count {
        bounds.push(bound);
        bound *= factor;
    }
    bounds
}

/// A monotone event count.
///
/// Updates are `Relaxed`: series are monitoring data read at scrape
/// time, not synchronization edges — the same trade the store's lock
/// counters already made.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A free-standing counter (bind it later, or keep it private).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Count one event.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Count `n` events.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down (stored as f64 bits in one atomic).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// A free-standing gauge at 0.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Replace the value.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Add `delta` (CAS loop; gauges are not hot enough to care).
    pub fn add(&self, delta: f64) {
        let mut current = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + delta).to_bits();
            match self.bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// Subtract `delta`.
    pub fn sub(&self, delta: f64) {
        self.add(-delta);
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1.0);
    }

    /// Subtract one.
    pub fn dec(&self) {
        self.add(-1.0);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram: per-bucket atomic counts plus an atomic
/// f64 sum. `observe` is two relaxed RMWs on the happy path (bucket
/// increment + sum CAS) — cheap enough for per-point latencies.
#[derive(Debug)]
pub struct Histogram {
    /// Finite upper bounds, ascending; the implicit last bucket is +Inf.
    bounds: Box<[f64]>,
    /// One count per bound, plus the +Inf bucket at the end.
    counts: Box<[AtomicU64]>,
    sum_bits: AtomicU64,
}

impl Histogram {
    /// A free-standing histogram over `bounds` (finite, ascending).
    pub fn new(bounds: &[f64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bucket bounds must ascend"
        );
        let counts = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds: bounds.into(),
            counts,
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Record one observation.
    pub fn observe(&self, v: f64) {
        // partition_point: first bound >= v fails `< v`… we want the
        // first bucket whose bound is >= v; everything below is < v.
        let idx = self.bounds.partition_point(|b| *b < v);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        let mut current = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// Record the seconds elapsed since `started`.
    pub fn observe_since(&self, started: Instant) {
        self.observe(started.elapsed().as_secs_f64());
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Estimate the `q`-quantile (0 ≤ q ≤ 1) by linear interpolation
    /// inside the bucket the rank falls in — the same estimate
    /// PromQL's `histogram_quantile` computes. `NaN` when empty;
    /// observations beyond the last finite bound clamp to it.
    pub fn quantile(&self, q: f64) -> f64 {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return f64::NAN;
        }
        let rank = q.clamp(0.0, 1.0) * total as f64;
        let mut cumulative = 0u64;
        for (i, &n) in counts.iter().enumerate() {
            cumulative += n;
            if (cumulative as f64) >= rank {
                if i == self.bounds.len() {
                    // Rank landed in the +Inf bucket: the honest answer
                    // is "beyond the ladder"; clamp to the last bound.
                    return *self.bounds.last().expect("non-empty bounds");
                }
                let upper = self.bounds[i];
                let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let below = (cumulative - n) as f64;
                let frac = if n == 0 {
                    1.0
                } else {
                    (rank - below) / n as f64
                };
                return lower + (upper - lower) * frac.clamp(0.0, 1.0);
            }
        }
        *self.bounds.last().expect("non-empty bounds")
    }
}

/// The three exposition kinds the workspace uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct Family {
    help: String,
    kind: Kind,
    /// The first registration's label keys as a catalog selector
    /// (`{stage=…}`; `""` for unlabeled).
    selector: String,
    /// Keyed by the rendered label set (`""` for unlabeled,
    /// `key="value",key2="v2"` otherwise) so render order is stable.
    series: BTreeMap<String, Handle>,
}

impl Family {
    fn new(help: &str, kind: Kind, labels: &[(&str, &str)]) -> Family {
        let mut keys: Vec<String> = labels.iter().map(|(k, _)| format!("{k}=…")).collect();
        keys.sort_unstable();
        let selector = if keys.is_empty() {
            String::new()
        } else {
            format!("{{{}}}", keys.join(","))
        };
        Family {
            help: help.to_string(),
            kind,
            selector,
            series: BTreeMap::new(),
        }
    }
}

/// Count-valued histograms, exempt from the base-unit suffix: the
/// `_seconds`/`_bytes` scheme covers time and size only, and these
/// names are pinned in the published catalog.
const UNITLESS_HISTOGRAMS: &[(&str, &str)] = &[
    (
        "synapse_cluster_batch_points",
        "points per merged lease batch frame",
    ),
    (
        "synapse_server_wake_batch_size",
        "readiness events per epoll wake",
    ),
];

/// Why `name` breaks the naming scheme for a `kind` family, if it
/// does: names are `synapse_<subsystem>_<name>`, counters end
/// `_total`, histograms end `_seconds` or `_bytes` (bar
/// [`UNITLESS_HISTOGRAMS`]), gauges never end `_total`.
fn naming_violation(name: &str, kind: Kind) -> Option<String> {
    if !name.starts_with("synapse_") || name.splitn(3, '_').count() < 3 {
        return Some(format!("`{name}` is not `synapse_<subsystem>_<name>`"));
    }
    let unit = name.ends_with("_seconds")
        || name.ends_with("_bytes")
        || UNITLESS_HISTOGRAMS.iter().any(|(n, _)| *n == name);
    match kind {
        Kind::Counter if !name.ends_with("_total") => {
            Some(format!("counter `{name}` must end `_total`"))
        }
        Kind::Histogram if !unit => Some(format!(
            "histogram `{name}` must end `_seconds` or `_bytes`"
        )),
        Kind::Gauge if name.ends_with("_total") => {
            Some(format!("gauge `{name}` must not end `_total`"))
        }
        _ => None,
    }
}

/// A named collection of metric families.
///
/// Registration is idempotent: asking for an existing (name, labels)
/// pair returns the existing handle, so call sites don't need to
/// coordinate "who creates it". Asking for an existing name with a
/// different kind panics — that is a programming error, not runtime
/// state.
#[derive(Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

/// The process-wide registry every subsystem records into and
/// `GET /metrics` renders. Libraries (engine, store, cluster) are used
/// by both the CLI and the server; a process global means neither has
/// to thread a handle through every API to be observable.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::default)
}

impl Registry {
    /// An empty registry (tests; production code uses [`global`]).
    pub fn new() -> Registry {
        Registry::default()
    }

    fn series<F>(
        &self,
        name: &str,
        help: &str,
        kind: Kind,
        labels: &[(&str, &str)],
        make: F,
    ) -> Handle
    where
        F: FnOnce() -> Handle,
    {
        let key = render_labels(labels);
        let mut families = self.families.lock().expect("registry lock");
        let family = families
            .entry(name.to_string())
            .or_insert_with(|| Family::new(help, kind, labels));
        assert!(
            family.kind == kind,
            "metric `{name}` already registered as {}, requested as {}",
            family.kind.as_str(),
            kind.as_str()
        );
        let handle = family.series.entry(key).or_insert_with(make);
        match handle {
            Handle::Counter(c) => Handle::Counter(Arc::clone(c)),
            Handle::Gauge(g) => Handle::Gauge(Arc::clone(g)),
            Handle::Histogram(h) => Handle::Histogram(Arc::clone(h)),
        }
    }

    /// Get-or-create an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// Get-or-create a counter with a label set.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.series(name, help, Kind::Counter, labels, || {
            Handle::Counter(Arc::new(Counter::new()))
        }) {
            Handle::Counter(c) => c,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Get-or-create an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, help, &[])
    }

    /// Get-or-create a gauge with a label set.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.series(name, help, Kind::Gauge, labels, || {
            Handle::Gauge(Arc::new(Gauge::new()))
        }) {
            Handle::Gauge(g) => g,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Get-or-create an unlabeled histogram over `bounds` (the first
    /// registration's bounds win; later calls get the existing ladder).
    pub fn histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Arc<Histogram> {
        self.histogram_with(name, help, bounds, &[])
    }

    /// Get-or-create a histogram with a label set.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        bounds: &[f64],
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        match self.series(name, help, Kind::Histogram, labels, || {
            Handle::Histogram(Arc::new(Histogram::new(bounds)))
        }) {
            Handle::Histogram(h) => h,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Expose an *existing* counter (owned and updated elsewhere, e.g.
    /// the store's lock counters) as a registry series. Re-binding the
    /// same name replaces the previous handle — the latest owner wins,
    /// which is what a process that reopens its cache wants.
    pub fn bind_counter(&self, name: &str, help: &str, handle: Arc<Counter>) {
        let mut families = self.families.lock().expect("registry lock");
        let family = families
            .entry(name.to_string())
            .or_insert_with(|| Family::new(help, Kind::Counter, &[]));
        assert!(
            family.kind == Kind::Counter,
            "metric `{name}` already registered as {}",
            family.kind.as_str()
        );
        family.series.insert(String::new(), Handle::Counter(handle));
    }

    /// Number of distinct series (labeled variants counted
    /// separately; histograms count once, not per bucket).
    pub fn series_count(&self) -> usize {
        let families = self.families.lock().expect("registry lock");
        families.values().map(|f| f.series.len()).sum()
    }

    /// The README metric catalog: a Markdown table with one row per
    /// family, in name order — name with its label keys
    /// (`{stage=…}`), kind, HELP text.
    pub fn catalog(&self) -> String {
        let families = self.families.lock().expect("registry lock");
        let mut out = String::from("| series | kind | meaning |\n| --- | --- | --- |\n");
        for (name, family) in families.iter() {
            out.push_str(&format!(
                "| `{name}{}` | {} | {} |\n",
                family.selector,
                family.kind.as_str(),
                family.help,
            ));
        }
        out
    }

    /// Every family whose name breaks the naming scheme, with why.
    pub fn naming_violations(&self) -> Vec<String> {
        let families = self.families.lock().expect("registry lock");
        families
            .iter()
            .filter_map(|(name, family)| naming_violation(name, family.kind))
            .collect()
    }

    /// Render every family in Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` once per family, then one
    /// line per series, cumulative buckets for histograms. Families
    /// and series come out name-sorted, so consecutive scrapes diff
    /// cleanly.
    pub fn render(&self) -> String {
        let families = self.families.lock().expect("registry lock");
        let mut out = String::with_capacity(4096);
        for (name, family) in families.iter() {
            out.push_str("# HELP ");
            out.push_str(name);
            out.push(' ');
            out.push_str(&escape_help(&family.help));
            out.push('\n');
            out.push_str("# TYPE ");
            out.push_str(name);
            out.push(' ');
            out.push_str(family.kind.as_str());
            out.push('\n');
            for (labelset, handle) in family.series.iter() {
                match handle {
                    Handle::Counter(c) => {
                        push_sample(&mut out, name, "", labelset, None, c.get() as f64);
                    }
                    Handle::Gauge(g) => {
                        push_sample(&mut out, name, "", labelset, None, g.get());
                    }
                    Handle::Histogram(h) => {
                        let mut cumulative = 0u64;
                        for (i, bound) in h.bounds.iter().enumerate() {
                            cumulative += h.counts[i].load(Ordering::Relaxed);
                            push_sample(
                                &mut out,
                                name,
                                "_bucket",
                                labelset,
                                Some(&format_f64(*bound)),
                                cumulative as f64,
                            );
                        }
                        cumulative += h.counts[h.bounds.len()].load(Ordering::Relaxed);
                        push_sample(
                            &mut out,
                            name,
                            "_bucket",
                            labelset,
                            Some("+Inf"),
                            cumulative as f64,
                        );
                        push_sample(&mut out, name, "_sum", labelset, None, h.sum());
                        push_sample(&mut out, name, "_count", labelset, None, cumulative as f64);
                    }
                }
            }
        }
        out
    }
}

/// Render `labels` in stable (key-sorted) order, escaped, without
/// braces: `method="GET",path="/x"`.
fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut sorted: Vec<_> = labels.to_vec();
    sorted.sort_by_key(|(k, _)| *k);
    let mut out = String::new();
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&escape_label(v));
        out.push('"');
    }
    out
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

/// One exposition value: integral floats print without a trailing
/// `.0` (Rust's `{}` already does this — `42f64` renders `42`).
fn format_f64(v: f64) -> String {
    format!("{v}")
}

fn push_sample(
    out: &mut String,
    name: &str,
    suffix: &str,
    labelset: &str,
    le: Option<&str>,
    value: f64,
) {
    out.push_str(name);
    out.push_str(suffix);
    let has_labels = !labelset.is_empty() || le.is_some();
    if has_labels {
        out.push('{');
        out.push_str(labelset);
        if let Some(le) = le {
            if !labelset.is_empty() {
                out.push(',');
            }
            out.push_str("le=\"");
            out.push_str(le);
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(&format_f64(value));
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counter_counts_and_is_monotone_across_threads() {
        let c = Arc::new(Counter::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            handles.push(thread::spawn(move || {
                for _ in 0..1000 {
                    c.inc();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 8000);
    }

    #[test]
    fn gauge_set_add_sub() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(4.5);
        g.add(1.0);
        g.sub(2.0);
        assert!((g.get() - 3.5).abs() < 1e-12);
        g.inc();
        g.dec();
        assert!((g.get() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_observations_correctly() {
        let h = Histogram::new(&[0.1, 1.0, 10.0]);
        h.observe(0.05); // bucket 0 (le 0.1)
        h.observe(0.1); // boundary counts into its own bucket
        h.observe(0.5); // bucket 1
        h.observe(100.0); // +Inf
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 100.65).abs() < 1e-9);
        let text = {
            let r = Registry::new();
            let reg = r.histogram("h_seconds", "test", &[0.1, 1.0, 10.0]);
            reg.observe(0.05);
            reg.observe(0.1);
            reg.observe(0.5);
            reg.observe(100.0);
            r.render()
        };
        assert!(text.contains("h_seconds_bucket{le=\"0.1\"} 2"), "{text}");
        assert!(text.contains("h_seconds_bucket{le=\"1\"} 3"), "{text}");
        assert!(text.contains("h_seconds_bucket{le=\"10\"} 3"), "{text}");
        assert!(text.contains("h_seconds_bucket{le=\"+Inf\"} 4"), "{text}");
        assert!(text.contains("h_seconds_count 4"), "{text}");
    }

    #[test]
    fn histogram_sum_survives_concurrent_observes() {
        let h = Arc::new(Histogram::new(&[1.0]));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let h = Arc::clone(&h);
            handles.push(thread::spawn(move || {
                for _ in 0..1000 {
                    h.observe(0.5);
                }
            }));
        }
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 4000);
        assert!((h.sum() - 2000.0).abs() < 1e-6, "CAS loop lost updates");
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        for _ in 0..50 {
            h.observe(0.5);
        }
        for _ in 0..50 {
            h.observe(1.5);
        }
        // Median sits exactly at the first bound.
        assert!((h.quantile(0.5) - 1.0).abs() < 1e-9, "{}", h.quantile(0.5));
        // p75 is halfway through the (1, 2] bucket.
        assert!(
            (h.quantile(0.75) - 1.5).abs() < 1e-9,
            "{}",
            h.quantile(0.75)
        );
        // Empty histogram has no quantiles.
        assert!(Histogram::new(&[1.0]).quantile(0.5).is_nan());
        // Ranks landing in +Inf clamp to the last finite bound.
        let inf = Histogram::new(&[1.0]);
        inf.observe(50.0);
        assert_eq!(inf.quantile(0.99), 1.0);
    }

    #[test]
    fn registration_is_idempotent_and_kind_checked() {
        let r = Registry::new();
        let a = r.counter("x_total", "help");
        let b = r.counter("x_total", "other help ignored");
        a.inc();
        assert_eq!(b.get(), 1, "same handle returned");
        assert_eq!(r.series_count(), 1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            r.gauge("x_total", "kind clash");
        }));
        assert!(result.is_err(), "kind mismatch must panic");
    }

    #[test]
    fn labeled_series_render_sorted_and_escaped() {
        let r = Registry::new();
        r.counter_with("req_total", "requests", &[("endpoint", "/a")])
            .add(2);
        r.counter_with("req_total", "requests", &[("endpoint", "/b\"x\\y")])
            .inc();
        let g = r.gauge_with("tput", "throughput", &[("worker", "w1"), ("addr", "h:1")]);
        g.set(46000.0);
        let text = r.render();
        assert!(text.contains("req_total{endpoint=\"/a\"} 2"), "{text}");
        assert!(
            text.contains("req_total{endpoint=\"/b\\\"x\\\\y\"} 1"),
            "escaping: {text}"
        );
        // Label keys sort: addr before worker.
        assert!(
            text.contains("tput{addr=\"h:1\",worker=\"w1\"} 46000"),
            "{text}"
        );
        let help_lines = text
            .lines()
            .filter(|l| l.starts_with("# HELP req_total"))
            .count();
        assert_eq!(help_lines, 1, "one header per family: {text}");
    }

    #[test]
    fn bind_counter_exposes_foreign_handle_and_rebind_replaces() {
        let r = Registry::new();
        let owned = Arc::new(Counter::new());
        owned.add(7);
        r.bind_counter("store_locks_total", "locks", Arc::clone(&owned));
        assert!(r.render().contains("store_locks_total 7"));
        owned.inc();
        assert!(
            r.render().contains("store_locks_total 8"),
            "same atomic, no copy"
        );
        let second = Arc::new(Counter::new());
        second.add(100);
        r.bind_counter("store_locks_total", "locks", second);
        assert!(
            r.render().contains("store_locks_total 100"),
            "latest binding wins"
        );
    }

    #[test]
    fn render_is_valid_exposition_shape() {
        let r = Registry::new();
        r.counter("a_total", "a").inc();
        r.gauge("b", "b").set(2.5);
        r.histogram("c_seconds", "c", &[0.5]).observe(0.1);
        let text = r.render();
        for line in text.lines() {
            assert!(!line.is_empty());
            if line.starts_with('#') {
                let mut parts = line.splitn(4, ' ');
                assert_eq!(parts.next(), Some("#"));
                let kind = parts.next().unwrap();
                assert!(kind == "HELP" || kind == "TYPE", "{line}");
                assert!(parts.next().is_some(), "{line}");
            } else {
                // `name{labels} value` or `name value`; value parses as f64.
                let value = line.rsplit(' ').next().unwrap();
                assert!(value.parse::<f64>().is_ok() || value == "+Inf", "{line}");
            }
        }
        // Families sorted by name.
        let names: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("# TYPE"))
            .map(|l| l.split(' ').nth(2).unwrap())
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn catalog_has_one_row_per_family_with_label_keys_and_help() {
        let r = Registry::new();
        for stage in ["sweep", "expansion"] {
            r.histogram_with(
                "synapse_engine_stage_seconds",
                "Stage wall time.",
                &[1.0],
                &[("stage", stage)],
            );
        }
        r.counter("synapse_engine_points_total", "Points swept.");
        r.gauge_with("synapse_x_y", "Two keys.", &[("b", "1"), ("a", "2")]);
        assert_eq!(
            r.catalog(),
            "| series | kind | meaning |\n\
             | --- | --- | --- |\n\
             | `synapse_engine_points_total` | counter | Points swept. |\n\
             | `synapse_engine_stage_seconds{stage=…}` | histogram | Stage wall time. |\n\
             | `synapse_x_y{a=…,b=…}` | gauge | Two keys. |\n"
        );
    }

    #[test]
    fn naming_scheme_suffixes_by_kind() {
        for (name, kind) in [
            ("synapse_foo_requests_total", Kind::Counter),
            ("synapse_foo_depth", Kind::Gauge),
            ("synapse_foo_latency_seconds", Kind::Histogram),
            ("synapse_foo_frame_bytes", Kind::Histogram),
            ("synapse_cluster_batch_points", Kind::Histogram),
            ("synapse_server_wake_batch_size", Kind::Histogram),
        ] {
            assert_eq!(naming_violation(name, kind), None, "{name}");
        }
        for (name, kind, why) in [
            ("synapse_foo_retries", Kind::Counter, "must end `_total`"),
            (
                "synapse_foo_depth_total",
                Kind::Gauge,
                "must not end `_total`",
            ),
            (
                "synapse_foo_latency",
                Kind::Histogram,
                "`_seconds` or `_bytes`",
            ),
            (
                "synapse_foo_batch_points",
                Kind::Histogram,
                "`_seconds` or `_bytes`",
            ),
            ("synapse_depth", Kind::Gauge, "synapse_<subsystem>_<name>"),
            (
                "foo_requests_total",
                Kind::Counter,
                "synapse_<subsystem>_<name>",
            ),
        ] {
            let violation = naming_violation(name, kind).unwrap_or_default();
            assert!(violation.contains(why), "{name}: {violation:?}");
        }
    }

    #[test]
    fn naming_violations_lists_each_misnamed_family() {
        let r = Registry::new();
        r.counter("synapse_foo_requests_total", "Requests served.");
        r.gauge("synapse_foo_depth_total", "Queue depth.");
        r.histogram("synapse_foo_latency", "Latency.", &[1.0]);
        assert_eq!(
            r.naming_violations(),
            [
                "gauge `synapse_foo_depth_total` must not end `_total`",
                "histogram `synapse_foo_latency` must end `_seconds` or `_bytes`",
            ]
        );
    }

    #[test]
    fn exponential_buckets_ladder() {
        let b = exponential_buckets(1.0, 2.0, 5);
        assert_eq!(b, vec![1.0, 2.0, 4.0, 8.0, 16.0]);
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let c = global().counter("telemetry_selftest_total", "self test");
        c.inc();
        let before = c.get();
        let again = global().counter("telemetry_selftest_total", "self test");
        again.inc();
        assert_eq!(again.get(), before + 1);
    }
}
