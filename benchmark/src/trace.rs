//! In-memory spans recorded at the benchmark's own call sites and
//! written out when the run ends.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed interval: a layer call (or a whole pass of calls, with
/// `count` saying how many) caused by `parent`, on behalf of `job`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `cache.put`.
    pub name: &'static str,
    /// Start, µs since the tracer's origin.
    pub start_us: f64,
    /// End, µs since the tracer's origin.
    pub end_us: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The job all spans of one request share.
    pub job: u64,
    /// Calls covered by the span (one clock pair per pass, not per
    /// call, keeps the clock out of the measurement).
    pub count: u64,
}

/// Self time and call count of one layer, summed over its spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    /// Summed self time in µs.
    pub self_us: f64,
    /// Summed call counts.
    pub count: u64,
}

impl LayerTotal {
    /// Self time per call in µs (0 when the layer never ran).
    pub fn us_per_call(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_us / self.count as f64
        }
    }
}

/// The span store of one traced pass.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// µs from the origin to `at`.
    pub fn at(&self, at: Instant) -> f64 {
        at.duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Record a finished span; returns its index for use as a parent.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Open a span now; [`Tracer::close`] ends it. Children recorded
    /// in between name the returned index as their parent.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, job: u64) -> usize {
        let now = self.at(Instant::now());
        self.push(Span {
            name,
            start_us: now,
            end_us: now,
            parent,
            job,
            count: 1,
        })
    }

    /// End a span opened with [`Tracer::open`].
    pub fn close(&mut self, index: usize) {
        self.spans[index].end_us = self.at(Instant::now());
    }

    /// Run `f` as one span covering `count` calls.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        job: u64,
        count: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let started = Instant::now();
        let out = f();
        let ended = Instant::now();
        self.push(Span {
            name,
            start_us: self.at(started),
            end_us: self.at(ended),
            parent,
            job,
            count,
        });
        out
    }

    /// Record summed durations as children of `parent`, laid end to
    /// end from its start: for pieces clocked call by call inside one
    /// pass, whose lengths are measured but whose positions are not.
    pub fn pack(
        &mut self,
        parent: usize,
        count: u64,
        pieces: impl IntoIterator<Item = (&'static str, Duration)>,
    ) {
        let job = self.spans[parent].job;
        let mut at = self.spans[parent].start_us;
        for (name, spent) in pieces {
            let end = at + spent.as_secs_f64() * 1e6;
            self.push(Span {
                name,
                start_us: at,
                end_us: end,
                parent: Some(parent),
                job,
                count,
            });
            at = end;
        }
    }

    /// Self time per span: its duration minus the part of its interval
    /// that its children cover (overlapping children count once).
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let p = &self.spans[parent];
                let (start, end) = (span.start_us.max(p.start_us), span.end_us.min(p.end_us));
                if end > start {
                    children[parent].push((start, end));
                }
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut covered = 0.0;
                let mut reach = f64::NEG_INFINITY;
                for (start, end) in kids {
                    if end > reach {
                        covered += end - start.max(reach);
                        reach = end;
                    }
                }
                span.end_us - span.start_us - covered
            })
            .collect()
    }

    /// Self time and counts summed per span name.
    pub fn layer_totals(&self) -> BTreeMap<&'static str, LayerTotal> {
        let mut totals: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (span, self_us) in self.spans.iter().zip(self.self_times()) {
            let total = totals.entry(span.name).or_default();
            total.self_us += self_us;
            total.count += span.count;
        }
        totals
    }

    /// Write the spans as one JSON document (see the README for how to
    /// read it).
    pub fn write(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let self_times = self.self_times();
        let spans: Vec<serde_json::Value> = self
            .spans
            .iter()
            .zip(&self_times)
            .enumerate()
            .map(|(id, (span, self_us))| {
                serde_json::json!({
                    "id": id,
                    "name": span.name,
                    "start_us": span.start_us,
                    "end_us": span.end_us,
                    "self_us": self_us,
                    "parent": span.parent,
                    "job": span.job,
                    "count": span.count,
                })
            })
            .collect();
        let doc = serde_json::json!({"workload": workload, "unit": "us", "spans": spans});
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, serde_json::to_string(&doc).expect("trace serializes"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_us,
            end_us,
            parent,
            job: 0,
            count: 1,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let mut t = Tracer::new();
        let root = t.push(span("root", 0.0, 100.0, None));
        t.push(span("a", 10.0, 40.0, Some(root)));
        t.push(span("b", 30.0, 60.0, Some(root))); // overlaps a by 10
        t.push(span("c", 35.0, 38.0, Some(root))); // inside a and b
        t.push(span("d", 90.0, 120.0, Some(root))); // clipped to the parent
        let own = t.self_times();
        assert_eq!(own[root], 100.0 - 50.0 - 10.0);
        assert_eq!(own[1], 30.0);
        assert_eq!(own[4], 30.0);
    }

    #[test]
    fn grandchildren_reduce_only_their_parent() {
        let mut t = Tracer::new();
        let root = t.push(span("root", 0.0, 10.0, None));
        let kid = t.push(span("kid", 2.0, 8.0, Some(root)));
        t.push(span("grandkid", 3.0, 5.0, Some(kid)));
        assert_eq!(t.self_times(), vec![4.0, 4.0, 2.0]);
    }

    #[test]
    fn layer_totals_sum_self_time_and_counts_by_name() {
        let mut t = Tracer::new();
        let root = t.push(span("job", 0.0, 20.0, None));
        t.push(Span {
            count: 8,
            ..span("layer", 0.0, 4.0, Some(root))
        });
        t.push(Span {
            count: 8,
            ..span("layer", 10.0, 16.0, Some(root))
        });
        let totals = t.layer_totals();
        assert_eq!(totals["layer"].self_us, 10.0);
        assert_eq!(totals["layer"].count, 16);
        assert_eq!(totals["layer"].us_per_call(), 0.625);
        assert_eq!(totals["job"].self_us, 10.0);
    }
}
