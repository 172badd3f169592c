//! Ordered merge of per-lease point streams into one campaign result.
//!
//! Leases complete out of order and may *replay* (a failed lease
//! re-runs on another worker after some of its points already
//! arrived), so the collector is keyed by global grid index: first
//! arrival wins, duplicates are dropped, and the merged observer event
//! fires under the same lock that advances the `done` counter — the
//! stream contract (`done` strictly monotone `1..=N`) holds no matter
//! how many worker streams interleave. At the end the slots read out
//! in grid order, which is what makes the assembled report
//! byte-identical to a single-process sweep.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::sync::Mutex;

use synapse_campaign::{CampaignError, PointEvent, PointResult};

struct Inner {
    slots: Vec<Option<Arc<PointResult>>>,
    done: usize,
    cache_hits: usize,
    simulated: usize,
}

/// Replay-tolerant, order-restoring point collector.
pub struct Collector {
    inner: Mutex<Inner>,
    /// Lock-free mirror of `Inner::done`, written under the lock —
    /// lets per-event hot paths ask "is the grid finished?" without
    /// contending with a merge in progress.
    done_mirror: AtomicUsize,
    total: usize,
}

impl Collector {
    /// A collector for a `total`-point grid.
    pub fn new(total: usize) -> Collector {
        Collector {
            inner: Mutex::new(Inner {
                slots: vec![None; total],
                done: 0,
                cache_hits: 0,
                simulated: 0,
            }),
            done_mirror: AtomicUsize::new(0),
            total,
        }
    }

    fn record_locked(
        &self,
        inner: &mut Inner,
        result: Arc<PointResult>,
        cached: bool,
        observer: &(dyn Fn(PointEvent) + Sync),
    ) -> bool {
        let index = result.point.index;
        if index >= self.total || inner.slots[index].is_some() {
            return false;
        }
        inner.slots[index] = Some(result.clone());
        inner.done += 1;
        if cached {
            inner.cache_hits += 1;
        } else {
            inner.simulated += 1;
        }
        let done = inner.done;
        self.done_mirror.store(done, Ordering::Release);
        // Emit under the lock so `done` is monotone in event order —
        // the same discipline CampaignEngine uses.
        observer(PointEvent::PointDone {
            result,
            cached,
            done,
            total: self.total,
        });
        true
    }

    /// Record one landed point by its global grid index, emitting the
    /// merged [`PointEvent::PointDone`] (with the global `done`
    /// counter) through `observer`. Duplicates — replayed leases — and
    /// out-of-range indices are ignored; returns whether the point was
    /// fresh.
    pub fn record(
        &self,
        result: Arc<PointResult>,
        cached: bool,
        observer: &(dyn Fn(PointEvent) + Sync),
    ) -> bool {
        let mut inner = self.inner.lock().expect("collector lock");
        self.record_locked(&mut inner, result, cached, observer)
    }

    /// Merge one batch frame of points under a single lock
    /// acquisition, with the exact semantics of point-by-point
    /// [`record`](Collector::record): first arrival wins, duplicates
    /// (including a whole replayed batch) and out-of-range indices
    /// are dropped, and each fresh point emits its merged
    /// [`PointEvent::PointDone`] with a monotone `done`. Returns how
    /// many points in the batch were fresh.
    pub fn record_batch(
        &self,
        points: Vec<(PointResult, bool)>,
        observer: &(dyn Fn(PointEvent) + Sync),
    ) -> usize {
        let mut inner = self.inner.lock().expect("collector lock");
        let mut fresh = 0;
        for (result, cached) in points {
            if self.record_locked(&mut inner, Arc::new(result), cached, observer) {
                fresh += 1;
            }
        }
        fresh
    }

    /// [`record_batch`](Collector::record_batch) for a frame that
    /// streamed in on the lease over `lease`: an entry whose index lies
    /// outside the lease fails the whole frame — `Err` with that index —
    /// and nothing from the frame is merged.
    pub fn record_lease_batch(
        &self,
        lease: Range<usize>,
        points: Vec<(PointResult, bool)>,
        observer: &(dyn Fn(PointEvent) + Sync),
    ) -> Result<usize, usize> {
        match points.iter().find(|(r, _)| !lease.contains(&r.point.index)) {
            Some((stray, _)) => Err(stray.point.index),
            None => Ok(self.record_batch(points, observer)),
        }
    }

    /// Whether every grid point has landed (lock-free read).
    pub fn is_complete(&self) -> bool {
        self.done_mirror.load(Ordering::Acquire) >= self.total
    }

    /// How many grid indices in `start..end` have *not* landed yet —
    /// the coordinator's straggler probe when deciding whether a
    /// lease's tail is worth splitting.
    pub fn missing_in(&self, start: usize, end: usize) -> usize {
        let inner = self.inner.lock().expect("collector lock");
        let end = end.min(self.total);
        if start >= end {
            return 0;
        }
        inner.slots[start..end]
            .iter()
            .filter(|slot| slot.is_none())
            .count()
    }

    /// Points collected so far.
    pub fn done(&self) -> usize {
        self.inner.lock().expect("collector lock").done
    }

    /// `(done, cache_hits, simulated)` counters.
    pub fn counts(&self) -> (usize, usize, usize) {
        let inner = self.inner.lock().expect("collector lock");
        (inner.done, inner.cache_hits, inner.simulated)
    }

    /// Read out every result in grid order. Errors if any slot never
    /// filled (the caller checks completion first; this is the
    /// defensive backstop).
    pub fn into_results(self) -> Result<Vec<PointResult>, CampaignError> {
        let inner = self.inner.into_inner().expect("collector lock");
        let mut results = Vec::with_capacity(inner.slots.len());
        for (index, slot) in inner.slots.into_iter().enumerate() {
            let shared = slot.ok_or_else(|| {
                CampaignError::Cluster(format!("grid index {index} was never executed"))
            })?;
            results.push(Arc::try_unwrap(shared).unwrap_or_else(|held| (*held).clone()));
        }
        Ok(results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;
    use synapse_campaign::{expand, simulate_point, CampaignSpec};

    fn results() -> Vec<PointResult> {
        let spec = CampaignSpec::from_toml(
            r#"
            name = "merge"
            seed = 9
            machines = ["thinkie"]
            kernels = ["asm", "c"]

            [[workloads]]
            app = "gromacs"
            steps = [1000, 2000]
            "#,
        )
        .unwrap();
        expand(&spec)
            .iter()
            .map(|p| simulate_point(p).unwrap())
            .collect()
    }

    #[test]
    fn out_of_order_arrival_merges_back_into_grid_order() {
        let rs = results();
        let collector = Collector::new(rs.len());
        let events: StdMutex<Vec<usize>> = StdMutex::new(Vec::new());
        let observer = |e: PointEvent| {
            if let PointEvent::PointDone { done, total, .. } = e {
                assert_eq!(total, 4);
                events.lock().unwrap().push(done);
            }
        };
        // Arrive 3, 0, 2, 1.
        for idx in [3, 0, 2, 1] {
            assert!(collector.record(Arc::new(rs[idx].clone()), idx % 2 == 0, &observer));
        }
        assert_eq!(*events.lock().unwrap(), vec![1, 2, 3, 4], "monotone done");
        assert_eq!(collector.counts(), (4, 2, 2));
        let merged = collector.into_results().unwrap();
        assert_eq!(merged, rs, "grid order restored");
    }

    #[test]
    fn replayed_and_bogus_points_are_dropped() {
        let rs = results();
        let collector = Collector::new(rs.len());
        let observer = |_: PointEvent| {};
        assert!(collector.record(Arc::new(rs[1].clone()), false, &observer));
        // A replayed lease re-delivers the same point.
        assert!(!collector.record(Arc::new(rs[1].clone()), true, &observer));
        assert_eq!(
            collector.counts(),
            (1, 0, 1),
            "duplicate not double-counted"
        );
        // An index past the grid cannot corrupt the slots.
        let mut alien = rs[0].clone();
        alien.point.index = 99;
        assert!(!collector.record(Arc::new(alien), false, &observer));
        assert_eq!(collector.done(), 1);
    }

    #[test]
    fn batches_merge_with_single_point_semantics() {
        let rs = results();
        let collector = Collector::new(rs.len());
        let events: StdMutex<Vec<usize>> = StdMutex::new(Vec::new());
        let observer = |e: PointEvent| {
            if let PointEvent::PointDone { done, .. } = e {
                events.lock().unwrap().push(done);
            }
        };
        assert!(!collector.is_complete());
        assert_eq!(collector.missing_in(0, rs.len()), rs.len());

        let batch: Vec<(PointResult, bool)> = vec![(rs[2].clone(), false), (rs[0].clone(), true)];
        assert_eq!(collector.record_batch(batch.clone(), &observer), 2);
        assert_eq!(collector.missing_in(0, rs.len()), 2);

        // A whole replayed batch is dropped point by point.
        assert_eq!(collector.record_batch(batch, &observer), 0);
        assert_eq!(collector.counts(), (2, 1, 1), "replay not double-counted");

        // A mixed batch only lands the fresh points.
        let rest: Vec<(PointResult, bool)> = vec![
            (rs[0].clone(), false),
            (rs[1].clone(), false),
            (rs[3].clone(), false),
        ];
        assert_eq!(collector.record_batch(rest, &observer), 2);
        assert!(collector.is_complete());
        assert_eq!(collector.missing_in(0, rs.len()), 0);
        assert_eq!(*events.lock().unwrap(), vec![1, 2, 3, 4], "monotone done");
        assert_eq!(collector.into_results().unwrap(), rs, "grid order restored");
    }

    #[test]
    fn a_lease_frame_with_an_entry_outside_the_lease_merges_nothing() {
        let rs = results();
        let collector = Collector::new(rs.len());
        let frame = |indices: &[usize]| indices.iter().map(|&i| (rs[i].clone(), false)).collect();
        assert_eq!(
            collector.record_lease_batch(1..3, frame(&[1, 3, 2]), &|_| {}),
            Err(3)
        );
        assert_eq!(collector.done(), 0, "not even the entries inside the lease");
        assert_eq!(
            collector.record_lease_batch(1..3, frame(&[2, 1]), &|_| {}),
            Ok(2)
        );
    }

    #[test]
    fn missing_in_clamps_and_counts_per_range() {
        let rs = results();
        let collector = Collector::new(rs.len());
        collector.record(Arc::new(rs[1].clone()), false, &|_| {});
        assert_eq!(collector.missing_in(0, 2), 1);
        assert_eq!(collector.missing_in(2, 4), 2);
        assert_eq!(collector.missing_in(2, 99), 2, "end clamps to total");
        assert_eq!(collector.missing_in(3, 3), 0);
        assert_eq!(collector.missing_in(7, 2), 0, "inverted range is empty");
    }

    #[test]
    fn incomplete_grids_refuse_to_read_out() {
        let rs = results();
        let collector = Collector::new(rs.len());
        collector.record(Arc::new(rs[0].clone()), false, &|_| {});
        let err = collector.into_results().unwrap_err();
        assert!(matches!(err, CampaignError::Cluster(_)), "{err}");
    }
}
