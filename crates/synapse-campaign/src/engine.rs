//! The resumable, observer-driven point-execution core.
//!
//! Long-running frontends (notably `synapse serve`) need to *watch* a
//! sweep while it runs and *stop* one mid-grid, so [`CampaignEngine`]
//! owns the worker pool: it drives the deterministic sweep and
//!
//! * emits a [`PointEvent`] through a caller-supplied observer the
//!   moment each point lands (in completion order — every event
//!   carries the point's grid index and a running `done` counter), and
//! * checks a shared [`CancelToken`] between points, so cancellation
//!   takes effect after the in-flight points finish instead of after
//!   the whole grid drains.
//!
//! The observer runs on worker threads: it must be `Sync`, and it
//! should be cheap (push to a buffer, send on a channel) — a slow
//! observer backpressures the sweep.
//!
//! A landed point takes the form its consumer needs ([`PointForm`]):
//! a decoded [`PointResult`] for a local sweep, or the cache's stored
//! text ([`ResultText`]) for a consumer that only forwards it. The
//! caller's type picks the form; there is one sweep loop for both.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::cache::{Probe, ResultCache, ResultText};
use crate::error::CampaignError;
use crate::grid::ScenarioPoint;
use crate::metrics::EngineMetrics;
use crate::runner::{simulate_point_keyed, PointResult, RunConfig, RunStats};

/// A shared cooperative-cancellation flag.
///
/// Clones observe the same flag; any holder can [`cancel`] and every
/// worker sees it before claiming its next point. Cancellation is
/// cooperative — a point already simulating finishes first.
///
/// [`cancel`]: CancelToken::cancel
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation (idempotent).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// The form a landed point takes: what the engine keeps, hands its
/// observer and returns.
pub trait PointForm: Clone + Send + Sync {
    /// The cached result of `probe`'s point, rebound to its grid
    /// position, or `None` on a miss (see [`ResultCache::hit`]). The
    /// fingerprint excludes the grid index, so a hit may come from a
    /// differently-shaped grid (a grown campaign).
    fn cached(cache: &ResultCache, probe: &Probe) -> Option<Self>;

    /// A freshly simulated result (already in the cache).
    fn simulated(result: PointResult) -> Self;
}

impl PointForm for PointResult {
    fn cached(cache: &ResultCache, probe: &Probe) -> Option<Self> {
        cache.hit(probe)
    }

    fn simulated(result: PointResult) -> Self {
        result
    }
}

impl PointForm for ResultText {
    fn cached(cache: &ResultCache, probe: &Probe) -> Option<Self> {
        cache.hit_text(probe)
    }

    fn simulated(result: PointResult) -> Self {
        ResultText::of(&result)
    }
}

/// What the engine tells its observer while a sweep runs; a landed
/// point arrives in the engine's [`PointForm`].
#[derive(Debug, Clone)]
pub enum PointEvent<T = PointResult> {
    /// The sweep is about to start executing points.
    Started {
        /// Total points in the grid.
        total: usize,
    },
    /// One point landed (emitted in completion order, not grid order).
    PointDone {
        /// The point's result, shared with the engine's own collection
        /// (an `Arc` so emitting costs no copy; it also keeps this
        /// variant pointer-sized).
        result: Arc<T>,
        /// Whether the result came from the cache.
        cached: bool,
        /// Points completed so far, this one included.
        done: usize,
        /// Total points in the grid.
        total: usize,
    },
    /// Every point landed; the sweep is complete.
    Finished {
        /// The run's execution counters.
        stats: RunStats,
    },
    /// The sweep stopped early on a [`CancelToken`].
    Cancelled {
        /// Points that completed before the workers stopped.
        done: usize,
        /// Total points in the grid.
        total: usize,
    },
}

/// The point-execution core: a worker pool over one scenario grid,
/// memoizing through a [`ResultCache`] and reporting progress through
/// an observer callback. Points land as `T` (see [`PointForm`]).
pub struct CampaignEngine<'a, T = PointResult> {
    points: &'a [ScenarioPoint],
    cache: &'a ResultCache,
    config: &'a RunConfig,
    form: PhantomData<fn() -> T>,
}

impl<'a> CampaignEngine<'a> {
    /// An engine over `points`, memoizing through `cache`, landing
    /// decoded [`PointResult`]s.
    pub fn new(
        points: &'a [ScenarioPoint],
        cache: &'a ResultCache,
        config: &'a RunConfig,
    ) -> CampaignEngine<'a> {
        CampaignEngine::landing(points, cache, config)
    }
}

impl<'a, T: PointForm> CampaignEngine<'a, T> {
    /// An engine over `points`, memoizing through `cache`, landing
    /// points as `T` — named by the caller's type, e.g.
    /// `CampaignEngine::<ResultText>::landing(..)`.
    pub fn landing(
        points: &'a [ScenarioPoint],
        cache: &'a ResultCache,
        config: &'a RunConfig,
    ) -> CampaignEngine<'a, T> {
        CampaignEngine {
            points,
            cache,
            config,
            form: PhantomData,
        }
    }

    /// Run the sweep to completion (or cancellation), emitting a
    /// [`PointEvent`] per landed point. Results return in grid order
    /// regardless of completion order, in the form they landed in.
    ///
    /// Returns [`CampaignError::Cancelled`] when `cancel` fired before
    /// the grid drained; partial results are dropped (they are still
    /// in the cache, so a re-run pays nothing for them).
    pub fn run(
        &self,
        observer: &(dyn Fn(PointEvent<T>) + Sync),
        cancel: &CancelToken,
    ) -> Result<(Vec<T>, RunStats), CampaignError> {
        let points = self.points;
        let started = Instant::now();
        let next = AtomicUsize::new(0);
        // The done counter doubles as the emission lock: incrementing
        // it and calling the observer happen under one guard, so
        // `done` is strictly monotone in event-emission order (the
        // documented 1..=N contract).
        let done: Mutex<usize> = Mutex::new(0);
        let simulated = AtomicUsize::new(0);
        let cache_hits = AtomicUsize::new(0);
        let results: Mutex<Vec<Option<Arc<T>>>> = Mutex::new(vec![None; points.len()]);
        let first_error: Mutex<Option<CampaignError>> = Mutex::new(None);

        observer(PointEvent::Started {
            total: points.len(),
        });
        // Handles into the process registry, resolved once per run;
        // per-point updates below are plain relaxed atomics.
        let metrics = EngineMetrics::get();
        let workers = self.config.effective_workers(points.len());
        let sweep = || {
            // One probe per worker: a point's text is written into the
            // buffer the previous point's text left behind.
            let mut probe = Probe::new();
            loop {
                if cancel.is_cancelled() {
                    return;
                }
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= points.len() {
                    return;
                }
                if first_error.lock().expect("error lock").is_some() {
                    return;
                }
                let point = &points[idx];
                let fp = probe.write(point);
                let lookup_started = Instant::now();
                let probed = T::cached(self.cache, &probe);
                metrics.cache_lookup_seconds.observe_since(lookup_started);
                metrics.points.inc();
                let (outcome, cached) = match probed {
                    Some(hit) => {
                        cache_hits.fetch_add(1, Ordering::Relaxed);
                        metrics.cache_hits.inc();
                        (Ok(hit), true)
                    }
                    None => {
                        simulated.fetch_add(1, Ordering::Relaxed);
                        metrics.cache_misses.inc();
                        let sim_started = Instant::now();
                        let fresh = simulate_point_keyed(point, fp).and_then(|r| {
                            metrics.simulate_seconds.observe_since(sim_started);
                            metrics.samples_replayed.add(r.samples as u64);
                            self.cache.put(&r.fingerprint.hex(), &r)?;
                            Ok(T::simulated(r))
                        });
                        (fresh, false)
                    }
                };
                match outcome {
                    Ok(result) => {
                        let shared = Arc::new(result);
                        results.lock().expect("results lock")[idx] = Some(shared.clone());
                        let mut done_guard = done.lock().expect("done lock");
                        *done_guard += 1;
                        observer(PointEvent::PointDone {
                            result: shared,
                            cached,
                            done: *done_guard,
                            total: points.len(),
                        });
                    }
                    Err(e) => {
                        first_error.lock().expect("error lock").get_or_insert(e);
                        return;
                    }
                }
            }
        };
        // A single-worker sweep runs inline: spawning (and joining) a
        // scoped thread per job is measurable overhead on the server's
        // warm path, where every queued job pays it.
        if workers == 1 {
            sweep();
        } else {
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(sweep);
                }
            });
        }

        if let Some(e) = first_error.into_inner().expect("error lock") {
            return Err(e);
        }
        let done = done.into_inner().expect("done lock");
        if cancel.is_cancelled() && done < points.len() {
            observer(PointEvent::Cancelled {
                done,
                total: points.len(),
            });
            return Err(CampaignError::Cancelled {
                done,
                total: points.len(),
            });
        }
        let mut collected = Vec::with_capacity(points.len());
        for (i, slot) in results
            .into_inner()
            .expect("results lock")
            .into_iter()
            .enumerate()
        {
            // A missing slot can only mean a worker bailed out after
            // the first error, which we returned above — but stay
            // defensive. Observers have usually dropped their Arc by
            // now, so the unwrap is copy-free; a holdout costs one
            // clone.
            let shared =
                slot.ok_or_else(|| CampaignError::Spec(format!("point {i} was not executed")))?;
            collected.push(Arc::try_unwrap(shared).unwrap_or_else(|held| (*held).clone()));
        }
        let sweep_secs = started.elapsed().as_secs_f64();
        metrics.stage_sweep.observe(sweep_secs);
        let stats = RunStats {
            points: points.len(),
            simulated: simulated.into_inner(),
            cache_hits: cache_hits.into_inner(),
            // The engine only sees the sweep; `run_campaign_on` widens
            // `wall_secs` to cover expansion and aggregation too.
            wall_secs: sweep_secs,
            expand_secs: 0.0,
            sweep_secs,
            aggregate_secs: 0.0,
        };
        observer(PointEvent::Finished { stats });
        Ok((collected, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::expand;
    use crate::spec::CampaignSpec;

    fn spec() -> CampaignSpec {
        CampaignSpec::from_toml(
            r#"
            name = "engine"
            seed = 21
            machines = ["thinkie", "comet", "titan"]
            kernels = ["asm", "c"]

            [[workloads]]
            app = "gromacs"
            steps = [10000, 50000]
            "#,
        )
        .unwrap()
    }

    #[test]
    fn engine_emits_one_event_per_point_plus_lifecycle() {
        let points = expand(&spec());
        let cache = ResultCache::in_memory();
        let config = RunConfig { workers: 4 };
        let events: Mutex<Vec<PointEvent>> = Mutex::new(Vec::new());
        let engine = CampaignEngine::new(&points, &cache, &config);
        let (results, stats) = engine
            .run(&|e| events.lock().unwrap().push(e), &CancelToken::new())
            .unwrap();
        let events = events.into_inner().unwrap();
        assert_eq!(results.len(), points.len());
        assert_eq!(stats.points, points.len());
        assert_eq!(events.len(), points.len() + 2, "start + N points + finish");
        assert!(matches!(events[0], PointEvent::Started { total } if total == points.len()));
        assert!(matches!(
            events[events.len() - 1],
            PointEvent::Finished { .. }
        ));
        // Every grid index lands exactly once; `done` counts 1..=N in
        // event order.
        let mut indices = Vec::new();
        for (i, e) in events[1..events.len() - 1].iter().enumerate() {
            match e {
                PointEvent::PointDone {
                    result,
                    cached,
                    done,
                    total,
                } => {
                    assert_eq!(*done, i + 1);
                    assert_eq!(*total, points.len());
                    assert!(!cached, "cold cache");
                    indices.push(result.point.index);
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
        indices.sort_unstable();
        assert_eq!(indices, (0..points.len()).collect::<Vec<_>>());
    }

    #[test]
    fn warm_engine_marks_events_cached() {
        let points = expand(&spec());
        let cache = ResultCache::in_memory();
        let config = RunConfig { workers: 2 };
        let engine = CampaignEngine::new(&points, &cache, &config);
        engine.run(&|_| {}, &CancelToken::new()).unwrap();
        let cached_flags: Mutex<Vec<bool>> = Mutex::new(Vec::new());
        engine
            .run(
                &|e| {
                    if let PointEvent::PointDone { cached, .. } = e {
                        cached_flags.lock().unwrap().push(cached);
                    }
                },
                &CancelToken::new(),
            )
            .unwrap();
        let flags = cached_flags.into_inner().unwrap();
        assert_eq!(flags.len(), points.len());
        assert!(flags.iter().all(|&c| c), "warm run is all cache hits");
    }

    #[test]
    fn cancellation_stops_mid_grid_and_reruns_reuse_the_cache() {
        let points = expand(&spec());
        let cache = ResultCache::in_memory();
        let config = RunConfig { workers: 2 };
        let cancel = CancelToken::new();
        let engine = CampaignEngine::new(&points, &cache, &config);
        // Cancel as soon as the third point lands: workers stop
        // claiming new points, so the sweep ends well short of the
        // grid.
        let err = engine
            .run(
                &|e| {
                    if let PointEvent::PointDone { done, .. } = e {
                        if done >= 3 {
                            cancel.cancel();
                        }
                    }
                },
                &cancel,
            )
            .unwrap_err();
        let done = match err {
            CampaignError::Cancelled { done, total } => {
                assert_eq!(total, points.len());
                assert!(done >= 3, "at least the observed points landed");
                assert!(done < points.len(), "grid not drained");
                done
            }
            other => panic!("expected Cancelled, got {other:?}"),
        };
        // The landed points are memoized: a fresh run only simulates
        // the remainder.
        let (_, stats) = engine.run(&|_| {}, &CancelToken::new()).unwrap();
        assert_eq!(stats.cache_hits, done);
        assert_eq!(stats.simulated, points.len() - done);
    }

    #[test]
    fn pre_cancelled_token_executes_nothing() {
        let points = expand(&spec());
        let cache = ResultCache::in_memory();
        let config = RunConfig::default();
        let cancel = CancelToken::new();
        cancel.cancel();
        let err = CampaignEngine::new(&points, &cache, &config)
            .run(&|_| {}, &cancel)
            .unwrap_err();
        assert!(matches!(err, CampaignError::Cancelled { done: 0, .. }));
        assert!(cache.is_empty());
    }
}
