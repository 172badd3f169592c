//! The fault harness: whole clusters run in process — the real
//! coordinator over fake worker links whose back-off returns at once,
//! with no server, socket or sleep — under 1000 seeded fault plans.
//!
//! A fault is a pure function of (seed, worker, lease range, attempt,
//! frame); thread interleaving stays real. Each fake serves the
//! precomputed single-process results as real `batch` frames, so the
//! coordinator's parser and collector run unchanged. Every seed must
//! keep the invariants `run_seed` checks; a failing seed writes the
//! flight-recorder trace of its run under `CARGO_TARGET_TMPDIR` and
//! names the file, so `synapse campaign replay FILE --strict` shows
//! what the coordinator merged.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::{Error, ErrorKind};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use serde_json::{json, Value};
use synapse_campaign::{
    run_campaign_on, CampaignError, CampaignSpec, CancelToken, LiveAggregates, PointEvent,
    PointResult, ResultCache, RunConfig, View,
};
use synapse_cluster::coordinator::{MAX_LEASE_ATTEMPTS, MIN_SPLIT_POINTS};
use synapse_cluster::{Coordinator, Link, Transport};
use synapse_server::{lease_batch_line, ClusterBackend, LeaseRequest, ServerError};
use synapse_trace::{ReplayMode, Trace, TraceRecorder};

/// How long one seed's run may take before the harness calls it hung.
const RUN_DEADLINE: Duration = Duration::from_secs(30);

/// The fault kinds. `Stall` yields only heartbeats until the
/// coordinator hangs up; `Silence` is the client's stream-silence
/// error; `Kill` fails the call and every later one to that worker;
/// `Cancel` fires the campaign's cancel token; `Lie` adds to a batch
/// frame, last, an entry whose index lies outside the lease.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Fault {
    Refuse,
    Break,
    Kill,
    Duplicate,
    Reorder,
    Cut,
    Truncated,
    Failed,
    Stall,
    Silence,
    Cancel,
    Lie,
}

const FAULTS: [Fault; 12] = {
    use Fault::*;
    [
        Refuse, Break, Kill, Duplicate, Reorder, Cut, Truncated, Failed, Stall, Silence, Cancel,
        Lie,
    ]
};

/// splitmix64 over a word list: the seeded source of every choice.
fn mix(words: &[usize]) -> usize {
    let h = words.iter().fold(0x9e37_79b9_7f4a_7c15_u64, |h, &w| {
        let mut z = (h ^ w as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    });
    h as usize
}

/// The spec with its single-process run: results as the fakes serve
/// them, report text, live view, and the cache the coordinator's local
/// fallback reads.
struct Baseline {
    spec: CampaignSpec,
    results: Vec<(Arc<PointResult>, bool)>,
    report: String,
    view: View,
    cache: ResultCache,
}

fn baseline() -> &'static Baseline {
    static BASELINE: OnceLock<Baseline> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let spec = CampaignSpec::from_toml(
            r#"name = "faults"
            seed = 41
            machines = ["thinkie", "comet", "stampede"]
            kernels = ["asm", "c"]
            modes = ["openmp", "mpi"]
            [[workloads]]
            app = "gromacs"
            steps = [10000, 20000, 50000, 100000]"#,
        )
        .unwrap();
        let (cache, live) = (ResultCache::in_memory(), LiveAggregates::new());
        let slots = Mutex::new(vec![None; spec.point_count()]);
        let observer = |event: PointEvent| {
            if let PointEvent::PointDone { result, .. } = event {
                live.record(&result);
                let index = result.point.index;
                slots.lock().unwrap()[index] = Some((result, index % 3 == 0));
            }
        };
        let (config, cancel) = (RunConfig::default(), CancelToken::new());
        let outcome = run_campaign_on(&spec, &config, &cache, &observer, &cancel);
        Baseline {
            report: outcome.unwrap().report.to_json_pretty().unwrap(),
            results: slots.into_inner().unwrap().into_iter().flatten().collect(),
            view: live.view(None, None),
            spec,
            cache,
        }
    })
}

/// What the fake workers saw and did during one run.
#[derive(Default)]
struct Log {
    /// Every accepted lease job: worker, range, attempt, and whether it
    /// still runs worker-side (no terminal line served, not cancelled,
    /// worker alive).
    jobs: Vec<(usize, (usize, usize), usize, bool)>,
    attempts: HashMap<(usize, usize), usize>,
    /// Lease attempts a fault failed, per range.
    failures: HashMap<(usize, usize), usize>,
    killed: BTreeSet<usize>,
    hits: BTreeSet<Fault>,
    /// `Lie` frames after which the coordinator kept reading the lease.
    lies_believed: usize,
}

/// A fake cluster: worker links `fake:0..workers`, the campaign's
/// cancel token, and the seed's fault plan.
struct Net {
    seed: usize,
    /// Percent of lease attempts that get a fault.
    rate: usize,
    /// The worker that never dies or stalls, so a stall always has an
    /// idle driver to split its tail and rescue it.
    anchor: usize,
    cancel: CancelToken,
    log: Mutex<Log>,
}

impl Net {
    /// The fault of one lease attempt, and the frame it acts at.
    fn fault(
        &self,
        worker: usize,
        range: (usize, usize),
        attempt: usize,
    ) -> Option<(Fault, usize)> {
        let h = mix(&[self.seed, worker, range.0, range.1, attempt]);
        let fault = FAULTS[(h >> 8) % FAULTS.len()];
        let frames = 2 + (range.1 - range.0).div_ceil(self.batch(range));
        let planned = h % 100 < self.rate
            && match fault {
                Fault::Kill => worker != self.anchor,
                // Before any point lands, on a lease's first attempt: an
                // unsplit tail long enough to split.
                Fault::Stall => {
                    worker != self.anchor && attempt == 1 && range.1 - range.0 >= MIN_SPLIT_POINTS
                }
                Fault::Reorder => frames >= 4,
                Fault::Cancel => self.seed.is_multiple_of(4),
                _ => true,
            };
        let frame = (h >> 16) % frames;
        planned.then(|| match fault {
            Fault::Stall => (fault, 1),
            Fault::Reorder => (fault, 1 + frame % (frames - 3)),
            // A batch frame.
            Fault::Lie => (fault, 1 + frame % (frames - 2)),
            _ => (fault, frame),
        })
    }

    fn batch(&self, range: (usize, usize)) -> usize {
        1 + mix(&[self.seed, range.0, range.1]) % 4
    }

    /// One lease job's event stream, with the fault's edit applied.
    fn script(&self, range: (usize, usize), fault: Option<(Fault, usize)>) -> Vec<String> {
        let points = &baseline().results[range.0..range.1];
        let mut lines = vec!["{\"event\":\"started\"}".to_string()];
        lines.extend(
            points
                .chunks(self.batch(range))
                .map(|b| lease_batch_line(b, None)),
        );
        lines.push(format!(
            "{{\"event\":\"completed\",\"points\":{}}}",
            points.len()
        ));
        match fault {
            Some((Fault::Duplicate, k)) => lines.insert(k, lines[k].clone()),
            Some((Fault::Reorder, k)) => lines.swap(k, k + 1),
            Some((Fault::Cut, k)) => lines[k] = lines[k][..lines[k].len() / 2].to_string(),
            Some((Fault::Truncated, k)) => {
                lines.insert(k, r#"{"event":"truncated","dropped":1}"#.into())
            }
            Some((Fault::Failed, k)) => {
                lines.truncate(k);
                lines.push(r#"{"event":"failed","error":"injected"}"#.into());
            }
            Some((Fault::Lie, k)) => {
                // The frame's first result again, under an index past
                // either end of the lease (past the grid, when the
                // lease is the whole grid).
                let mut frame = points
                    .chunks(self.batch(range))
                    .nth(k - 1)
                    .unwrap()
                    .to_vec();
                let (mut lie, cached) = frame[0].clone();
                Arc::make_mut(&mut lie).point.index = match range {
                    (0, end) => end,
                    (start, _) => start - 1,
                };
                frame.push((lie, cached));
                lines[k] = lease_batch_line(&frame, None);
            }
            _ => {}
        }
        lines
    }
}

impl Transport for Net {
    fn link<'a>(&'a self, addr: &str, _: Option<&str>) -> Box<dyn Link + 'a> {
        let worker = addr.trim_start_matches("fake:").parse().unwrap();
        Box::new(FakeLink { net: self, worker })
    }

    fn sleep(&self, _: Duration) {}
}

struct FakeLink<'a> {
    net: &'a Net,
    worker: usize,
}

impl FakeLink<'_> {
    /// The log, or the error every call to a killed worker gets.
    fn log(&self) -> Result<MutexGuard<'_, Log>, ServerError> {
        let log = self.net.log.lock().unwrap();
        match log.killed.contains(&self.worker) {
            true => Err(Error::from(ErrorKind::ConnectionRefused).into()),
            false => Ok(log),
        }
    }
}

impl Link for FakeLink<'_> {
    fn submit_lease(&self, body: &str) -> Result<Value, ServerError> {
        let lease: LeaseRequest = serde_json::from_str(body).unwrap();
        let range = (lease.start, lease.end);
        let mut log = self.log()?;
        *log.attempts.entry(range).or_default() += 1;
        let attempt = log.attempts[&range];
        if let Some((Fault::Refuse, _)) = self.net.fault(self.worker, range, attempt) {
            log.hits.insert(Fault::Refuse);
            *log.failures.entry(range).or_default() += 1;
            return Err(ServerError::Status(503, "busy".into()));
        }
        log.jobs.push((self.worker, range, attempt, true));
        Ok(json!({"id": format!("j{}", log.jobs.len() - 1), "status": "queued"}))
    }

    fn watch_with_keepalive(
        &self,
        id: &str,
        on_line: &mut dyn FnMut(&str) -> bool,
    ) -> Result<Value, ServerError> {
        let job: usize = id[1..].parse().unwrap();
        let (_, range, attempt, _) = self.log()?.jobs[job];
        let fault = self.net.fault(self.worker, range, attempt);
        let lines = self.net.script(range, fault);
        let mut last = "null";
        for (i, line) in lines.iter().enumerate() {
            let mut log = self.log()?;
            if let Some((kind, _)) = fault.filter(|&(_, at)| at == i) {
                log.hits.insert(kind);
                if !matches!(
                    kind,
                    Fault::Duplicate | Fault::Reorder | Fault::Stall | Fault::Cancel
                ) {
                    *log.failures.entry(range).or_default() += 1;
                }
                match kind {
                    Fault::Kill => {
                        log.killed.insert(self.worker);
                        for job in log.jobs.iter_mut().filter(|j| j.0 == self.worker) {
                            job.3 = false;
                        }
                        return Err(Error::from(ErrorKind::ConnectionReset).into());
                    }
                    Fault::Break => return Err(Error::from(ErrorKind::ConnectionReset).into()),
                    Fault::Silence => return Err(ServerError::Disconnected("silent".into())),
                    Fault::Cancel => self.net.cancel.cancel(),
                    Fault::Stall => {
                        drop(log);
                        while on_line("{\"event\":\"heartbeat\"}") {
                            std::thread::yield_now();
                        }
                        return Ok(serde_json::from_str(last).unwrap());
                    }
                    _ => {}
                }
            }
            // Serving its terminal line ends the job worker-side.
            log.jobs[job].3 &= i + 1 < lines.len();
            drop(log);
            if !on_line(line) {
                break;
            }
            if fault == Some((Fault::Lie, i)) {
                self.net.log.lock().unwrap().lies_believed += 1;
            }
            last = line;
        }
        Ok(serde_json::from_str(last).unwrap_or(Value::Null))
    }

    fn cancel(&self, id: &str) -> Result<Value, ServerError> {
        self.log()?.jobs[id[1..].parse::<usize>().unwrap()].3 = false;
        Ok(json!({"status": "cancelled"}))
    }

    fn healthz(&self) -> Result<Value, ServerError> {
        self.log().map(|_| json!({"status": "ok"}))
    }
}

/// A coordinator over a fresh fake cluster of `workers` workers (none:
/// the coordinator sweeps the grid itself).
fn cluster(seed: usize, workers: usize, rate: usize) -> (Arc<Coordinator>, Arc<Net>) {
    let net = Arc::new(Net {
        seed,
        rate,
        anchor: mix(&[seed, 1]) % workers.max(1),
        cancel: CancelToken::new(),
        log: Mutex::default(),
    });
    let coordinator = Coordinator::with_transport(net.clone());
    for worker in 0..workers {
        coordinator.registry().register(&format!("fake:{worker}"));
    }
    (Arc::new(coordinator), net)
}

/// What the job observer of one run folds: the flight recorder, the
/// live view, and whether each index arrived, the last `done` and the
/// breaches it saw.
struct Watch {
    recorder: TraceRecorder,
    live: LiveAggregates,
    seen: Mutex<(Vec<bool>, usize, Vec<String>)>,
}

/// Run one campaign over a fake cluster and check every invariant;
/// on a breach, write the run's trace and panic naming the seed and
/// the file. Returns how the run ended.
fn run_seed(seed: usize, (coordinator, net): &(Arc<Coordinator>, Arc<Net>)) -> &'static str {
    let base = baseline();
    let watch = Arc::new(Watch {
        recorder: TraceRecorder::new(&base.spec),
        live: LiveAggregates::new(),
        seen: Mutex::new((vec![false; base.results.len()], 0, Vec::new())),
    });
    let (tx, rx) = mpsc::channel();
    let (c, n, w) = (coordinator.clone(), net.clone(), watch.clone());
    let run = std::thread::spawn(move || {
        let observer = |event: PointEvent| {
            w.recorder.observe(&event);
            if let PointEvent::PointDone { result, done, .. } = event {
                w.live.record(&result);
                let (indices, last, breaches) = &mut *w.seen.lock().unwrap();
                if done != *last + 1 {
                    breaches.push(format!("done went {last} -> {done}"));
                }
                if std::mem::replace(&mut indices[result.point.index], true) {
                    breaches.push(format!("index {} observed twice", result.point.index));
                }
                *last = done;
            }
        };
        let recorder = Some(&w.recorder);
        let outcome = c.run_distributed(
            &base.spec,
            &base.cache,
            &observer,
            &w.live,
            recorder,
            &n.cancel,
        );
        let _ = tx.send(());
        outcome
    });
    // A hung run's thread is left behind: the panic below ends the test.
    let outcome = match rx.recv_timeout(RUN_DEADLINE) {
        Err(RecvTimeoutError::Timeout) => None,
        _ => Some(run.join()),
    };
    let (indices, _, mut breaches) = std::mem::take(&mut *watch.seen.lock().unwrap());
    let log = net.log.lock().unwrap();
    let mut breach = |what: String| breaches.push(what);
    let ended = match outcome {
        None => {
            breach(format!("the run did not end within {RUN_DEADLINE:?}"));
            "hung"
        }
        Some(Err(_)) => {
            breach("the run panicked".into());
            "panicked"
        }
        Some(Ok(Ok(outcome))) => {
            if outcome.report.to_json_pretty().unwrap() != base.report {
                breach("report differs from the single-process report".into());
            }
            if watch.live.view(None, None) != base.view {
                breach("live view differs from the single-process view".into());
            }
            if indices.contains(&false) {
                breach("an Ok run never observed some index".into());
            }
            let trace = Trace::parse(&watch.recorder.render());
            if let Err(e) = trace.and_then(|t| t.verify(ReplayMode::Strict)) {
                breach(format!("trace fails strict replay: {e}"));
            }
            "Ok"
        }
        Some(Ok(Err(CampaignError::Cancelled { .. }))) if net.cancel.is_cancelled() => "Cancelled",
        Some(Ok(Err(CampaignError::Cluster(_))))
            if log.failures.values().any(|&n| n >= MAX_LEASE_ATTEMPTS) =>
        {
            "Err(Cluster)"
        }
        Some(Ok(Err(e))) => {
            breach(format!("run ended with {e}"));
            "Err"
        }
    };
    if log.lies_believed > 0 {
        breach(format!("{} lying frames merged", log.lies_believed));
    }
    for (id, addr) in coordinator.registry().live() {
        if log.killed.iter().any(|w| addr == format!("fake:{w}")) {
            breach(format!("killed worker {id} still live"));
        }
    }
    for (job, (worker, range, _, running)) in log.jobs.iter().enumerate() {
        if *running {
            breach(format!(
                "lease job j{job} {range:?} left running on fake:{worker}"
            ));
        }
    }
    if !breaches.is_empty() {
        let path = format!("{}/faults-seed-{seed}.jsonl", env!("CARGO_TARGET_TMPDIR"));
        watch.recorder.write_to(path.as_ref()).unwrap();
        panic!("seed {seed}: {breaches:?}; trace written to {path}");
    }
    ended
}

#[test]
fn a_thousand_seeded_fault_plans_keep_every_invariant() {
    // Seeds per fault kind hit, and per way a run ended.
    let mut tally: BTreeMap<String, usize> = BTreeMap::new();
    for seed in 0..1000 {
        // One seed in 50 faults every lease attempt, so a lease runs
        // out of attempts and poisons the job.
        let rate = if seed % 50 == 49 { 100 } else { 30 };
        let cluster = cluster(seed, mix(&[seed]) % 5, rate);
        let ended = format!("ended {}", run_seed(seed, &cluster));
        let hits = cluster.1.log.lock().unwrap().hits.clone();
        for key in hits.iter().map(|f| format!("{f:?}")).chain([ended]) {
            *tally.entry(key).or_default() += 1;
        }
    }
    eprintln!("seeds per fault hit and per ending: {tally:?}");
    for fault in FAULTS {
        assert!(
            tally.contains_key(&format!("{fault:?}")),
            "no seed hit {fault:?}"
        );
    }
}

#[test]
fn each_coordinator_plans_from_its_own_worker_rates() {
    // Two coordinators in one process, each with a worker `w1`: what
    // the first measured must not shape the second's plan.
    let first_lease_len = |cluster: &(Arc<Coordinator>, Arc<Net>)| {
        let before = cluster.1.log.lock().unwrap().jobs.len();
        run_seed(1, cluster);
        let (_, (start, end), _, _) = cluster.1.log.lock().unwrap().jobs[before];
        end - start
    };
    // An unmeasured worker gets a probe lease; a measured one does not.
    let first = cluster(1, 1, 0);
    assert_eq!(first_lease_len(&first), 1);
    assert!(first.0.registry().rate("w1") > 0.0);
    assert!(first_lease_len(&first) > 1);
    let second = cluster(1, 1, 0);
    assert_eq!(first_lease_len(&second), 1, "the second coordinator probes");
}

#[test]
fn a_view_that_misses_a_point_fails_the_run() {
    let base = baseline();
    let (coordinator, net) = cluster(7, 2, 0);
    let live = LiveAggregates::new();
    let observer = |event: PointEvent| {
        if let PointEvent::PointDone { result, done, .. } = event {
            if done != 1 {
                live.record(&result);
            }
        }
    };
    let outcome =
        coordinator.run_distributed(&base.spec, &base.cache, &observer, &live, None, &net.cancel);
    let total = base.results.len();
    match outcome.err() {
        Some(CampaignError::ViewMismatch { view, results }) => {
            assert_eq!((view, results), (total as u64 - 1, total));
        }
        other => panic!("the run ended with {other:?}"),
    }
}
