//! One measured pass over one workload: the untraced pass gives the
//! end-to-end metrics, the traced pass the per-layer ones.

use std::path::{Path, PathBuf};
use std::time::Instant;

use synapse_server::Client;

use crate::catalog::{Better, Workload, END_TO_END, PER_LAYER};
use crate::host;
use crate::layers::{self, ReplayCounts, BUDGET_LAYERS};
use crate::stats::{median, percentile};
use crate::trace::{Span, Tracer};
use crate::workloads::{self, Env, JobTimes, COLD_ROUND_JOBS, SWEEP_WORKERS};

/// Set-ups per untraced pass; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Failed jobs after which a pass stops: the run is lost anyway, and a
/// broken build should not burn the whole time budget.
const MAX_FAILURES: usize = 5;

/// Share of a traced pass's time spent on plain jobs first, the
/// baseline `trace.overhead_frac` compares the traced jobs with.
const PLAIN_SHARE: f64 = 0.25;

/// Share of a traced pass's time spent on traced jobs; the rest goes
/// to replaying them layer by layer.
const TRACED_SHARE: f64 = 0.35;

/// How to run a pass.
#[derive(Debug, Clone)]
pub struct Options {
    /// Benchmark seed: every job's campaign seed derives from it.
    pub seed: u64,
    /// Seconds of timed jobs.
    pub seconds: f64,
    /// Two jobs and one set-up per pass, whatever `seconds` says.
    pub smoke: bool,
    /// Where traces and scratch directories go (inside the checkout).
    pub out_dir: PathBuf,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalog name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Catalog unit.
    pub unit: &'static str,
    /// Catalog direction.
    pub better: Better,
}

/// The outcome of one pass.
#[derive(Debug, Clone)]
pub struct Pass {
    /// The workload measured.
    pub workload: Workload,
    /// Timed jobs attempted.
    pub attempted: usize,
    /// Jobs that errored or failed verification.
    pub failed: usize,
    /// Why they failed.
    pub failures: Vec<String>,
    /// Every catalog metric of the pass's kind.
    pub metrics: Vec<Metric>,
    /// Canary before the pass, ms.
    pub spin_before_ms: f64,
    /// Canary after the pass, ms.
    pub spin_after_ms: f64,
}

impl Pass {
    /// Whether every job ran and verified.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Whether the host canary drifted across the pass.
    pub fn noisy(&self) -> bool {
        host::drift(self.spin_before_ms, self.spin_after_ms) > host::NOISY_DRIFT
    }

    /// A metric's value by name.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// The timed-job loop both kinds of pass share.
struct Jobs {
    times: Vec<JobTimes>,
    attempted: usize,
    failures: Vec<String>,
}

impl Jobs {
    fn new() -> Jobs {
        Jobs {
            times: Vec::new(),
            attempted: 0,
            failures: Vec::new(),
        }
    }

    /// Run timed jobs until `seconds` have passed (two jobs in smoke
    /// mode), rotating the `serve_cold` server between rounds.
    /// `after_job` sees each verified job outside its timed interval.
    fn run(
        &mut self,
        env: &mut Env,
        workload: Workload,
        options: &Options,
        seconds: f64,
        mut after_job: impl FnMut(&mut Env, u64, &JobTimes),
    ) {
        let started = Instant::now();
        let mut done = 0;
        loop {
            let more = if options.smoke {
                done < 2
            } else {
                started.elapsed().as_secs_f64() < seconds
            };
            if !more || self.failures.len() >= MAX_FAILURES {
                return;
            }
            let job = self.attempted as u64;
            if workload == Workload::ServeCold
                && job > 0
                && (job as usize).is_multiple_of(COLD_ROUND_JOBS)
            {
                if let Err(e) = env.rotate() {
                    self.failures.push(format!("server rotation: {e}"));
                    return;
                }
            }
            self.attempted += 1;
            done += 1;
            match env.run_job(job) {
                Ok(times) => {
                    after_job(env, job, &times);
                    self.times.push(times);
                }
                Err(e) => self.failures.push(format!("job {job}: {e}")),
            }
        }
    }
}

fn points_per_s(workload: Workload, times: &[JobTimes]) -> f64 {
    let walls: Vec<f64> = times.iter().map(JobTimes::wall_s).collect();
    match median(&walls) {
        wall if wall > 0.0 => workload.points_per_job() as f64 / wall,
        _ => 0.0,
    }
}

fn work_dir(options: &Options) -> PathBuf {
    options.out_dir.join(format!("work-{}", std::process::id()))
}

fn failed_pass(workload: Workload, spin_before_ms: f64, why: String) -> Pass {
    Pass {
        workload,
        attempted: 1,
        failed: 1,
        failures: vec![why],
        metrics: Vec::new(),
        spin_before_ms,
        spin_after_ms: spin_before_ms,
    }
}

/// The untraced pass: set up (several times, `setup_s` is the median),
/// run timed jobs, report the end-to-end metrics.
pub fn measure(workload: Workload, options: &Options) -> Pass {
    let spin_before_ms = host::spin_ms();
    let work_dir = work_dir(options);
    let repeats = if options.smoke { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::with_capacity(repeats);
    let mut env = None;
    for _ in 0..repeats {
        drop(env.take()); // tear the previous set-up down off the clock
        let started = Instant::now();
        match Env::setup(workload, options.seed, &work_dir) {
            Ok(ready) => env = Some(ready),
            Err(e) => return failed_pass(workload, spin_before_ms, format!("set-up: {e}")),
        }
        setups.push(started.elapsed().as_secs_f64());
    }
    let mut env = env.expect("at least one set-up");

    let mut jobs = Jobs::new();
    jobs.run(&mut env, workload, options, options.seconds, |_, _, _| {});
    let sim_error_pct = env.sim_error_pct;
    drop(env);
    let _ = std::fs::remove_dir_all(&work_dir);

    let times = &jobs.times;
    let firsts: Vec<f64> = times.iter().map(|t| t.first_point_s() * 1e3).collect();
    let cpu_s: f64 = times.iter().map(|t| t.cpu_s).sum();
    let points = (times.len() * workload.points_per_job()).max(1);
    let values = [
        points_per_s(workload, times),
        median(&firsts),
        cpu_s * 1e6 / points as f64,
        sim_error_pct,
        median(&setups),
    ];
    Pass {
        workload,
        attempted: jobs.attempted,
        failed: jobs.failures.len(),
        failures: jobs.failures,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(m, value)| Metric {
                name: m.name,
                value,
                unit: m.unit,
                better: m.better,
            })
            .collect(),
        spin_before_ms,
        spin_after_ms: host::spin_ms(),
    }
}

/// Sum of every series of metric `name` in a Prometheus text scrape.
fn scraped(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|line| {
            line.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with([' ', '{']))
        })
        .filter_map(|line| line.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// Counters of the process-wide registry the per-job deltas come from.
const SCRAPED: [&str; 8] = [
    "synapse_server_poll_iteration_seconds_count",
    "synapse_server_wake_batch_size_sum",
    "synapse_server_wake_batch_size_count",
    "synapse_cluster_leases_assigned_total",
    "synapse_cluster_batch_points_sum",
    "synapse_cluster_batch_points_count",
    "synapse_cluster_leases_reassigned_total",
    "synapse_cluster_leases_split_total",
];

fn scrape(env: &Env) -> Option<[f64; 8]> {
    let text = Client::new(env.front_addr()?).metrics().ok()?;
    Some(SCRAPED.map(|name| scraped(&text, name)))
}

/// Median milliseconds of `tries` calls of `f`.
fn median_ms(tries: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..tries)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// The spans of one job's client-visible phases.
fn push_job_spans(t: &mut Tracer, job: u64, times: &JobTimes) {
    let (start, ack, first, end) = (
        t.at(times.start),
        times.ack.map(|ack| t.at(ack)),
        t.at(times.first_point),
        t.at(times.end),
    );
    let mut push = |name, start_us, end_us, parent| {
        t.push(Span {
            name,
            start_us,
            end_us,
            parent,
            job,
            count: 1,
        })
    };
    let root = push("job", start, end, None);
    if let Some(ack) = ack {
        push("client.submit_ack", start, ack, Some(root));
    }
    push(
        "client.first_point",
        ack.unwrap_or(start),
        first,
        Some(root),
    );
    push("client.stream", first, end, Some(root));
}

/// Whether `layer` runs on both sweep threads (`sweep_long`) or both
/// workers (`cluster_warm`) at once, so that its share of a job's wall
/// is half its single-thread replay time.
fn runs_two_wide(workload: Workload, layer: &str) -> bool {
    match workload {
        Workload::SweepLong => matches!(
            layer,
            "cache.fingerprint" | "cache.get_miss" | "runner.simulate_point" | "cache.put"
        ),
        Workload::ClusterWarm => matches!(
            layer,
            "grid.expand"
                | "cache.fingerprint"
                | "cache.get_hit"
                | "live.record"
                | "cluster.batch_encode"
                | "cluster.digest"
        ),
        _ => false,
    }
}

/// The traced pass: plain jobs, then jobs whose client-visible phases
/// become spans, then those jobs' specs replayed layer by layer.
pub fn trace(workload: Workload, options: &Options) -> Pass {
    let spin_before_ms = host::spin_ms();
    let work_dir = work_dir(options);
    let mut t = Tracer::new();
    let setup_span = t.open("setup", None, 0);
    let mut env = match Env::setup(workload, options.seed, &work_dir) {
        Ok(env) => env,
        Err(e) => return failed_pass(workload, spin_before_ms, format!("set-up: {e}")),
    };
    t.close(setup_span);
    // The warm workloads' replay probes a cache that holds job 0.
    let warm = match workload {
        Workload::ServeWarm | Workload::ClusterWarm => {
            match workloads::filled_cache(&env.spec_for(0)) {
                Ok(cache) => Some(cache),
                Err(e) => return failed_pass(workload, spin_before_ms, format!("warm cache: {e}")),
            }
        }
        _ => None,
    };

    let scrape_before = scrape(&env);
    let served_before = env.served_jobs;
    let mut jobs = Jobs::new();
    jobs.run(
        &mut env,
        workload,
        options,
        options.seconds * PLAIN_SHARE,
        |_, _, _| {},
    );
    let plain_jobs = jobs.times.len();

    // Traced jobs run back to back exactly like the plain ones; their
    // spans are built afterwards from the moments the job loop notes
    // anyway. Replaying in between would have the next job start on
    // caches and a heap the replay just churned (it doubled the
    // `serve_cold` job time).
    let mut traced_jobs: Vec<(u64, usize)> = Vec::new();
    jobs.run(
        &mut env,
        workload,
        options,
        options.seconds * TRACED_SHARE,
        |_, job, times| {
            push_job_spans(&mut t, job, times);
            traced_jobs.push((job, times.point_bytes));
        },
    );
    let scrape_after = scrape(&env);
    let served_jobs = (env.served_jobs - served_before).max(1) as f64;

    let (mut healthz_ms, mut metrics_ms) = (0.0, 0.0);
    if let Some(addr) = env.front_addr() {
        let client = Client::new(addr);
        healthz_ms = median_ms(21, || drop(client.healthz()));
        metrics_ms = median_ms(5, || drop(client.metrics()));
    }

    // The replays: as many of the traced jobs as fit in the rest of
    // the time, and at least one.
    let replay_seconds = options.seconds * (1.0 - PLAIN_SHARE - TRACED_SHARE);
    let replay_started = Instant::now();
    let mut counts = ReplayCounts::default();
    let mut replays = 0u64;
    let mut samples = 0u64;
    for &(job, point_bytes) in &traced_jobs {
        let spec = env.spec_for(job);
        let dir = work_dir.join(format!("replay-{job}"));
        counts = layers::replay(&mut t, workload, job, &spec, warm.as_ref(), &dir);
        samples += counts.samples;
        replays += 1;
        if workload.served() {
            layers::replay_http(&mut t, job, &spec, point_bytes);
        }
        let spent = replay_started.elapsed().as_secs_f64();
        if spent >= replay_seconds || (options.smoke && replays >= 2) {
            break;
        }
    }
    drop(env);
    let (put_us_at_100k, rss_kb_per_result) = if workload == Workload::ServeCold && !options.smoke {
        match workloads::one_result(options.seed) {
            Ok(sample) => layers::cache_at_100k(&sample),
            Err(_) => (0.0, 0.0),
        }
    } else {
        (0.0, 0.0)
    };
    let _ = std::fs::remove_dir_all(&work_dir);

    let trace_path = options
        .out_dir
        .join(format!("trace.{}.json", workload.name()));
    let mut failures = jobs.failures;
    if let Err(e) = t.write(&trace_path, workload.name()) {
        failures.push(format!("trace file {}: {e}", trace_path.display()));
    }

    // Per-layer numbers: self time per call, from the replay spans.
    let totals = t.layer_totals();
    let us = |name: &str| totals.get(name).map_or(0.0, |l| l.us_per_call());
    let self_us = |name: &str| totals.get(name).map_or(0.0, |l| l.self_us);
    let n = workload.grid().points() as f64;
    let replays_f = (replays.max(1)) as f64;

    let (plain, traced) = jobs.times.split_at(plain_jobs.min(jobs.times.len()));
    let all = &jobs.times;
    let wall_ms: Vec<f64> = all.iter().map(|j| j.wall_s() * 1e3).collect();
    let acks_ms: Vec<f64> = all
        .iter()
        .filter_map(|j| Some(j.ack?.duration_since(j.start).as_secs_f64() * 1e3))
        .collect();
    let stream_us: Vec<f64> = all
        .iter()
        .filter_map(|j| Some(j.end.duration_since(j.ack?).as_secs_f64() * 1e6 / n))
        .collect();
    let hits: usize = all.iter().map(|j| j.cache_hits).sum();
    let job_points = (all.len() * workload.points_per_job()).max(1);

    // The budget: each layer's share of one job's wall, against the
    // wall the client saw.
    let traced_wall_us = median(&traced.iter().map(|j| j.wall_s() * 1e6).collect::<Vec<_>>());
    let budget_us: f64 = BUDGET_LAYERS
        .iter()
        .map(|layer| {
            let width = if runs_two_wide(workload, layer) {
                SWEEP_WORKERS as f64
            } else {
                1.0
            };
            self_us(layer) / replays_f / width
        })
        .sum();
    let coverage = if traced_wall_us > 0.0 {
        budget_us / traced_wall_us
    } else {
        0.0
    };
    let residual = if workload.served() && traced_wall_us > 0.0 {
        (traced_wall_us - budget_us) / n
    } else {
        0.0
    };
    let overhead = match (
        points_per_s(workload, plain),
        points_per_s(workload, traced),
    ) {
        (plain, traced) if plain > 0.0 && traced > 0.0 => 1.0 - traced / plain,
        _ => 0.0,
    };
    let delta: [f64; 8] = match (scrape_before, scrape_after) {
        (Some(before), Some(after)) => std::array::from_fn(|i| after[i] - before[i]),
        _ => [0.0; 8],
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let distributed = workload == Workload::ClusterWarm;
    let cluster = |value: f64| if distributed { value } else { 0.0 };
    let emulate_samples = samples.max(1) as f64;

    let value_of = |name: &str| -> f64 {
        match name {
            "spec.parse_us" => us("spec.parse"),
            "grid.expand_us_per_point" => us("grid.expand"),
            "grid.points" => n,
            "cache.fingerprint_us" => us("cache.fingerprint"),
            "cache.get_hit_us" => us("cache.get_hit"),
            "cache.get_miss_us" => us("cache.get_miss"),
            "cache.put_us" => us("cache.put"),
            "cache.hit_ratio" => hits as f64 / job_points as f64,
            "cache.put_us_at_100k" => put_us_at_100k,
            "cache.rss_kb_per_result" => rss_kb_per_result,
            "runner.resolve_us" => us("runner.resolve"),
            "runner.simulate_point_us" => us("runner.simulate_point"),
            "workloads.profile_synth_us" => us("workloads.profile_synth"),
            "workloads.app_baseline_us" => us("workloads.app_baseline"),
            "workloads.samples_per_point" => samples as f64 / (replays_f * n),
            "emulator.simulate_us" => us("emulator.simulate"),
            "emulator.ns_per_sample" => self_us("emulator.simulate") * 1e3 / emulate_samples,
            "live.record_us" => us("live.record"),
            "live.render_us" => us("live.render"),
            "report.assemble_us_per_point" => us("report.assemble"),
            "report.to_json_us_per_point" => us("report.to_json"),
            "aggregate.axis_slices_us_per_point" => us("aggregate.axis_slices"),
            "store.save_ms" => us("store.save") / 1e3,
            "store.open_ms" => us("store.open") / 1e3,
            "store.save_bytes" => counts.save_bytes as f64,
            "store.dirty_shards" => counts.dirty_shards as f64,
            "store.upsert_us" => us("store.upsert"),
            "store.get_us" => us("store.get"),
            "http.parse_request_us" => us("http.parse_request"),
            "http.chunk_us_per_kb" => us("http.chunk"),
            "server.submit_ack_ms" => median(&acks_ms),
            "server.stream_us_per_point" => median(&stream_us),
            "server.wire_bytes_per_point" => all.first().map_or(0.0, |j| j.point_bytes as f64 / n),
            "server.job_ms_p95" if !workload.served() => 0.0,
            "server.job_ms_p95" => percentile(&wall_ms, 95.0),
            "server.healthz_rtt_ms" => healthz_ms,
            "server.metrics_render_ms" => metrics_ms,
            "server.residual_us_per_point" => residual,
            "server.poll_passes_per_job" => delta[0] / served_jobs,
            "server.wake_batch_mean" => ratio(delta[1], delta[2]),
            "cluster.plan_leases_us" => us("cluster.plan_leases"),
            "cluster.lease_request_us" => us("cluster.lease_request"),
            "cluster.batch_decode_us_per_point" => us("cluster.batch_decode"),
            "cluster.collector_us_per_point" => us("cluster.collector"),
            "cluster.digest_merge_us" => us("cluster.digest_merge"),
            // Planned leases only: tail splits and reassignments depend
            // on timing and are reported on their own.
            "cluster.leases_per_job" => cluster((delta[3] - delta[6] - delta[7]) / served_jobs),
            "cluster.points_per_batch" => cluster(ratio(delta[4], delta[5])),
            "cluster.reassigned" => cluster(delta[6]),
            "cluster.splits" => cluster(delta[7]),
            "budget.coverage" => coverage,
            "trace.overhead_frac" => overhead,
            "host.spin_ms" => spin_before_ms,
            other => unreachable!("catalog metric {other} has no value"),
        }
    };
    Pass {
        workload,
        attempted: jobs.attempted,
        failed: failures.len(),
        failures,
        metrics: PER_LAYER
            .iter()
            .map(|m| Metric {
                name: m.name,
                value: value_of(m.name),
                unit: m.unit,
                better: m.better,
            })
            .collect(),
        spin_before_ms,
        spin_after_ms: host::spin_ms(),
    }
}

/// Where passes write by default: `out/` beside the package manifest,
/// which is inside the checkout wherever the command is run from.
pub fn default_out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}
