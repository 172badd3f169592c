//! The five closed-loop workloads: set-up, one verified job at a time,
//! tear-down. One client; the next job starts only after the previous
//! one's terminal event is parsed.

use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use synapse_campaign::{
    expand_range, run_campaign_on, simulate_point, CampaignSpec, CancelToken, PointEvent,
    PointResult, ResultCache, RunConfig,
};
use synapse_cluster::{ClusterConfig, Coordinator};
use synapse_server::{Client, Server, ServerConfig, ServerHandle};

use crate::catalog::Workload;
use crate::specgen::{spec_json, Grid};
use crate::verify::{Source, StreamCheck, Terminal};

/// Job indices of untimed warm-up jobs start here, far above any timed
/// job's index, so a warm-up never shares a seed with a timed job.
const WARMUP_BASE: u64 = 1 << 40;

/// Timed jobs a `serve_cold` server takes before it is replaced: on one
/// long-lived server, job latency drifts up with the cached-result
/// count, which made the median bimodal.
pub const COLD_ROUND_JOBS: usize = 20;

/// Untimed jobs at the start of every `serve_cold` round.
const COLD_ROUND_WARMUPS: u64 = 2;

/// Sweep threads of a `sweep_long` job.
pub const SWEEP_WORKERS: usize = 2;

/// Process user+system CPU seconds so far, read with Synapse's own
/// rusage wrapper (Synapse profiling Synapse).
pub fn cpu_seconds() -> f64 {
    synapse_proc::rusage_self().map_or(0.0, |ru| ru.cpu_time().as_secs_f64())
}

/// An in-process `synapse serve` on an ephemeral port.
pub struct ServerProc {
    /// `host:port` the server listens on.
    pub addr: String,
    handle: ServerHandle,
    join: Option<JoinHandle<()>>,
}

impl ServerProc {
    /// Bind and run a server with one queue worker, one sweep thread
    /// per job and one handler thread, so no workload keeps more than
    /// the sandbox's two cores busy.
    fn start(cluster: Option<Arc<Coordinator>>) -> Result<ServerProc, String> {
        let mut server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            queue_workers: 1,
            job_workers: 1,
            handler_threads: 1,
            ..Default::default()
        })
        .map_err(|e| format!("bind: {e}"))?;
        if let Some(coordinator) = cluster {
            server = server.with_cluster(coordinator);
        }
        let addr = server
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?
            .to_string();
        let handle = server.handle().map_err(|e| format!("handle: {e}"))?;
        let join = std::thread::spawn(move || {
            if let Err(e) = server.run() {
                eprintln!("benchmark server stopped: {e}");
            }
        });
        Ok(ServerProc {
            addr,
            handle,
            join: Some(join),
        })
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// `GET path` with the body returned byte for byte (the typed client
/// parses bodies, and the report check compares bytes).
fn http_get_raw(addr: &str, path: &str) -> Result<String, String> {
    let mut stream = std::net::TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("GET {path}: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("GET {path}: {e}"))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("GET {path}: no header end"))?;
    if !head.starts_with("HTTP/1.1 200") {
        return Err(format!("GET {path}: {}", head.lines().next().unwrap_or("")));
    }
    Ok(body.to_string())
}

/// When the client-visible moments of one job happened.
#[derive(Debug, Clone, Copy)]
pub struct JobTimes {
    /// The job was sent (or, in-process, started).
    pub start: Instant,
    /// The submit ack was parsed (served workloads).
    pub ack: Option<Instant>,
    /// The first point reached the consumer.
    pub first_point: Instant,
    /// The terminal event was parsed (in-process: the report rendered).
    pub end: Instant,
    /// Process CPU seconds spent between `start` and `end`.
    pub cpu_s: f64,
    /// Bytes of the job's `point` event lines, newlines included.
    pub point_bytes: usize,
    /// Points the job's terminal counters report as cache hits.
    pub cache_hits: usize,
}

impl JobTimes {
    /// Wall seconds from start to end.
    pub fn wall_s(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }

    /// Seconds from start to the first point.
    pub fn first_point_s(&self) -> f64 {
        self.first_point.duration_since(self.start).as_secs_f64()
    }
}

/// What one verified in-process sweep produced.
struct Swept {
    first_point: Instant,
    report: String,
    cache_hits: usize,
    /// Mean absolute `error_pct` over the report's points.
    mean_abs_error_pct: f64,
}

/// One verified in-process sweep of `spec_text` through `cache`.
fn sweep(
    spec_text: &str,
    workers: usize,
    cache: &ResultCache,
    source: Source,
) -> Result<Swept, String> {
    let spec = CampaignSpec::from_json(spec_text).map_err(|e| format!("spec: {e}"))?;
    let check = Mutex::new(StreamCheck::new(spec.point_count()));
    let first: OnceLock<Instant> = OnceLock::new();
    let observer = |event: PointEvent| {
        if let PointEvent::PointDone { result, .. } = event {
            first.get_or_init(Instant::now);
            check.lock().expect("check lock").point(result.point.index);
        }
    };
    let outcome = run_campaign_on(
        &spec,
        &RunConfig { workers },
        cache,
        &observer,
        &CancelToken::new(),
    )
    .map_err(|e| format!("sweep: {e}"))?;
    let report = outcome
        .report
        .to_json()
        .map_err(|e| format!("report: {e}"))?;
    let terminal = Terminal {
        completed: true,
        points: outcome.stats.points,
        simulated: outcome.stats.simulated,
        cache_hits: outcome.stats.cache_hits,
    };
    check
        .into_inner()
        .expect("check lock")
        .finish(terminal, source)?;
    let rows = &outcome.report.results;
    let abs_error: f64 = rows.iter().map(|row| row.error_pct.abs()).sum();
    Ok(Swept {
        first_point: first.into_inner().ok_or("no point landed")?,
        report,
        cache_hits: outcome.stats.cache_hits,
        mean_abs_error_pct: abs_error / rows.len().max(1) as f64,
    })
}

/// An in-memory cache holding every result of `spec_text` (what a
/// pre-warmed server holds), for the traced pass's replay.
pub fn filled_cache(spec_text: &str) -> Result<ResultCache, String> {
    let cache = ResultCache::in_memory();
    sweep(spec_text, 1, &cache, Source::Simulated)?;
    Ok(cache)
}

/// One real result of the short grid, the unit the cache-fill probe
/// stores 100k times.
pub fn one_result(seed: u64) -> Result<PointResult, String> {
    let spec = CampaignSpec::from_json(&spec_json(Grid::Short, seed, 0))
        .map_err(|e| format!("spec: {e}"))?;
    let point = expand_range(&spec, 0, 1).pop().ok_or("empty grid")?;
    simulate_point(&point).map_err(|e| format!("simulate: {e}"))
}

/// A workload, set up and ready for timed jobs.
pub struct Env {
    workload: Workload,
    seed: u64,
    /// In-process report of job 0.
    reference_report: String,
    /// Mean absolute `error_pct` over job 0's points.
    pub sim_error_pct: f64,
    /// The server jobs are submitted to (the coordinator on
    /// `cluster_warm`); declared before `workers` so it stops first.
    front: Option<ServerProc>,
    /// The cluster's worker servers, held so they outlive the jobs.
    workers: Vec<ServerProc>,
    /// Scratch directory of `disk_rerun` (inside the checkout).
    work_dir: PathBuf,
    warmups: u64,
    iterations: u64,
    /// Jobs submitted to `front` so far, untimed ones included (the
    /// `/metrics` counters are divided by it).
    pub served_jobs: u64,
}

impl Env {
    /// Everything before the first timed job: the reference report,
    /// servers up, caches pre-warmed, directories created.
    pub fn setup(workload: Workload, seed: u64, work_dir: &Path) -> Result<Env, String> {
        let spec0 = spec_json(workload.grid(), seed, 0);
        // The oracle: a plain single-thread in-process sweep of job 0.
        // Every other path's report is compared with its bytes.
        let reference = sweep(&spec0, 1, &ResultCache::in_memory(), Source::Simulated)?;
        let mut env = Env {
            workload,
            seed,
            reference_report: reference.report,
            sim_error_pct: reference.mean_abs_error_pct,
            front: None,
            workers: Vec::new(),
            work_dir: work_dir.to_path_buf(),
            warmups: 0,
            iterations: 0,
            served_jobs: 0,
        };
        match workload {
            Workload::ServeCold => env.rotate()?,
            Workload::ServeWarm => {
                env.front = Some(ServerProc::start(None)?);
                env.served_job(&spec0, Source::Simulated, false, false)?;
            }
            Workload::ClusterWarm => {
                let coordinator = Arc::new(Coordinator::new(ClusterConfig::default()));
                for _ in 0..2 {
                    // Pre-warm on the full spec: every lease is a cache
                    // hit no matter which worker claims it.
                    env.front = Some(ServerProc::start(None)?);
                    env.served_job(&spec0, Source::Simulated, false, false)?;
                    let worker = env.front.take().expect("worker just started");
                    coordinator.registry().register(&worker.addr);
                    env.workers.push(worker);
                }
                env.front = Some(ServerProc::start(Some(coordinator))?);
                // The first distributed job spends the probe leases
                // that measure the workers; timed jobs plan from rates.
                env.served_job(&spec0, Source::Cached, true, false)?;
            }
            Workload::SweepLong => {}
            Workload::DiskRerun => {
                std::fs::create_dir_all(&env.work_dir).map_err(|e| format!("work dir: {e}"))?;
            }
        }
        Ok(env)
    }

    /// Replace the `serve_cold` server with a fresh one and run the
    /// round's untimed jobs on it.
    pub fn rotate(&mut self) -> Result<(), String> {
        self.front = None;
        self.front = Some(ServerProc::start(None)?);
        for _ in 0..COLD_ROUND_WARMUPS {
            let spec = spec_json(self.workload.grid(), self.seed, WARMUP_BASE + self.warmups);
            self.warmups += 1;
            self.served_job(&spec, Source::Simulated, false, false)?;
        }
        Ok(())
    }

    /// The address jobs are submitted to, on served workloads.
    pub fn front_addr(&self) -> Option<&str> {
        self.front.as_ref().map(|server| server.addr.as_str())
    }

    /// The spec text of timed job `job`: warm workloads resubmit job 0.
    pub fn spec_for(&self, job: u64) -> String {
        let job = match self.workload {
            Workload::ServeWarm | Workload::ClusterWarm => 0,
            _ => job,
        };
        spec_json(self.workload.grid(), self.seed, job)
    }

    /// Run and verify timed job `job`. Job 0's report is also compared
    /// with the in-process reference, byte for byte.
    pub fn run_job(&mut self, job: u64) -> Result<JobTimes, String> {
        let spec = self.spec_for(job);
        let check_report = job == 0;
        match self.workload {
            Workload::ServeCold | Workload::ServeWarm | Workload::ClusterWarm => {
                let distributed = self.workload == Workload::ClusterWarm;
                self.served_job(&spec, self.workload.source(), distributed, check_report)
            }
            Workload::SweepLong => self.sweep_job(&spec, check_report),
            Workload::DiskRerun => self.disk_job(&spec, check_report),
        }
    }

    fn check_report(&self, what: &str, report: &str) -> Result<(), String> {
        if report == self.reference_report {
            Ok(())
        } else {
            Err(format!(
                "{what} report differs from the in-process report of the same spec"
            ))
        }
    }

    fn served_job(
        &mut self,
        spec: &str,
        source: Source,
        distributed: bool,
        check_report: bool,
    ) -> Result<JobTimes, String> {
        self.served_jobs += 1;
        let front = self.front.as_ref().ok_or("no server running")?;
        let client = Client::new(front.addr.clone());
        let mut check = StreamCheck::new(self.workload.grid().points());
        let (mut ack_at, mut first_at, mut point_bytes) = (None, None, 0);
        let cpu_before = cpu_seconds();
        let start = Instant::now();
        let on_event = |line: &str| {
            if ack_at.is_none() {
                ack_at = Some(Instant::now()); // the first line is the ack
            } else if check.line(line) {
                first_at.get_or_insert_with(Instant::now);
                point_bytes += line.len() + 1;
            }
            true
        };
        let (ack, terminal) = if distributed {
            client.submit_watch_distributed(spec, on_event)
        } else {
            client.submit_watch(spec, on_event)
        }
        .map_err(|e| format!("submit: {e}"))?;
        let end = Instant::now();
        let cpu_s = cpu_seconds() - cpu_before;
        let terminal = Terminal::from_event(&terminal);
        check.finish(terminal, source)?;
        if check_report {
            let id = ack["id"].as_str().ok_or("ack carries no id")?;
            let report = http_get_raw(&front.addr, &format!("/campaigns/{id}/report"))?;
            self.check_report("served", &report)?;
        }
        Ok(JobTimes {
            start,
            ack: ack_at,
            first_point: first_at.ok_or("no point event arrived")?,
            end,
            cpu_s,
            point_bytes,
            cache_hits: terminal.cache_hits,
        })
    }

    fn sweep_job(&self, spec: &str, check_report: bool) -> Result<JobTimes, String> {
        let cpu_before = cpu_seconds();
        let start = Instant::now();
        let cache = ResultCache::in_memory();
        let swept = sweep(spec, SWEEP_WORKERS, &cache, Source::Simulated)?;
        let end = Instant::now();
        let cpu_s = cpu_seconds() - cpu_before;
        if check_report {
            self.check_report("two-worker", &swept.report)?;
        }
        Ok(JobTimes {
            start,
            ack: None,
            first_point: swept.first_point,
            end,
            cpu_s,
            point_bytes: 0,
            cache_hits: swept.cache_hits,
        })
    }

    /// One `disk_rerun` iteration: a cold sweep into a fresh cache
    /// directory, then a second open and sweep of the same spec from
    /// it. The directory is removed outside the timed interval.
    fn disk_job(&mut self, spec: &str, check_report: bool) -> Result<JobTimes, String> {
        let dir = self.work_dir.join(format!("iter-{}", self.iterations));
        self.iterations += 1;
        let cpu_before = cpu_seconds();
        let start = Instant::now();
        let half = |source: Source| -> Result<Swept, String> {
            let cache =
                ResultCache::open_with_workers(&dir, 1).map_err(|e| format!("open: {e}"))?;
            sweep(spec, 1, &cache, source)
        };
        let halves = half(Source::Simulated).and_then(|cold| Ok((cold, half(Source::Cached)?)));
        let end = Instant::now();
        let cpu_s = cpu_seconds() - cpu_before;
        let _ = std::fs::remove_dir_all(&dir);
        let (cold, warm) = halves?;
        if cold.report != warm.report {
            return Err("rerun from disk renders a different report".into());
        }
        if check_report {
            self.check_report("disk-backed", &cold.report)?;
        }
        Ok(JobTimes {
            start,
            ack: None,
            first_point: cold.first_point,
            end,
            cpu_s,
            point_bytes: 0,
            cache_hits: cold.cache_hits + warm.cache_hits,
        })
    }
}
