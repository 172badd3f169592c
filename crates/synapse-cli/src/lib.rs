#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Implementation of the `synapse` command-line tool.
//!
//! The paper ships "a set of command line tools which are wrappers
//! around certain configurations and combinations of the profile and
//! emulate methods" (§4). This crate provides the same:
//!
//! ```text
//! synapse profile  "<command>" [--tags k=v,...] [--rate HZ] [--store DIR]
//! synapse emulate  "<command>" [--tags k=v,...] [--kernel asm|c|spin]
//!                  [--threads N] [--write-block BYTES] [--store DIR]
//! synapse stats    "<command>" [--tags k=v,...] [--store DIR]
//! synapse inspect  "<command>" [--tags k=v,...] [--store DIR]
//! synapse campaign run  <spec.toml|json> [--cache DIR] [--workers N]
//!                  [--json PATH] [--csv PATH] [--summary-json PATH] [--timings]
//!                  [--record PATH]
//! synapse campaign plan <spec.toml|json>
//! synapse campaign replay <trace.jsonl> [--strict|--lenient] [--report PATH]
//! synapse campaign trace-summary <trace.jsonl>
//! synapse campaign cache stats|compact [--cache DIR]
//! synapse serve    [--addr HOST:PORT] [--cache DIR] [--queue-workers N] [--workers N]
//!                  [--max-connections N] [--reactor-threads N]
//! synapse cluster start [--addr HOST:PORT] [--cache DIR] [--worker ADDR]...
//! synapse cluster add-worker <ADDR> [--server HOST:PORT]
//! synapse cluster status [--server HOST:PORT]
//! synapse campaign submit <spec.toml|json> [--server HOST:PORT] [--watch] [--cluster]
//!                  [--record]
//! synapse campaign watch  <job-id> [--server HOST:PORT]
//! synapse campaign status [job-id] [--server HOST:PORT]
//! synapse campaign cancel <job-id> [--server HOST:PORT]
//! synapse table1
//! synapse machines
//! ```
//!
//! The `campaign` subcommand is the scenario-sweep frontend: a
//! declarative spec expands into the cartesian product of its axes and
//! runs through [`synapse_campaign`] with memoized results. `serve`
//! turns the same engine into a long-running daemon
//! ([`synapse_server`]); the `submit`/`watch`/`status`/`cancel`
//! actions are its HTTP client.

use std::path::PathBuf;

use synapse::config::ProfilerConfig;
use synapse::emulator::{EmulationPlan, KernelChoice};
use synapse_model::{metrics, Tags};
use synapse_store::{FileStore, ProfileStore};

/// Parsed command-line invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Invocation {
    /// Profile a command.
    Profile {
        /// The command to run and observe.
        command: String,
        /// Tags for the profile key.
        tags: Tags,
        /// Sampling rate in Hz.
        rate: f64,
        /// Profile store directory.
        store: PathBuf,
    },
    /// Emulate a profiled command.
    Emulate {
        /// The command whose profile to replay.
        command: String,
        /// Tags to match.
        tags: Tags,
        /// Kernel name (asm | c | spin).
        kernel: String,
        /// Worker width (threads or processes, depending on mode).
        threads: u32,
        /// Parallel mode (openmp | mpi).
        mode: String,
        /// Write block size in bytes.
        write_block: u64,
        /// Profile store directory.
        store: PathBuf,
    },
    /// Internal: consume a cycle budget as an MPI-analogue worker
    /// process (spawned by the emulator, not by users).
    Worker {
        /// Kernel name.
        kernel: String,
        /// Cycles to consume.
        cycles: u64,
    },
    /// Print statistics over stored profiles of a command.
    Stats {
        /// Command to look up.
        command: String,
        /// Tags to match.
        tags: Tags,
        /// Profile store directory.
        store: PathBuf,
    },
    /// Dump the representative profile of a command.
    Inspect {
        /// Command to look up.
        command: String,
        /// Tags to match.
        tags: Tags,
        /// Profile store directory.
        store: PathBuf,
    },
    /// Run a scenario-sweep campaign from a declarative spec.
    CampaignRun {
        /// Path to the TOML/JSON campaign spec.
        spec: PathBuf,
        /// Result-cache directory (memoization across runs).
        cache: PathBuf,
        /// Worker threads (0 = auto).
        workers: usize,
        /// Optional JSON report output path.
        json_out: Option<PathBuf>,
        /// Optional CSV report output path.
        csv_out: Option<PathBuf>,
        /// Optional machine-readable run-summary output path (cache
        /// hit rate, throughput) for scripts and CI.
        summary_json: Option<PathBuf>,
        /// Print a per-stage wall-time and per-point latency
        /// breakdown after the run summary.
        timings: bool,
        /// Optional flight-recorder trace output path (versioned
        /// `.jsonl` causal event stream; see `docs/TRACE.md`).
        record: Option<PathBuf>,
    },
    /// Show what a campaign spec expands into without running it.
    CampaignPlan {
        /// Path to the TOML/JSON campaign spec.
        spec: PathBuf,
    },
    /// Replay a recorded trace through the observer seam without
    /// simulating, validating the causal stream.
    CampaignReplay {
        /// Path to a recorded `.jsonl` trace.
        trace: PathBuf,
        /// Collect divergences into an audit summary instead of
        /// failing on the first one (`--lenient`).
        lenient: bool,
        /// Optional reconstructed-report output path (`.csv` writes
        /// CSV, anything else the pretty JSON report).
        report: Option<PathBuf>,
    },
    /// Print a recorded trace's provenance, per-stage walls, and
    /// per-worker lease timelines.
    CampaignTraceSummary {
        /// Path to a recorded `.jsonl` trace.
        trace: PathBuf,
    },
    /// Run the long-lived campaign server (`synapse serve`), or — with
    /// a coordinator — a cluster coordinator (`synapse cluster start`):
    /// the same serve process, fanning `--cluster` submissions out over
    /// registered workers.
    Serve {
        /// Bind address (`host:port`).
        addr: String,
        /// Result-cache directory shared by every job (and by
        /// locally-run leases).
        cache: PathBuf,
        /// Concurrent jobs (queue workers).
        queue_workers: usize,
        /// Worker threads per job's sweep (0 = auto).
        workers: usize,
        /// Concurrent-connection cap (0 = unlimited).
        max_connections: usize,
        /// Handler-pool threads behind the epoll reactor (0 = default).
        reactor_threads: usize,
        /// `Some` runs a coordinator, with these worker serve addresses
        /// (`--worker`) registered at startup.
        coordinator: Option<Vec<String>>,
    },
    /// Register a worker with a running coordinator.
    ClusterAddWorker {
        /// The worker's serve address (`host:port`).
        worker: String,
        /// Coordinator address.
        server: String,
    },
    /// Print a coordinator's worker-registry status document.
    ClusterStatus {
        /// Coordinator address.
        server: String,
    },
    /// Submit a spec to a running server, optionally streaming events.
    CampaignSubmit {
        /// Path to the TOML/JSON campaign spec.
        spec: PathBuf,
        /// Server address (`host:port`).
        server: String,
        /// Follow the job's NDJSON event stream until it ends.
        watch: bool,
        /// Fan out across the coordinator's registered workers.
        cluster: bool,
        /// Ask the server to flight-record the job (`?record=1`);
        /// fetch the sealed trace with `GET /campaigns/<id>/trace`.
        record: bool,
    },
    /// Stream a submitted job's NDJSON events until it ends.
    CampaignWatch {
        /// Job id (`j1`, ...).
        id: String,
        /// Server address.
        server: String,
        /// Follow the aggregate ring (`?aggregates=1`): lifecycle +
        /// snapshot deltas only, no per-point lines.
        aggregates: bool,
    },
    /// Print a job's live aggregate view (answerable mid-sweep).
    CampaignAggregates {
        /// Job id.
        id: String,
        /// Server address.
        server: String,
        /// Restrict the slice table to one report axis.
        axis: Option<String>,
        /// Restrict per-slice stats to one metric.
        metric: Option<String>,
        /// Emit the raw JSON document instead of the table.
        json: bool,
    },
    /// Print a job's status document (or all jobs without an id).
    CampaignStatus {
        /// Job id; `None` lists every job.
        id: Option<String>,
        /// Server address.
        server: String,
    },
    /// Request cooperative cancellation of a submitted job.
    CampaignCancel {
        /// Job id.
        id: String,
        /// Server address.
        server: String,
    },
    /// Print shape and size of a campaign result cache.
    CampaignCacheStats {
        /// Result-cache directory.
        cache: PathBuf,
    },
    /// Merge small shard files of a campaign result cache.
    CampaignCacheCompact {
        /// Result-cache directory.
        cache: PathBuf,
    },
    /// Print the Table 1 metric registry.
    Table1,
    /// List the built-in machine models.
    Machines,
    /// Print usage.
    Help,
}

/// Default profile store location.
pub fn default_store() -> PathBuf {
    std::env::temp_dir().join("synapse-profiles")
}

/// Default campaign result-cache location.
pub fn default_campaign_cache() -> PathBuf {
    std::env::temp_dir().join("synapse-campaign-cache")
}

/// Default `synapse serve` address client subcommands talk to.
pub const DEFAULT_SERVER_ADDR: &str = "127.0.0.1:8787";

/// Parse the shared `serve`/`cluster start` flag set; `cluster`
/// additionally accepts repeatable `--worker ADDR` registrations.
fn parse_serve_like_args(args: &[String], cluster: bool) -> Result<Invocation, String> {
    let mut addr = DEFAULT_SERVER_ADDR.to_string();
    let mut cache = default_campaign_cache();
    let mut queue_workers = 2usize;
    let mut workers = 0usize;
    let mut max_connections = synapse_server::DEFAULT_MAX_CONNECTIONS;
    let mut reactor_threads = 0usize;
    let mut worker_addrs: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("missing value after {arg}"))
        };
        match arg.as_str() {
            "--addr" => addr = value(&mut i)?,
            "--cache" => cache = PathBuf::from(value(&mut i)?),
            "--queue-workers" => {
                queue_workers = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--queue-workers: {e}"))?
            }
            "--workers" => {
                workers = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--max-connections" => {
                max_connections = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--max-connections: {e}"))?
            }
            "--reactor-threads" => {
                reactor_threads = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--reactor-threads: {e}"))?
            }
            "--worker" if cluster => worker_addrs.push(value(&mut i)?),
            other => {
                return Err(format!(
                    "unknown {} argument {other:?}",
                    if cluster { "cluster start" } else { "serve" }
                ))
            }
        }
        i += 1;
    }
    if queue_workers == 0 {
        return Err("--queue-workers must be at least 1".into());
    }
    Ok(Invocation::Serve {
        addr,
        cache,
        queue_workers,
        workers,
        max_connections,
        reactor_threads,
        coordinator: cluster.then_some(worker_addrs),
    })
}

/// Parse the `cluster <action>` argument forms.
fn parse_cluster_args(args: &[String]) -> Result<Invocation, String> {
    let action = args
        .first()
        .ok_or("cluster requires an action (start | add-worker | status)")?;
    let rest = &args[1..];
    match action.as_str() {
        "start" => parse_serve_like_args(rest, true),
        "add-worker" | "status" => {
            let mut server = DEFAULT_SERVER_ADDR.to_string();
            let mut positional = None;
            let mut i = 0;
            while i < rest.len() {
                let arg = &rest[i];
                match arg.as_str() {
                    "--server" => {
                        i += 1;
                        server = rest
                            .get(i)
                            .cloned()
                            .ok_or_else(|| format!("missing value after {arg}"))?;
                    }
                    other if other.starts_with("--") => {
                        return Err(format!("unknown cluster {action} flag {other}"))
                    }
                    other => {
                        if positional.is_some() {
                            return Err(format!("unexpected positional argument {other:?}"));
                        }
                        positional = Some(other.to_string());
                    }
                }
                i += 1;
            }
            match action.as_str() {
                "add-worker" => Ok(Invocation::ClusterAddWorker {
                    worker: positional.ok_or("cluster add-worker requires a worker address")?,
                    server,
                }),
                _ => {
                    if positional.is_some() {
                        return Err("cluster status takes no positional argument".into());
                    }
                    Ok(Invocation::ClusterStatus { server })
                }
            }
        }
        other => Err(format!(
            "unknown cluster action {other} (start | add-worker | status)"
        )),
    }
}

/// Parse the `campaign submit|watch|status|cancel|aggregates` client
/// forms.
fn parse_campaign_client_args(action: &str, args: &[String]) -> Result<Invocation, String> {
    let mut server = DEFAULT_SERVER_ADDR.to_string();
    let mut watch = false;
    let mut cluster = false;
    let mut record = false;
    let mut aggregates = false;
    let mut axis = None;
    let mut metric = None;
    let mut json = false;
    let mut positional = None;
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        match arg.as_str() {
            "--server" => {
                i += 1;
                server = args
                    .get(i)
                    .cloned()
                    .ok_or_else(|| format!("missing value after {arg}"))?;
            }
            "--watch" if action == "submit" => watch = true,
            "--cluster" if action == "submit" => cluster = true,
            "--record" if action == "submit" => record = true,
            "--aggregates" if action == "watch" => aggregates = true,
            "--axis" if action == "aggregates" => {
                i += 1;
                axis = Some(
                    args.get(i)
                        .cloned()
                        .ok_or_else(|| format!("missing value after {arg}"))?,
                );
            }
            "--metric" if action == "aggregates" => {
                i += 1;
                metric = Some(
                    args.get(i)
                        .cloned()
                        .ok_or_else(|| format!("missing value after {arg}"))?,
                );
            }
            "--json" if action == "aggregates" => json = true,
            other if other.starts_with("--") => {
                return Err(format!("unknown campaign {action} flag {other}"))
            }
            other => {
                if positional.is_some() {
                    return Err(format!("unexpected positional argument {other:?}"));
                }
                positional = Some(other.to_string());
            }
        }
        i += 1;
    }
    match action {
        "submit" => Ok(Invocation::CampaignSubmit {
            spec: PathBuf::from(positional.ok_or("campaign submit requires a spec file")?),
            server,
            watch,
            cluster,
            record,
        }),
        "watch" => Ok(Invocation::CampaignWatch {
            id: positional.ok_or("campaign watch requires a job id")?,
            server,
            aggregates,
        }),
        "aggregates" => Ok(Invocation::CampaignAggregates {
            id: positional.ok_or("campaign aggregates requires a job id")?,
            server,
            axis,
            metric,
            json,
        }),
        "status" => Ok(Invocation::CampaignStatus {
            id: positional,
            server,
        }),
        "cancel" => Ok(Invocation::CampaignCancel {
            id: positional.ok_or("campaign cancel requires a job id")?,
            server,
        }),
        other => Err(format!("unknown campaign client action {other}")),
    }
}

/// Parse the `campaign <action> <spec>` argument form.
fn parse_campaign_args(args: &[String]) -> Result<Invocation, String> {
    let action = args.first().ok_or(
        "campaign requires an action (run | plan | replay | trace-summary | submit | watch | status | cancel | aggregates | cache)",
    )?;
    if action == "cache" {
        return parse_campaign_cache_args(&args[1..]);
    }
    if ["replay", "trace-summary"].contains(&action.as_str()) {
        return parse_campaign_trace_args(action, &args[1..]);
    }
    if ["submit", "watch", "status", "cancel", "aggregates"].contains(&action.as_str()) {
        return parse_campaign_client_args(action, &args[1..]);
    }
    let mut spec = None;
    let mut cache = default_campaign_cache();
    let mut workers = 0usize;
    let mut json_out = None;
    let mut csv_out = None;
    let mut summary_json = None;
    let mut timings = false;
    let mut record = None;
    let mut i = 1;
    while i < args.len() {
        let arg = &args[i];
        let value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("missing value after {arg}"))
        };
        match arg.as_str() {
            "--cache" => cache = PathBuf::from(value(&mut i)?),
            "--workers" => {
                workers = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--json" => json_out = Some(PathBuf::from(value(&mut i)?)),
            "--csv" => csv_out = Some(PathBuf::from(value(&mut i)?)),
            "--summary-json" => summary_json = Some(PathBuf::from(value(&mut i)?)),
            "--timings" => timings = true,
            "--record" => record = Some(PathBuf::from(value(&mut i)?)),
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => {
                if spec.is_some() {
                    return Err(format!("unexpected positional argument {other:?}"));
                }
                spec = Some(PathBuf::from(other));
            }
        }
        i += 1;
    }
    let spec = spec.ok_or("campaign requires a spec file argument")?;
    match action.as_str() {
        "run" => Ok(Invocation::CampaignRun {
            spec,
            cache,
            workers,
            json_out,
            csv_out,
            summary_json,
            timings,
            record,
        }),
        "plan" => Ok(Invocation::CampaignPlan { spec }),
        other => Err(format!(
            "unknown campaign action {other} (run | plan | replay | trace-summary | submit | watch | status | cancel | aggregates | cache)"
        )),
    }
}

/// Parse the `campaign replay|trace-summary <trace.jsonl>` forms.
fn parse_campaign_trace_args(action: &str, args: &[String]) -> Result<Invocation, String> {
    let mut trace = None;
    let mut lenient = false;
    let mut report = None;
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        match arg.as_str() {
            "--strict" if action == "replay" => lenient = false,
            "--lenient" if action == "replay" => lenient = true,
            "--report" if action == "replay" => {
                i += 1;
                report = Some(PathBuf::from(
                    args.get(i)
                        .ok_or_else(|| format!("missing value after {arg}"))?,
                ));
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown campaign {action} flag {other}"))
            }
            other => {
                if trace.is_some() {
                    return Err(format!("unexpected positional argument {other:?}"));
                }
                trace = Some(PathBuf::from(other));
            }
        }
        i += 1;
    }
    let trace = trace.ok_or_else(|| format!("campaign {action} requires a trace file"))?;
    match action {
        "replay" => Ok(Invocation::CampaignReplay {
            trace,
            lenient,
            report,
        }),
        "trace-summary" => Ok(Invocation::CampaignTraceSummary { trace }),
        other => Err(format!("unknown campaign trace action {other}")),
    }
}

/// Parse the `campaign cache <action>` argument form.
fn parse_campaign_cache_args(args: &[String]) -> Result<Invocation, String> {
    let action = args
        .first()
        .ok_or("campaign cache requires an action (stats | compact)")?;
    let mut cache = default_campaign_cache();
    let mut i = 1;
    while i < args.len() {
        let arg = &args[i];
        match arg.as_str() {
            "--cache" => {
                i += 1;
                cache = PathBuf::from(
                    args.get(i)
                        .ok_or_else(|| format!("missing value after {arg}"))?,
                );
            }
            other => return Err(format!("unexpected campaign cache argument {other:?}")),
        }
        i += 1;
    }
    match action.as_str() {
        "stats" => Ok(Invocation::CampaignCacheStats { cache }),
        "compact" => Ok(Invocation::CampaignCacheCompact { cache }),
        other => Err(format!(
            "unknown campaign cache action {other} (stats | compact)"
        )),
    }
}

/// Parse CLI arguments (without the binary name).
pub fn parse_args(args: &[String]) -> Result<Invocation, String> {
    let Some(sub) = args.first() else {
        return Ok(Invocation::Help);
    };
    if sub == "campaign" {
        return parse_campaign_args(&args[1..]);
    }
    if sub == "serve" {
        return parse_serve_like_args(&args[1..], false);
    }
    if sub == "cluster" {
        return parse_cluster_args(&args[1..]);
    }
    let mut command = None;
    let mut tags = Tags::new();
    let mut rate = 10.0;
    let mut store = default_store();
    let mut kernel = "asm".to_string();
    let mut threads = 1u32;
    let mut mode = "openmp".to_string();
    let mut write_block = 1u64 << 20;
    let mut cycles = 0u64;

    let mut i = 1;
    while i < args.len() {
        let arg = &args[i];
        let value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("missing value after {arg}"))
        };
        match arg.as_str() {
            "--tags" => tags = Tags::parse(&value(&mut i)?),
            "--rate" => rate = value(&mut i)?.parse().map_err(|e| format!("--rate: {e}"))?,
            "--store" => store = PathBuf::from(value(&mut i)?),
            "--kernel" => kernel = value(&mut i)?,
            "--threads" => {
                threads = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--mode" => mode = value(&mut i)?,
            "--cycles" => {
                cycles = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--cycles: {e}"))?
            }
            "--write-block" => {
                write_block = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--write-block: {e}"))?
            }
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => {
                if command.is_some() {
                    return Err(format!(
                        "unexpected positional argument {other:?} (quote the command)"
                    ));
                }
                command = Some(other.to_string());
            }
        }
        i += 1;
    }

    let need_command = |what: &str| {
        command
            .clone()
            .ok_or_else(|| format!("{what} requires a command argument"))
    };
    match sub.as_str() {
        "profile" => Ok(Invocation::Profile {
            command: need_command("profile")?,
            tags,
            rate,
            store,
        }),
        "emulate" => Ok(Invocation::Emulate {
            command: need_command("emulate")?,
            tags,
            kernel,
            threads,
            mode,
            write_block,
            store,
        }),
        "worker" => Ok(Invocation::Worker { kernel, cycles }),
        "stats" => Ok(Invocation::Stats {
            command: need_command("stats")?,
            tags,
            store,
        }),
        "inspect" => Ok(Invocation::Inspect {
            command: need_command("inspect")?,
            tags,
            store,
        }),
        "table1" => Ok(Invocation::Table1),
        "machines" => Ok(Invocation::Machines),
        "help" | "--help" | "-h" => Ok(Invocation::Help),
        other => Err(format!("unknown subcommand {other}")),
    }
}

/// Resolve a kernel name to a [`KernelChoice`].
pub fn kernel_by_name(name: &str) -> Result<KernelChoice, String> {
    match name.to_ascii_lowercase().as_str() {
        "asm" => Ok(KernelChoice::Asm),
        "c" => Ok(KernelChoice::C),
        "spin" => Ok(KernelChoice::Spin),
        other => Err(format!("unknown kernel {other} (asm | c | spin)")),
    }
}

/// Usage text.
pub const USAGE: &str = "\
synapse — synthetic application profiler and emulator

USAGE:
  synapse profile  \"<command>\" [--tags k=v,...] [--rate HZ] [--store DIR]
  synapse emulate  \"<command>\" [--tags k=v,...] [--kernel asm|c|spin]
                   [--threads N] [--mode openmp|mpi] [--write-block BYTES]
                   [--store DIR]
  synapse stats    \"<command>\" [--tags k=v,...] [--store DIR]
  synapse inspect  \"<command>\" [--tags k=v,...] [--store DIR]
  synapse campaign run  <spec.toml|json> [--cache DIR] [--workers N]
                   [--json PATH] [--csv PATH] [--summary-json PATH] [--timings]
                   [--record PATH]
  synapse campaign plan <spec.toml|json>
  synapse campaign replay <trace.jsonl> [--strict|--lenient] [--report PATH]
  synapse campaign trace-summary <trace.jsonl>
  synapse campaign cache stats|compact [--cache DIR]
  synapse serve    [--addr HOST:PORT] [--cache DIR] [--queue-workers N]
                   [--workers N] [--max-connections N] [--reactor-threads N]
  synapse cluster start [--addr HOST:PORT] [--cache DIR] [--worker ADDR]...
                   [--queue-workers N] [--workers N] [--max-connections N]
                   [--reactor-threads N]
  synapse cluster add-worker <ADDR> [--server HOST:PORT]
  synapse cluster status [--server HOST:PORT]
  synapse campaign submit <spec.toml|json> [--server HOST:PORT] [--watch]
                   [--cluster] [--record]
  synapse campaign watch  <job-id> [--server HOST:PORT] [--aggregates]
  synapse campaign status [job-id] [--server HOST:PORT]
  synapse campaign cancel <job-id> [--server HOST:PORT]
  synapse campaign aggregates <job-id> [--server HOST:PORT]
                   [--axis AXIS] [--metric METRIC] [--json]
  synapse table1
  synapse machines

The serve/submit/watch/status/cancel commands form the client/server
mode: `serve` keeps one process (and one warm result cache) alive;
`submit --watch` streams per-point NDJSON events as the sweep runs.
`campaign watch --aggregates` follows the lifecycle + snapshot-delta
stream instead (O(slices), not O(points)), and
`campaign aggregates <id>` prints the live per-(axis, value) stats
table mid-sweep or after.
`cluster start` runs a coordinator; plain `serve` processes are its
workers (registered with `--worker`/`add-worker`), and
`campaign submit --cluster` fans one campaign out across all of them,
merging the streams into one ordered feed and one byte-stable report.

`campaign run --record` flight-records the sweep's causal event
stream as a versioned .jsonl trace (docs/TRACE.md); `campaign replay`
re-drives it without simulating — strict mode errors on the first
divergence (the CI gate), `--lenient` collects them as an audit
summary — and `--report` reconstructs the byte-identical report from
the record alone. `submit --record` asks the server to record; the
sealed trace is served at GET /campaigns/<id>/trace.
";

/// Stream a job's NDJSON events to `out` until it reaches a terminal
/// state, erroring (nonzero exit) when the job failed.
fn stream_job_events(
    client: &synapse_server::Client,
    id: &str,
    aggregates: bool,
    out: &mut impl std::io::Write,
) -> Result<(), String> {
    let mut write_err: Option<std::io::Error> = None;
    let deliver = |line: &str| {
        // Flush per line: watchers are typically piped into
        // `jq`/logs and want events as they land. A dead pipe
        // (`... | head`) aborts the watch instead of silently
        // draining the rest of the sweep.
        if let Err(e) = writeln!(out, "{line}").and_then(|()| out.flush()) {
            write_err = Some(e);
        }
        write_err.is_none()
    };
    let last = if aggregates {
        client.watch_aggregates(id, deliver)
    } else {
        client.watch(id, deliver)
    }
    .map_err(|e| e.to_string())?;
    if let Some(e) = write_err {
        // Truncating a watch stream (`... | head`) is routine, not an
        // error; other write failures still exit nonzero.
        return if e.kind() == std::io::ErrorKind::BrokenPipe {
            Ok(())
        } else {
            Err(e.to_string())
        };
    }
    match last["event"].as_str() {
        Some("failed") => Err(last["error"]
            .as_str()
            .map(|m| format!("campaign {id} failed: {m}"))
            .unwrap_or_else(|| format!("campaign {id} failed"))),
        _ => Ok(()),
    }
}

/// Render a `GET /campaigns/<id>/aggregates` document as the human
/// table `campaign aggregates` prints: a header line with job identity
/// and sweep progress, then one row per (axis, value, metric) slice —
/// overall first — with count, mean and the sketch quantiles.
fn render_aggregates_table(doc: &serde_json::Value) -> String {
    use std::fmt::Write as _;
    let mut text = String::new();
    let _ = writeln!(
        text,
        "{} {:?} {} — {}/{} points aggregated ({} observed)",
        doc["id"].as_str().unwrap_or("?"),
        doc["name"].as_str().unwrap_or("?"),
        doc["status"].as_str().unwrap_or("?"),
        doc["done"].as_u64().unwrap_or(0),
        doc["total"].as_u64().unwrap_or(0),
        doc["points"].as_u64().unwrap_or(0),
    );
    let _ = writeln!(
        text,
        "{:<13} {:<14} {:<10} {:>7} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "AXIS", "VALUE", "METRIC", "N", "MEAN", "P50", "P95", "P99", "MIN", "MAX",
    );
    let mut row = |axis: &str, value: &str, metrics: &serde_json::Value| {
        let Some(metrics) = metrics.as_object() else {
            return;
        };
        for (metric, stats) in metrics {
            if stats["n"].as_u64() == Some(0) {
                continue;
            }
            let _ = write!(
                text,
                "{:<13} {:<14} {:<10} {:>7}",
                axis,
                value,
                metric,
                stats["n"].as_u64().unwrap_or(0),
            );
            for key in ["mean", "p50", "p95", "p99", "min", "max"] {
                let _ = write!(text, " {:>10.4}", stats[key].as_f64().unwrap_or(f64::NAN));
            }
            text.push('\n');
        }
    };
    row("(overall)", "-", &doc["overall"]["metrics"]);
    if let Some(slices) = doc["slices"].as_array() {
        for slice in slices {
            row(
                slice["axis"].as_str().unwrap_or("?"),
                slice["value"].as_str().unwrap_or("?"),
                &slice["metrics"],
            );
        }
    }
    text
}

/// Execute an invocation, writing human-readable output to `out`.
pub fn run(invocation: Invocation, out: &mut impl std::io::Write) -> Result<(), String> {
    match invocation {
        Invocation::Help => {
            write!(out, "{USAGE}").map_err(|e| e.to_string())?;
        }
        Invocation::Table1 => {
            write!(out, "{}", metrics::render_table1()).map_err(|e| e.to_string())?;
        }
        Invocation::Machines => {
            for name in synapse_sim::MACHINE_NAMES {
                let m = synapse_sim::machine_by_name(name).expect("catalog name");
                writeln!(
                    out,
                    "{:<10} {:>2} cores  {:>5.2} GHz nominal  {:>6.1} GiB  default fs: {}",
                    m.name,
                    m.cpu.ncores,
                    m.cpu.nominal_freq_hz / 1e9,
                    m.total_memory as f64 / (1u64 << 30) as f64,
                    m.default_fs.name(),
                )
                .map_err(|e| e.to_string())?;
            }
        }
        Invocation::Profile {
            command,
            tags,
            rate,
            store,
        } => {
            let store = FileStore::open(&store).map_err(|e| e.to_string())?;
            let config = ProfilerConfig::with_rate(rate);
            let outcome = synapse::api::profile(&command, Some(tags), &store, &config)
                .map_err(|e| e.to_string())?;
            let totals = outcome.profile.totals();
            writeln!(
                out,
                "profiled {:?}: Tx={:.3}s exit={} samples={} cycles={} bytes_written={}",
                command,
                outcome.profile.runtime,
                outcome.timed.exit_code,
                outcome.profile.len(),
                totals.cycles,
                totals.bytes_written,
            )
            .map_err(|e| e.to_string())?;
        }
        Invocation::Worker { kernel, cycles } => {
            let run = kernel_by_name(&kernel)?.build().execute_cycles(cycles);
            writeln!(out, "consumed={}", run.consumed_cycles).map_err(|e| e.to_string())?;
        }
        Invocation::Emulate {
            command,
            tags,
            kernel,
            threads,
            mode,
            write_block,
            store,
        } => {
            let store = FileStore::open(&store).map_err(|e| e.to_string())?;
            let mode = match mode.to_ascii_lowercase().as_str() {
                "openmp" | "omp" => synapse_sim::ParallelMode::OpenMp,
                "mpi" | "openmpi" => synapse_sim::ParallelMode::Mpi,
                other => return Err(format!("unknown mode {other} (openmp | mpi)")),
            };
            let plan = EmulationPlan {
                kernel: kernel_by_name(&kernel)?,
                threads,
                mode,
                // MPI-analogue workers re-invoke this very binary.
                worker_binary: std::env::current_exe().ok(),
                io_write_block: write_block,
                ..Default::default()
            };
            let report = synapse::api::emulate(&command, Some(tags), &store, &plan)
                .map_err(|e| e.to_string())?;
            writeln!(
                out,
                "emulated {:?}: Tx={:.3}s samples={} directed_cycles={} consumed_cycles={}",
                command,
                report.tx,
                report.samples,
                report.consumed.directed_cycles,
                report.consumed.cycles,
            )
            .map_err(|e| e.to_string())?;
        }
        Invocation::Serve {
            addr,
            cache,
            queue_workers,
            workers,
            max_connections,
            reactor_threads,
            coordinator,
        } => {
            let config = synapse_server::ServerConfig {
                addr,
                cache_dir: Some(cache.clone()),
                queue_workers,
                job_workers: workers,
                max_connections,
                handler_threads: reactor_threads,
                ..Default::default()
            };
            let mut server = synapse_server::Server::bind(config).map_err(|e| e.to_string())?;
            let (role, detail) = match &coordinator {
                Some(worker_addrs) => {
                    let coordinator = std::sync::Arc::new(synapse_cluster::Coordinator::new(
                        synapse_cluster::ClusterConfig::default(),
                    ));
                    for worker in worker_addrs {
                        coordinator.registry().register(worker);
                    }
                    server = server.with_cluster(coordinator);
                    (
                        "synapse cluster coordinator",
                        format!("{} workers registered", worker_addrs.len()),
                    )
                }
                None => ("synapse serve", format!("{queue_workers} queue workers")),
            };
            let bound = server.local_addr().map_err(|e| e.to_string())?;
            writeln!(
                out,
                "{role} listening on {bound} (cache {}, {detail})",
                cache.display(),
            )
            .map_err(|e| e.to_string())?;
            out.flush().map_err(|e| e.to_string())?;
            server.run().map_err(|e| e.to_string())?;
            writeln!(out, "{role} shut down").map_err(|e| e.to_string())?;
        }
        Invocation::ClusterAddWorker { worker, server } => {
            let client = synapse_server::Client::new(server);
            let doc = client.register_worker(&worker).map_err(|e| e.to_string())?;
            writeln!(
                out,
                "{}",
                serde_json::to_string(&doc).map_err(|e| e.to_string())?
            )
            .map_err(|e| e.to_string())?;
        }
        Invocation::ClusterStatus { server } => {
            let client = synapse_server::Client::new(server);
            let doc = client.cluster_status().map_err(|e| e.to_string())?;
            writeln!(
                out,
                "{}",
                serde_json::to_string(&doc).map_err(|e| e.to_string())?
            )
            .map_err(|e| e.to_string())?;
        }
        Invocation::CampaignSubmit {
            spec,
            server,
            watch,
            cluster,
            record,
        } => {
            let text = std::fs::read_to_string(&spec).map_err(|e| e.to_string())?;
            let client = synapse_server::Client::new(server);
            if record {
                // Recorded submits ack first (the ack carries the
                // trace id); `--watch` then follows the stream on a
                // second connection. Fetch the sealed trace afterwards
                // with `GET /campaigns/<id>/trace`.
                let ack = client
                    .submit_recorded(&text, cluster)
                    .map_err(|e| e.to_string())?;
                writeln!(
                    out,
                    "{}",
                    serde_json::to_string(&ack).map_err(|e| e.to_string())?
                )
                .map_err(|e| e.to_string())?;
                if watch {
                    let id = ack["id"]
                        .as_str()
                        .ok_or("submit ack carries no job id")?
                        .to_string();
                    stream_job_events(&client, &id, false, out)?;
                }
            } else if watch {
                // Submit and stream on ONE connection (`?watch=1`):
                // the ack is the stream's first line, events follow.
                let mut write_err: Option<std::io::Error> = None;
                let deliver = |line: &str| {
                    if let Err(e) = writeln!(out, "{line}").and_then(|()| out.flush()) {
                        write_err = Some(e);
                    }
                    write_err.is_none()
                };
                let watched = if cluster {
                    client.submit_watch_distributed(&text, deliver)
                } else {
                    client.submit_watch(&text, deliver)
                };
                // Check the pipe BEFORE the protocol outcome: a dead
                // stdout (`... | head`) aborts the stream client-side,
                // which surfaces as a protocol error from submit_watch
                // — but truncating a watch is routine, not an error.
                if let Some(e) = write_err {
                    return if e.kind() == std::io::ErrorKind::BrokenPipe {
                        Ok(())
                    } else {
                        Err(e.to_string())
                    };
                }
                let (_ack, summary) = watched.map_err(|e| e.to_string())?;
                if summary["event"].as_str() == Some("failed") {
                    return Err(summary["error"]
                        .as_str()
                        .map(|m| format!("campaign failed: {m}"))
                        .unwrap_or_else(|| "campaign failed".into()));
                }
            } else {
                let reply = if cluster {
                    client
                        .submit_distributed(&text)
                        .map_err(|e| e.to_string())?
                } else {
                    client.submit(&text).map_err(|e| e.to_string())?
                };
                writeln!(
                    out,
                    "{}",
                    serde_json::to_string(&reply).map_err(|e| e.to_string())?
                )
                .map_err(|e| e.to_string())?;
            }
        }
        Invocation::CampaignWatch {
            id,
            server,
            aggregates,
        } => {
            let client = synapse_server::Client::new(server);
            stream_job_events(&client, &id, aggregates, out)?;
        }
        Invocation::CampaignAggregates {
            id,
            server,
            axis,
            metric,
            json,
        } => {
            let client = synapse_server::Client::new(server);
            let doc = client
                .aggregates(&id, axis.as_deref(), metric.as_deref())
                .map_err(|e| e.to_string())?;
            if json {
                writeln!(
                    out,
                    "{}",
                    serde_json::to_string(&doc).map_err(|e| e.to_string())?
                )
                .map_err(|e| e.to_string())?;
            } else {
                write!(out, "{}", render_aggregates_table(&doc)).map_err(|e| e.to_string())?;
            }
        }
        Invocation::CampaignStatus { id, server } => {
            let client = synapse_server::Client::new(server);
            let doc = match id {
                Some(id) => client.status(&id).map_err(|e| e.to_string())?,
                None => client.list().map_err(|e| e.to_string())?,
            };
            writeln!(
                out,
                "{}",
                serde_json::to_string(&doc).map_err(|e| e.to_string())?
            )
            .map_err(|e| e.to_string())?;
        }
        Invocation::CampaignCancel { id, server } => {
            let client = synapse_server::Client::new(server);
            let doc = client.cancel(&id).map_err(|e| e.to_string())?;
            writeln!(
                out,
                "{}",
                serde_json::to_string(&doc).map_err(|e| e.to_string())?
            )
            .map_err(|e| e.to_string())?;
        }
        Invocation::CampaignPlan { spec } => {
            let spec =
                synapse_campaign::CampaignSpec::from_path(&spec).map_err(|e| e.to_string())?;
            let points = synapse_campaign::expand(&spec);
            writeln!(
                out,
                "campaign {:?}: {} points ({} workload-steps × {} machines × {} kernels × {} modes × {} widths × {} io blocks × {} rates × {} filesystems × {} atom sets × {} sample orders)",
                spec.name,
                points.len(),
                spec.workloads.iter().map(|w| w.steps.len()).sum::<usize>(),
                spec.machines.len(),
                spec.kernels.len(),
                spec.modes.len(),
                spec.threads.len(),
                spec.io_blocks.len(),
                spec.sample_rates.len(),
                spec.filesystems.len(),
                spec.atoms.len(),
                spec.sample_order.len(),
            )
            .map_err(|e| e.to_string())?;
            for p in points.iter().take(10) {
                writeln!(out, "  [{:>4}] {}", p.index, p.label()).map_err(|e| e.to_string())?;
            }
            if points.len() > 10 {
                writeln!(out, "  ... {} more", points.len() - 10).map_err(|e| e.to_string())?;
            }
        }
        Invocation::CampaignCacheStats { cache } => {
            let result_cache = synapse_campaign::ResultCache::open_with_workers(&cache, 0)
                .map_err(|e| e.to_string())?;
            let stats = result_cache.stats();
            writeln!(
                out,
                "cache {}: {} results, {} shard files ({}/{} shards occupied, {} dirty), {} bytes on disk, engine {:?}",
                cache.display(),
                stats.docs,
                stats.data_files,
                stats.occupied_shards,
                synapse_store::SHARD_COUNT,
                stats.dirty_shards,
                stats.bytes_on_disk,
                stats.engine,
            )
            .map_err(|e| e.to_string())?;
        }
        Invocation::CampaignCacheCompact { cache } => {
            let result_cache = synapse_campaign::ResultCache::open_with_workers(&cache, 0)
                .map_err(|e| e.to_string())?;
            let pass = result_cache.compact().map_err(|e| e.to_string())?;
            writeln!(
                out,
                "compacted {}: {} -> {} shard files ({} results){}",
                cache.display(),
                pass.files_before,
                pass.files_after,
                pass.docs,
                if pass.changed {
                    ""
                } else {
                    " — already compact"
                },
            )
            .map_err(|e| e.to_string())?;
        }
        Invocation::CampaignRun {
            spec,
            cache,
            workers,
            json_out,
            csv_out,
            summary_json,
            timings,
            record,
        } => {
            let spec =
                synapse_campaign::CampaignSpec::from_path(&spec).map_err(|e| e.to_string())?;
            let config = synapse_campaign::RunConfig { workers };
            let result_cache =
                synapse_campaign::ResultCache::open_with_workers(&cache, config.workers)
                    .map_err(|e| e.to_string())?;
            // Flight-record the run (`--record`): the recorder sits on
            // the same observer seam the server streams from, then the
            // post-run stage timings are stamped in before sealing.
            let recorder = record
                .as_ref()
                .map(|path| (path, synapse_trace::TraceRecorder::new(&spec)));
            let outcome = synapse_campaign::run_campaign_on(
                &spec,
                &config,
                &result_cache,
                &|event| {
                    if let Some((_, recorder)) = &recorder {
                        recorder.observe(&event);
                    }
                },
                &synapse_campaign::CancelToken::new(),
            )
            .map_err(|e| e.to_string())?;
            let mut trace_id = None;
            if let Some((trace_path, recorder)) = &recorder {
                recorder.record_stats(&outcome.stats);
                recorder.write_to(trace_path).map_err(|e| e.to_string())?;
                trace_id = Some(recorder.trace_id().to_string());
            }
            write!(out, "{}", outcome.report.render_summary()).map_err(|e| e.to_string())?;
            let stats = outcome.stats;
            writeln!(
                out,
                "  {} points in {:.3}s ({:.0} points/s): {} simulated, {} from cache ({:.0}% hit rate)",
                stats.points,
                stats.wall_secs,
                stats.points_per_sec(),
                stats.simulated,
                stats.cache_hits,
                stats.hit_rate() * 100.0,
            )
            .map_err(|e| e.to_string())?;
            if timings {
                writeln!(
                    out,
                    "  stages: expansion {:.3}s, sweep {:.3}s, aggregation {:.3}s",
                    stats.expand_secs, stats.sweep_secs, stats.aggregate_secs,
                )
                .map_err(|e| e.to_string())?;
                // Per-point latency distributions come from the same
                // process-wide histograms `/metrics` exposes; the
                // registry call returns the series the engine already
                // populated during the run.
                let registry = synapse_telemetry::global();
                let latency = |name: &str| {
                    registry.histogram(
                        name,
                        "Per-point latency.",
                        synapse_telemetry::DURATION_BUCKETS,
                    )
                };
                for (label, hist) in [
                    ("simulate", latency("synapse_engine_simulate_seconds")),
                    (
                        "cache lookup",
                        latency("synapse_engine_cache_lookup_seconds"),
                    ),
                ] {
                    if hist.count() == 0 {
                        writeln!(out, "  {label}: no observations").map_err(|e| e.to_string())?;
                        continue;
                    }
                    writeln!(
                        out,
                        "  {label}: p50 {:.3}ms p90 {:.3}ms p99 {:.3}ms ({} observations)",
                        hist.quantile(0.5) * 1e3,
                        hist.quantile(0.9) * 1e3,
                        hist.quantile(0.99) * 1e3,
                        hist.count(),
                    )
                    .map_err(|e| e.to_string())?;
                }
            }
            if let Some(path) = json_out {
                let json = outcome.report.to_json_pretty().map_err(|e| e.to_string())?;
                std::fs::write(&path, json).map_err(|e| e.to_string())?;
                writeln!(out, "  report written to {}", path.display())
                    .map_err(|e| e.to_string())?;
            }
            if let Some(path) = csv_out {
                std::fs::write(&path, outcome.report.to_csv()).map_err(|e| e.to_string())?;
                writeln!(out, "  csv written to {}", path.display()).map_err(|e| e.to_string())?;
            }
            if let (Some(path), Some(id)) = (&record, &trace_id) {
                writeln!(out, "  trace {id} recorded to {}", path.display())
                    .map_err(|e| e.to_string())?;
            }
            if let Some(path) = summary_json {
                let mut summary = serde_json::json!({
                    "name": outcome.report.name,
                    "engine_version": synapse_campaign::ENGINE_VERSION,
                    "points": stats.points,
                    "simulated": stats.simulated,
                    "cache_hits": stats.cache_hits,
                    "cache_hit_rate": stats.hit_rate(),
                    "wall_secs": stats.wall_secs,
                    "points_per_sec": stats.points_per_sec(),
                    "timings": stats.timings_json(),
                });
                if let (Some(trace_path), Some(id), serde_json::Value::Object(doc)) =
                    (&record, &trace_id, &mut summary)
                {
                    doc.insert(
                        "trace".to_string(),
                        serde_json::json!({
                            "path": trace_path.display().to_string(),
                            "trace_id": id,
                        }),
                    );
                }
                let json = serde_json::to_string_pretty(&summary).map_err(|e| e.to_string())?;
                std::fs::write(&path, json).map_err(|e| e.to_string())?;
                writeln!(out, "  summary written to {}", path.display())
                    .map_err(|e| e.to_string())?;
            }
        }
        Invocation::CampaignReplay {
            trace,
            lenient,
            report,
        } => {
            let loaded = synapse_trace::Trace::load(&trace).map_err(|e| e.to_string())?;
            let mode = if lenient {
                synapse_trace::ReplayMode::Lenient
            } else {
                synapse_trace::ReplayMode::Strict
            };
            let summary = loaded.verify(mode).map_err(|e| e.to_string())?;
            writeln!(
                out,
                "replayed trace {}: {}/{} points, {} annotations ({})",
                loaded.header.trace_id,
                summary.points,
                summary.total,
                summary.annotations,
                if summary.is_clean() {
                    "clean".to_string()
                } else {
                    format!("{} divergences", summary.divergences.len())
                },
            )
            .map_err(|e| e.to_string())?;
            for divergence in &summary.divergences {
                writeln!(out, "  divergence: {divergence}").map_err(|e| e.to_string())?;
            }
            if let Some(path) = report {
                // Reconstructed purely from the record — the simulator
                // is never invoked, so this is byte-identical to the
                // live run's report or an error.
                let report = loaded.reconstruct_report().map_err(|e| e.to_string())?;
                let rendered = if path.extension().is_some_and(|e| e == "csv") {
                    report.to_csv()
                } else {
                    report.to_json_pretty().map_err(|e| e.to_string())?
                };
                std::fs::write(&path, rendered).map_err(|e| e.to_string())?;
                writeln!(out, "  report reconstructed to {}", path.display())
                    .map_err(|e| e.to_string())?;
            }
        }
        Invocation::CampaignTraceSummary { trace } => {
            let loaded = synapse_trace::Trace::load(&trace).map_err(|e| e.to_string())?;
            write!(out, "{}", loaded.summary()).map_err(|e| e.to_string())?;
        }
        Invocation::Stats {
            command,
            tags,
            store,
        } => {
            let store = FileStore::open(&store).map_err(|e| e.to_string())?;
            let key = synapse_model::ProfileKey::new(command.trim(), tags);
            let set = store.load_set(&key).map_err(|e| e.to_string())?;
            let rt = set.runtime_summary().map_err(|e| e.to_string())?;
            let cycles = set
                .totals_summary(|t| t.cycles as f64)
                .map_err(|e| e.to_string())?;
            writeln!(
                out,
                "{} runs: Tx mean={:.3}s std={:.3}s ci99={:.3}s | cycles mean={:.3e} ci99={:.3e}",
                set.len(),
                rt.mean,
                rt.std,
                rt.ci99(),
                cycles.mean,
                cycles.ci99(),
            )
            .map_err(|e| e.to_string())?;
        }
        Invocation::Inspect {
            command,
            tags,
            store,
        } => {
            let store = FileStore::open(&store).map_err(|e| e.to_string())?;
            let key = synapse_model::ProfileKey::new(command.trim(), tags);
            let profile = store.load_representative(&key).map_err(|e| e.to_string())?;
            let json = profile.to_json().map_err(|e| e.to_string())?;
            writeln!(out, "{json}").map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_profile_with_flags() {
        let inv = parse_args(&argv(&[
            "profile", "sleep 1", "--tags", "a=1,b=2", "--rate", "2.5", "--store", "/tmp/x",
        ]))
        .unwrap();
        match inv {
            Invocation::Profile {
                command,
                tags,
                rate,
                store,
            } => {
                assert_eq!(command, "sleep 1");
                assert_eq!(tags.get("a"), Some("1"));
                assert_eq!(rate, 2.5);
                assert_eq!(store, PathBuf::from("/tmp/x"));
            }
            other => panic!("wrong invocation: {other:?}"),
        }
    }

    #[test]
    fn parses_emulate_with_kernel_and_threads() {
        let inv = parse_args(&argv(&[
            "emulate",
            "app",
            "--kernel",
            "c",
            "--threads",
            "8",
            "--write-block",
            "4096",
        ]))
        .unwrap();
        match inv {
            Invocation::Emulate {
                kernel,
                threads,
                write_block,
                ..
            } => {
                assert_eq!(kernel, "c");
                assert_eq!(threads, 8);
                assert_eq!(write_block, 4096);
            }
            other => panic!("wrong invocation: {other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_flags_and_subcommands() {
        assert!(parse_args(&argv(&["profile", "x", "--bogus"])).is_err());
        assert!(parse_args(&argv(&["frobnicate"])).is_err());
        assert!(parse_args(&argv(&["profile"])).is_err()); // no command
        assert!(parse_args(&argv(&["profile", "a", "b"])).is_err()); // two positionals
    }

    #[test]
    fn no_args_is_help() {
        assert_eq!(parse_args(&[]).unwrap(), Invocation::Help);
        assert_eq!(parse_args(&argv(&["--help"])).unwrap(), Invocation::Help);
    }

    #[test]
    fn kernel_names_resolve() {
        assert!(kernel_by_name("ASM").is_ok());
        assert!(kernel_by_name("c").is_ok());
        assert!(kernel_by_name("spin").is_ok());
        assert!(kernel_by_name("fortran").is_err());
    }

    #[test]
    fn table1_and_machines_render() {
        let mut buf = Vec::new();
        run(Invocation::Table1, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("FLOPs"));
        let mut buf2 = Vec::new();
        run(Invocation::Machines, &mut buf2).unwrap();
        let s2 = String::from_utf8(buf2).unwrap();
        assert!(s2.contains("thinkie"));
        assert!(s2.contains("titan"));
    }

    #[test]
    fn help_renders_usage() {
        let mut buf = Vec::new();
        run(Invocation::Help, &mut buf).unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("USAGE"));
    }

    #[test]
    fn parses_campaign_run_and_plan() {
        let inv = parse_args(&argv(&[
            "campaign",
            "run",
            "sweep.toml",
            "--cache",
            "/tmp/cc",
            "--workers",
            "4",
            "--json",
            "out.json",
            "--csv",
            "out.csv",
        ]))
        .unwrap();
        match inv {
            Invocation::CampaignRun {
                spec,
                cache,
                workers,
                json_out,
                csv_out,
                summary_json,
                timings,
                record,
            } => {
                assert_eq!(spec, PathBuf::from("sweep.toml"));
                assert_eq!(cache, PathBuf::from("/tmp/cc"));
                assert_eq!(workers, 4);
                assert_eq!(json_out, Some(PathBuf::from("out.json")));
                assert_eq!(csv_out, Some(PathBuf::from("out.csv")));
                assert_eq!(summary_json, None);
                assert!(!timings);
                assert_eq!(record, None);
            }
            other => panic!("wrong invocation: {other:?}"),
        }
        let plan = parse_args(&argv(&["campaign", "plan", "sweep.toml"])).unwrap();
        assert_eq!(
            plan,
            Invocation::CampaignPlan {
                spec: PathBuf::from("sweep.toml")
            }
        );
        assert!(parse_args(&argv(&["campaign"])).is_err());
        assert!(parse_args(&argv(&["campaign", "run"])).is_err());
        assert!(parse_args(&argv(&["campaign", "frob", "x.toml"])).is_err());
        assert!(parse_args(&argv(&["campaign", "run", "x.toml", "--bogus"])).is_err());
    }

    #[test]
    fn parses_campaign_run_timings_flag() {
        let inv = parse_args(&argv(&["campaign", "run", "sweep.toml", "--timings"])).unwrap();
        match inv {
            Invocation::CampaignRun { timings, .. } => assert!(timings),
            other => panic!("wrong invocation: {other:?}"),
        }
    }

    #[test]
    fn parses_campaign_run_summary_json_flag() {
        let inv = parse_args(&argv(&[
            "campaign",
            "run",
            "sweep.toml",
            "--summary-json",
            "summary.json",
        ]))
        .unwrap();
        match inv {
            Invocation::CampaignRun { summary_json, .. } => {
                assert_eq!(summary_json, Some(PathBuf::from("summary.json")));
            }
            other => panic!("wrong invocation: {other:?}"),
        }
    }

    #[test]
    fn parses_campaign_record_and_replay_forms() {
        let inv = parse_args(&argv(&[
            "campaign",
            "run",
            "sweep.toml",
            "--record",
            "run.trace.jsonl",
        ]))
        .unwrap();
        match inv {
            Invocation::CampaignRun { record, .. } => {
                assert_eq!(record, Some(PathBuf::from("run.trace.jsonl")));
            }
            other => panic!("wrong invocation: {other:?}"),
        }
        assert!(parse_args(&argv(&["campaign", "run", "s.toml", "--record"])).is_err());

        assert_eq!(
            parse_args(&argv(&["campaign", "replay", "run.trace.jsonl"])).unwrap(),
            Invocation::CampaignReplay {
                trace: PathBuf::from("run.trace.jsonl"),
                lenient: false,
                report: None,
            }
        );
        assert_eq!(
            parse_args(&argv(&[
                "campaign",
                "replay",
                "run.trace.jsonl",
                "--lenient",
                "--report",
                "out.csv",
            ]))
            .unwrap(),
            Invocation::CampaignReplay {
                trace: PathBuf::from("run.trace.jsonl"),
                lenient: true,
                report: Some(PathBuf::from("out.csv")),
            }
        );
        assert_eq!(
            parse_args(&argv(&["campaign", "trace-summary", "t.jsonl"])).unwrap(),
            Invocation::CampaignTraceSummary {
                trace: PathBuf::from("t.jsonl"),
            }
        );
        assert!(parse_args(&argv(&["campaign", "replay"])).is_err());
        assert!(parse_args(&argv(&["campaign", "replay", "a", "b"])).is_err());
        assert!(parse_args(&argv(&["campaign", "trace-summary", "t", "--lenient"])).is_err());
    }

    #[test]
    fn parses_campaign_cache_actions() {
        assert_eq!(
            parse_args(&argv(&["campaign", "cache", "stats", "--cache", "/tmp/c"])).unwrap(),
            Invocation::CampaignCacheStats {
                cache: PathBuf::from("/tmp/c")
            }
        );
        assert_eq!(
            parse_args(&argv(&[
                "campaign", "cache", "compact", "--cache", "/tmp/c"
            ]))
            .unwrap(),
            Invocation::CampaignCacheCompact {
                cache: PathBuf::from("/tmp/c")
            }
        );
        assert!(parse_args(&argv(&["campaign", "cache"])).is_err());
        assert!(parse_args(&argv(&["campaign", "cache", "frob"])).is_err());
        assert!(parse_args(&argv(&["campaign", "cache", "stats", "extra"])).is_err());
        assert!(parse_args(&argv(&["campaign", "cache", "stats", "--cache"])).is_err());
    }

    #[test]
    fn campaign_plan_and_run_through_cli_layer() {
        let dir = std::env::temp_dir().join(format!("synapse-cli-campaign-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("sweep.toml");
        std::fs::write(
            &spec_path,
            r#"
            name = "cli-sweep"
            seed = 1
            machines = ["thinkie", "comet"]
            kernels = ["asm", "c"]

            [[workloads]]
            app = "gromacs"
            steps = [10000]
            "#,
        )
        .unwrap();

        let mut buf = Vec::new();
        run(
            Invocation::CampaignPlan {
                spec: spec_path.clone(),
            },
            &mut buf,
        )
        .unwrap();
        let plan_text = String::from_utf8(buf).unwrap();
        assert!(plan_text.contains("4 points"), "{plan_text}");

        let cache = dir.join("cache");
        let json_path = dir.join("report.json");
        let summary_path = dir.join("summary.json");
        let trace_path = dir.join("run.trace.jsonl");
        let invocation = || Invocation::CampaignRun {
            spec: spec_path.clone(),
            cache: cache.clone(),
            workers: 2,
            json_out: Some(json_path.clone()),
            csv_out: Some(dir.join("report.csv")),
            summary_json: Some(summary_path.clone()),
            timings: true,
            record: Some(trace_path.clone()),
        };
        let mut buf1 = Vec::new();
        run(invocation(), &mut buf1).unwrap();
        let text1 = String::from_utf8(buf1).unwrap();
        assert!(text1.contains("4 simulated, 0 from cache"), "{text1}");
        assert!(json_path.exists());
        assert!(dir.join("report.csv").exists());

        // Second run is served from the persisted cache, and the
        // machine-readable summary says so exactly (what CI asserts).
        let mut buf2 = Vec::new();
        run(invocation(), &mut buf2).unwrap();
        let text2 = String::from_utf8(buf2).unwrap();
        assert!(
            text2.contains("0 simulated, 4 from cache (100% hit rate)"),
            "{text2}"
        );
        let summary: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&summary_path).unwrap()).unwrap();
        assert_eq!(summary["cache_hit_rate"].as_f64(), Some(1.0));
        assert_eq!(summary["simulated"].as_u64(), Some(0));
        assert_eq!(summary["cache_hits"].as_u64(), Some(4));
        assert!(summary["points_per_sec"].as_f64().unwrap() > 0.0);
        // `--timings` prints the stage breakdown, and the summary
        // carries the same shape machine-readably.
        assert!(text2.contains("stages: expansion"), "{text2}");
        assert!(text2.contains("cache lookup: p50"), "{text2}");
        assert!(summary["timings"]["wall_secs"].as_f64().unwrap() > 0.0);
        assert!(summary["timings"]["sweep_secs"].as_f64().unwrap() > 0.0);
        // The summary names the engine version and the recorded trace
        // so downstream tooling can gate on compatibility directly.
        assert_eq!(
            summary["engine_version"].as_u64(),
            Some(synapse_campaign::ENGINE_VERSION as u64)
        );
        assert_eq!(
            summary["trace"]["path"].as_str(),
            Some(trace_path.display().to_string().as_str())
        );
        assert!(summary["trace"]["trace_id"].as_str().is_some());

        // Strict replay of the recorded trace reconstructs the report
        // byte-identically without invoking the simulator.
        let reconstructed = dir.join("replayed.json");
        let mut buf_replay = Vec::new();
        run(
            Invocation::CampaignReplay {
                trace: trace_path.clone(),
                lenient: false,
                report: Some(reconstructed.clone()),
            },
            &mut buf_replay,
        )
        .unwrap();
        let replay_text = String::from_utf8(buf_replay).unwrap();
        assert!(replay_text.contains("clean"), "{replay_text}");
        assert_eq!(
            std::fs::read(&json_path).unwrap(),
            std::fs::read(&reconstructed).unwrap(),
            "replayed report must be byte-identical to the live run's"
        );
        let mut buf_ts = Vec::new();
        run(
            Invocation::CampaignTraceSummary {
                trace: trace_path.clone(),
            },
            &mut buf_ts,
        )
        .unwrap();
        let ts_text = String::from_utf8(buf_ts).unwrap();
        assert!(ts_text.contains("campaign \"cli-sweep\""), "{ts_text}");
        assert!(ts_text.contains("stages:"), "{ts_text}");

        // The cache subcommands see the sharded store the runs built.
        let mut buf3 = Vec::new();
        run(
            Invocation::CampaignCacheStats {
                cache: cache.clone(),
            },
            &mut buf3,
        )
        .unwrap();
        let stats_text = String::from_utf8(buf3).unwrap();
        assert!(stats_text.contains("4 results"), "{stats_text}");
        let mut buf4 = Vec::new();
        run(Invocation::CampaignCacheCompact { cache }, &mut buf4).unwrap();
        assert!(
            String::from_utf8(buf4).unwrap().contains("compacted"),
            "compact output"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parses_serve_and_campaign_client_commands() {
        assert_eq!(
            parse_args(&argv(&["serve"])).unwrap(),
            Invocation::Serve {
                addr: DEFAULT_SERVER_ADDR.into(),
                cache: default_campaign_cache(),
                queue_workers: 2,
                workers: 0,
                max_connections: synapse_server::DEFAULT_MAX_CONNECTIONS,
                reactor_threads: 0,
                coordinator: None,
            }
        );
        assert_eq!(
            parse_args(&argv(&[
                "serve",
                "--addr",
                "127.0.0.1:9999",
                "--cache",
                "/tmp/srv",
                "--queue-workers",
                "4",
                "--workers",
                "2",
                "--max-connections",
                "64",
                "--reactor-threads",
                "8",
            ]))
            .unwrap(),
            Invocation::Serve {
                addr: "127.0.0.1:9999".into(),
                cache: PathBuf::from("/tmp/srv"),
                queue_workers: 4,
                workers: 2,
                max_connections: 64,
                reactor_threads: 8,
                coordinator: None,
            }
        );
        assert!(parse_args(&argv(&["serve", "--queue-workers", "0"])).is_err());
        assert!(parse_args(&argv(&["serve", "--bogus"])).is_err());
        assert!(parse_args(&argv(&["serve", "--reactor-threads", "lots"])).is_err());
        assert!(parse_args(&argv(&["serve", "--worker", "127.0.0.1:9001"])).is_err());

        assert_eq!(
            parse_args(&argv(&["campaign", "submit", "s.toml", "--watch"])).unwrap(),
            Invocation::CampaignSubmit {
                spec: PathBuf::from("s.toml"),
                server: DEFAULT_SERVER_ADDR.into(),
                watch: true,
                cluster: false,
                record: false,
            }
        );
        assert_eq!(
            parse_args(&argv(&[
                "campaign",
                "submit",
                "s.toml",
                "--cluster",
                "--record"
            ]))
            .unwrap(),
            Invocation::CampaignSubmit {
                spec: PathBuf::from("s.toml"),
                server: DEFAULT_SERVER_ADDR.into(),
                watch: false,
                cluster: true,
                record: true,
            }
        );
        assert_eq!(
            parse_args(&argv(&[
                "campaign",
                "watch",
                "j3",
                "--server",
                "127.0.0.1:17",
            ]))
            .unwrap(),
            Invocation::CampaignWatch {
                id: "j3".into(),
                server: "127.0.0.1:17".into(),
                aggregates: false,
            }
        );
        assert_eq!(
            parse_args(&argv(&["campaign", "watch", "j3", "--aggregates"])).unwrap(),
            Invocation::CampaignWatch {
                id: "j3".into(),
                server: DEFAULT_SERVER_ADDR.into(),
                aggregates: true,
            }
        );
        assert_eq!(
            parse_args(&argv(&["campaign", "status"])).unwrap(),
            Invocation::CampaignStatus {
                id: None,
                server: DEFAULT_SERVER_ADDR.into(),
            }
        );
        assert_eq!(
            parse_args(&argv(&["campaign", "cancel", "j1"])).unwrap(),
            Invocation::CampaignCancel {
                id: "j1".into(),
                server: DEFAULT_SERVER_ADDR.into(),
            }
        );
        assert_eq!(
            parse_args(&argv(&[
                "campaign",
                "aggregates",
                "j7",
                "--axis",
                "machine",
                "--metric",
                "error_pct",
                "--json",
            ]))
            .unwrap(),
            Invocation::CampaignAggregates {
                id: "j7".into(),
                server: DEFAULT_SERVER_ADDR.into(),
                axis: Some("machine".into()),
                metric: Some("error_pct".into()),
                json: true,
            }
        );
        assert!(parse_args(&argv(&["campaign", "submit"])).is_err());
        assert!(parse_args(&argv(&["campaign", "cancel"])).is_err());
        assert!(parse_args(&argv(&["campaign", "aggregates"])).is_err());
        // --watch is a submit-only flag.
        assert!(parse_args(&argv(&["campaign", "watch", "j1", "--watch"])).is_err());
        // --aggregates is a watch-only flag; --axis belongs to aggregates.
        assert!(parse_args(&argv(&["campaign", "status", "--aggregates"])).is_err());
        assert!(parse_args(&argv(&["campaign", "watch", "j1", "--axis", "machine"])).is_err());
    }

    #[test]
    fn aggregates_table_renders_overall_and_slices() {
        let doc = serde_json::json!({
            "id": "j1", "name": "sweep", "status": "running",
            "done": 3, "total": 8, "points": 3, "v": 1,
            "overall": {"metrics": {"error_pct": {
                "n": 3, "mean": 4.5, "p50": 4.0, "p95": 6.0, "p99": 6.0,
                "min": 3.0, "max": 6.0,
            }, "tx": {"n": 0}}},
            "slices": [{"axis": "machine", "value": "stampede",
                "metrics": {"error_pct": {
                    "n": 3, "mean": 4.5, "p50": 4.0, "p95": 6.0,
                    "p99": 6.0, "min": 3.0, "max": 6.0,
                }}}],
        });
        let table = render_aggregates_table(&doc);
        assert!(table.contains("j1 \"sweep\" running — 3/8 points aggregated"));
        assert!(table.contains("(overall)"));
        assert!(table.contains("machine"));
        assert!(table.contains("stampede"));
        assert!(table.contains("error_pct"));
        // Empty metrics (n=0) render no row.
        assert!(!table.contains(" tx "));
    }

    #[test]
    fn parses_cluster_commands() {
        assert_eq!(
            parse_args(&argv(&[
                "cluster",
                "start",
                "--worker",
                "127.0.0.1:9001",
                "--worker",
                "127.0.0.1:9002",
                "--max-connections",
                "128",
            ]))
            .unwrap(),
            Invocation::Serve {
                addr: DEFAULT_SERVER_ADDR.into(),
                cache: default_campaign_cache(),
                queue_workers: 2,
                workers: 0,
                max_connections: 128,
                reactor_threads: 0,
                coordinator: Some(vec!["127.0.0.1:9001".into(), "127.0.0.1:9002".into()]),
            }
        );
        assert_eq!(
            parse_args(&argv(&[
                "cluster",
                "add-worker",
                "127.0.0.1:9001",
                "--server",
                "127.0.0.1:8000",
            ]))
            .unwrap(),
            Invocation::ClusterAddWorker {
                worker: "127.0.0.1:9001".into(),
                server: "127.0.0.1:8000".into(),
            }
        );
        assert_eq!(
            parse_args(&argv(&["cluster", "status"])).unwrap(),
            Invocation::ClusterStatus {
                server: DEFAULT_SERVER_ADDR.into(),
            }
        );
        assert_eq!(
            parse_args(&argv(&[
                "campaign",
                "submit",
                "s.toml",
                "--cluster",
                "--watch"
            ]))
            .unwrap(),
            Invocation::CampaignSubmit {
                spec: PathBuf::from("s.toml"),
                server: DEFAULT_SERVER_ADDR.into(),
                watch: true,
                cluster: true,
                record: false,
            }
        );
        assert!(parse_args(&argv(&["cluster"])).is_err());
        assert!(parse_args(&argv(&["cluster", "frob"])).is_err());
        assert!(parse_args(&argv(&["cluster", "add-worker"])).is_err());
        assert!(parse_args(&argv(&["cluster", "status", "extra"])).is_err());
        // --worker is a cluster-start-only flag.
        assert!(parse_args(&argv(&["serve", "--worker", "x"])).is_err());
        // --cluster is a submit-only flag.
        assert!(parse_args(&argv(&["campaign", "watch", "j1", "--cluster"])).is_err());
    }

    #[test]
    fn cluster_client_commands_through_cli_layer() {
        // One in-process worker + one in-process coordinator, driven
        // purely through CLI invocations (what the CI cluster smoke
        // does with real processes).
        let dir = std::env::temp_dir().join(format!("synapse-cli-cluster-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("sweep.toml");
        std::fs::write(
            &spec_path,
            r#"
            name = "cli-cluster"
            seed = 17
            machines = ["thinkie", "comet"]
            kernels = ["asm", "c"]

            [[workloads]]
            app = "gromacs"
            steps = [10000, 50000]
            "#,
        )
        .unwrap();

        let worker = synapse_server::Server::bind(synapse_server::ServerConfig {
            addr: "127.0.0.1:0".into(),
            ..Default::default()
        })
        .unwrap();
        let worker_addr = worker.local_addr().unwrap().to_string();
        let worker_handle = worker.handle().unwrap();
        let worker_join = std::thread::spawn(move || worker.run().unwrap());

        let coordinator = std::sync::Arc::new(synapse_cluster::Coordinator::new(
            synapse_cluster::ClusterConfig::default(),
        ));
        let coord = synapse_server::Server::bind(synapse_server::ServerConfig {
            addr: "127.0.0.1:0".into(),
            ..Default::default()
        })
        .unwrap()
        .with_cluster(coordinator);
        let coord_addr = coord.local_addr().unwrap().to_string();
        let coord_handle = coord.handle().unwrap();
        let coord_join = std::thread::spawn(move || coord.run().unwrap());

        // add-worker registers over HTTP.
        let mut buf = Vec::new();
        run(
            Invocation::ClusterAddWorker {
                worker: worker_addr.clone(),
                server: coord_addr.clone(),
            },
            &mut buf,
        )
        .unwrap();
        let doc: serde_json::Value =
            serde_json::from_str(String::from_utf8(buf).unwrap().trim()).unwrap();
        assert_eq!(doc["alive"].as_bool(), Some(true));

        // status shows one live worker.
        let mut buf = Vec::new();
        run(
            Invocation::ClusterStatus {
                server: coord_addr.clone(),
            },
            &mut buf,
        )
        .unwrap();
        let status: serde_json::Value =
            serde_json::from_str(String::from_utf8(buf).unwrap().trim()).unwrap();
        assert_eq!(status["live"].as_u64(), Some(1));

        // submit --cluster --watch: distributed, streamed, completed.
        let mut buf = Vec::new();
        run(
            Invocation::CampaignSubmit {
                spec: spec_path,
                server: coord_addr,
                watch: true,
                cluster: true,
                record: false,
            },
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let first: serde_json::Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(first["distributed"].as_bool(), Some(true));
        assert_eq!(first["points"].as_u64(), Some(8));
        let last: serde_json::Value = serde_json::from_str(lines.last().unwrap()).unwrap();
        assert_eq!(last["event"].as_str(), Some("completed"));
        assert_eq!(last["points"].as_u64(), Some(8));

        coord_handle.shutdown();
        coord_join.join().unwrap();
        worker_handle.shutdown();
        worker_join.join().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn submit_watch_status_cancel_through_cli_layer() {
        // Boot a real server, then drive it exclusively through CLI
        // invocations, as the CI smoke step does.
        let dir = std::env::temp_dir().join(format!("synapse-cli-serve-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("sweep.toml");
        std::fs::write(
            &spec_path,
            r#"
            name = "cli-serve"
            seed = 13
            machines = ["thinkie", "comet"]
            kernels = ["asm", "c"]

            [[workloads]]
            app = "gromacs"
            steps = [10000]
            "#,
        )
        .unwrap();

        let server = synapse_server::Server::bind(synapse_server::ServerConfig {
            addr: "127.0.0.1:0".into(),
            cache_dir: Some(dir.join("cache")),
            ..Default::default()
        })
        .unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = server.handle().unwrap();
        let join = std::thread::spawn(move || server.run().unwrap());

        // submit --watch: one submit reply line + the NDJSON stream.
        let mut buf = Vec::new();
        run(
            Invocation::CampaignSubmit {
                spec: spec_path.clone(),
                server: addr.clone(),
                watch: true,
                cluster: false,
                record: false,
            },
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let first: serde_json::Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(first["points"].as_u64(), Some(4));
        let id = first["id"].as_str().unwrap().to_string();
        let last: serde_json::Value = serde_json::from_str(lines.last().unwrap()).unwrap();
        assert_eq!(last["event"].as_str(), Some("completed"));
        let point_lines = lines
            .iter()
            .filter(|l| l.contains("\"event\":\"point\""))
            .count();
        assert_eq!(point_lines, 4, "{text}");

        // status of that job.
        let mut buf = Vec::new();
        run(
            Invocation::CampaignStatus {
                id: Some(id.clone()),
                server: addr.clone(),
            },
            &mut buf,
        )
        .unwrap();
        let status: serde_json::Value =
            serde_json::from_str(String::from_utf8(buf).unwrap().trim()).unwrap();
        assert_eq!(status["status"].as_str(), Some("completed"));
        assert_eq!(status["done"].as_u64(), Some(4));

        // watch replays a finished job's stream.
        let mut buf = Vec::new();
        run(
            Invocation::CampaignWatch {
                id: id.clone(),
                server: addr.clone(),
                aggregates: false,
            },
            &mut buf,
        )
        .unwrap();
        assert!(String::from_utf8(buf)
            .unwrap()
            .contains("\"event\":\"completed\""));

        // watch --aggregates replays the lifecycle + snapshot ring:
        // terminal snapshot and completed event, but no per-point lines.
        let mut buf = Vec::new();
        run(
            Invocation::CampaignWatch {
                id: id.clone(),
                server: addr.clone(),
                aggregates: true,
            },
            &mut buf,
        )
        .unwrap();
        let stream = String::from_utf8(buf).unwrap();
        assert!(stream.contains("\"event\":\"snapshot\""));
        assert!(stream.contains("\"event\":\"completed\""));
        assert!(!stream.contains("\"event\":\"point\""));

        // aggregates prints the live per-(axis, value) stats table.
        let mut buf = Vec::new();
        run(
            Invocation::CampaignAggregates {
                id: id.clone(),
                server: addr.clone(),
                axis: Some("machine".into()),
                metric: Some("error_pct".into()),
                json: false,
            },
            &mut buf,
        )
        .unwrap();
        let table = String::from_utf8(buf).unwrap();
        assert!(table.contains("(overall)"), "{table}");
        assert!(table.contains("error_pct"), "{table}");

        // cancel on a finished job is a no-op status echo.
        let mut buf = Vec::new();
        run(
            Invocation::CampaignCancel {
                id,
                server: addr.clone(),
            },
            &mut buf,
        )
        .unwrap();
        let echoed: serde_json::Value =
            serde_json::from_str(String::from_utf8(buf).unwrap().trim()).unwrap();
        assert_eq!(echoed["status"].as_str(), Some("completed"));

        handle.shutdown();
        join.join().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn profile_and_stats_through_cli_layer() {
        let dir = std::env::temp_dir().join(format!("synapse-cli-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut buf = Vec::new();
        run(
            Invocation::Profile {
                command: "sleep 0.1".into(),
                tags: Tags::parse("t=cli"),
                rate: 10.0,
                store: dir.clone(),
            },
            &mut buf,
        )
        .unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("Tx="));
        let mut buf2 = Vec::new();
        run(
            Invocation::Stats {
                command: "sleep 0.1".into(),
                tags: Tags::parse("t=cli"),
                store: dir.clone(),
            },
            &mut buf2,
        )
        .unwrap();
        assert!(String::from_utf8(buf2).unwrap().contains("1 runs"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
