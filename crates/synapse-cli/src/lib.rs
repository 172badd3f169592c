#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Implementation of the `synapse` command-line tool.
//!
//! The paper ships "a set of command line tools which are wrappers
//! around certain configurations and combinations of the profile and
//! emulate methods" (§4). This crate provides the same; [`USAGE`] is
//! the one list of subcommands and flags.
//!
//! [`parse_args`] turns `argv` into an [`Invocation`] and [`run`]
//! executes it. Both only route: each subcommand family keeps its
//! parser, its runner and their tests in one module — `profile`
//! (profile / emulate / worker / stats / inspect / table1 / machines),
//! `campaign` (campaign run / plan / replay / trace-summary / cache,
//! all in-process over [`synapse_campaign`] and [`synapse_trace`]),
//! `serve` (serve / cluster start: the [`synapse_server`] daemon) and
//! `client` (its HTTP client: campaign submit / watch / status /
//! cancel / aggregates, cluster add-worker / status) — and every
//! parser walks `argv` through the one cursor in `args`.

use std::path::PathBuf;

use synapse_model::Tags;

mod args;
mod campaign;
mod client;
mod profile;
mod serve;

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

/// The `campaign` actions, as the "requires an action" / "unknown
/// action" messages list them.
const CAMPAIGN_ACTIONS: &str =
    "run | plan | replay | trace-summary | submit | watch | status | cancel | aggregates | cache";

/// Parse CLI arguments (without the binary name).
pub fn parse_args(args: &[String]) -> Result<Invocation, String> {
    let Some((sub, rest)) = args.split_first() else {
        return Ok(Invocation::Help);
    };
    match sub.as_str() {
        "campaign" => {
            let (action, rest) = rest
                .split_first()
                .ok_or_else(|| format!("campaign requires an action ({CAMPAIGN_ACTIONS})"))?;
            match action.as_str() {
                "cache" => campaign::parse_cache(rest),
                "replay" | "trace-summary" => campaign::parse_trace(action, rest),
                "submit" | "watch" | "status" | "cancel" | "aggregates" => {
                    client::parse("campaign", action, rest)
                }
                _ => campaign::parse_run(action, rest),
            }
        }
        "serve" => serve::parse(rest, false),
        "cluster" => {
            let (action, rest) = rest
                .split_first()
                .ok_or("cluster requires an action (start | add-worker | status)")?;
            match action.as_str() {
                "start" => serve::parse(rest, true),
                "add-worker" | "status" => client::parse("cluster", action, rest),
                other => Err(format!(
                    "unknown cluster action {other} (start | add-worker | status)"
                )),
            }
        }
        _ => profile::parse(sub, rest),
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

/// Why [`run`] failed: the message `main` prints after `error: `.
/// Every layer's error converts with `?`, keeping its own wording.
pub type CliError = Box<dyn std::error::Error + Send + Sync>;

/// Execute an invocation, writing human-readable output to `out`.
pub fn run(invocation: Invocation, out: &mut impl std::io::Write) -> Result<(), CliError> {
    use Invocation::*;
    match invocation {
        Help => Ok(write!(out, "{USAGE}")?),
        Table1
        | Machines
        | Profile { .. }
        | Emulate { .. }
        | Worker { .. }
        | Stats { .. }
        | Inspect { .. } => profile::run(invocation, out),
        CampaignRun { .. }
        | CampaignPlan { .. }
        | CampaignReplay { .. }
        | CampaignTraceSummary { .. }
        | CampaignCacheStats { .. }
        | CampaignCacheCompact { .. } => campaign::run(invocation, out),
        Serve { .. } => serve::run(invocation, out),
        ClusterAddWorker { ref server, .. }
        | ClusterStatus { ref server }
        | CampaignSubmit { ref server, .. }
        | CampaignWatch { ref server, .. }
        | CampaignAggregates { ref server, .. }
        | CampaignStatus { ref server, .. }
        | CampaignCancel { ref server, .. } => {
            let client = synapse_server::Client::new(server.as_str());
            client::run(&client, invocation, out)
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    /// Run `invocation` to completion and return what it printed.
    pub(crate) fn output(invocation: Invocation) -> Vec<u8> {
        let mut buf = Vec::new();
        run(invocation, &mut buf).unwrap();
        buf
    }

    /// [`output`] as text.
    pub(crate) fn output_text(invocation: Invocation) -> String {
        String::from_utf8(output(invocation)).unwrap()
    }

    /// [`output`], parsed as the one JSON document it printed.
    pub(crate) fn output_json(invocation: Invocation) -> serde_json::Value {
        serde_json::from_str(output_text(invocation).trim()).unwrap()
    }

    /// A fresh scratch directory holding `sweep.toml`: gromacs at
    /// `steps` × {thinkie, comet} × {asm, c}.
    pub(crate) fn sweep_fixture(name: &str, seed: u64, steps: &str) -> (PathBuf, PathBuf) {
        let dir = std::env::temp_dir().join(format!("synapse-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("sweep.toml");
        let text = format!(
            "name = \"{name}\"\nseed = {seed}\nmachines = [\"thinkie\", \"comet\"]\n\
             kernels = [\"asm\", \"c\"]\n\n[[workloads]]\napp = \"gromacs\"\nsteps = {steps}\n"
        );
        std::fs::write(&spec, text).unwrap();
        (dir, spec)
    }

    /// An in-process server on an ephemeral port; `stop` shuts it down.
    pub(crate) struct Booted {
        pub(crate) addr: String,
        handle: synapse_server::ServerHandle,
        join: std::thread::JoinHandle<()>,
    }

    impl Booted {
        pub(crate) fn start(cache_dir: Option<PathBuf>, coordinator: bool) -> Booted {
            let mut server = synapse_server::Server::bind(synapse_server::ServerConfig {
                addr: "127.0.0.1:0".into(),
                cache_dir,
                ..Default::default()
            })
            .unwrap();
            if coordinator {
                server = server.with_cluster(std::sync::Arc::new(
                    synapse_cluster::Coordinator::new(synapse_cluster::ClusterConfig::default()),
                ));
            }
            Booted {
                addr: server.local_addr().unwrap().to_string(),
                handle: server.handle().unwrap(),
                join: std::thread::spawn(move || server.run().unwrap()),
            }
        }

        pub(crate) fn stop(self) {
            self.handle.shutdown();
            self.join.join().unwrap();
        }
    }

    /// One `synapse …` synopsis entry of [`USAGE`], read back from its
    /// text.
    pub(crate) struct Form {
        /// Subcommand words, plus a placeholder operand when the entry
        /// takes one: a complete command line.
        pub(crate) argv: Vec<String>,
        /// Whether `argv` ends in that placeholder operand.
        pub(crate) positional: bool,
        /// `(flag, sample value)`: `"1"` where the placeholder names a
        /// number (`N`, `HZ`, `BYTES`), `None` for a switch.
        pub(crate) flags: Vec<(String, Option<&'static str>)>,
    }

    /// Every synopsis entry of [`USAGE`], continuation lines joined.
    pub(crate) fn usage_forms() -> Vec<Form> {
        let synopsis = USAGE.split("USAGE:\n").nth(1).expect("USAGE: section");
        let synopsis = synopsis.split("\n\n").next().expect("synopsis block");
        let mut forms = Vec::new();
        for entry in synopsis.split("  synapse ").skip(1) {
            let (mut words, mut positional, mut flags) = (Vec::new(), false, Vec::new());
            let mut tokens = entry.split_whitespace();
            while let Some(token) = tokens.next() {
                let bare = token.trim_end_matches("...").trim_matches(['[', ']']);
                if token.starts_with("[--") && token.ends_with(']') {
                    flags.extend(bare.split('|').map(|flag| (flag.to_string(), None)));
                } else if token.starts_with("[--") {
                    let value = tokens.next().expect("flag value placeholder");
                    let numeric = ["N]", "HZ]", "BYTES]"].contains(&value);
                    flags.push((bare.to_string(), Some(if numeric { "1" } else { "k=v" })));
                } else if token.starts_with(['<', '[', '"']) {
                    positional = true;
                } else {
                    words.push(token);
                }
            }
            // `cache stats|compact`: one form per alternative.
            let last = words.pop().expect("subcommand word");
            for word in last.split('|') {
                let operand = positional.then_some("operand");
                let argv = words.iter().copied().chain([word]).chain(operand);
                forms.push(Form {
                    argv: argv.map(str::to_string).collect(),
                    positional,
                    flags: flags.clone(),
                });
            }
        }
        forms
    }

    #[test]
    fn no_args_is_help() {
        assert_eq!(parse_args(&[]).unwrap(), Invocation::Help);
        assert_eq!(parse_args(&argv(&["--help"])).unwrap(), Invocation::Help);
    }

    #[test]
    fn help_renders_usage() {
        let buf = output(Invocation::Help);
        assert!(String::from_utf8(buf).unwrap().contains("USAGE"));
    }

    #[test]
    fn every_usage_synopsis_parses_with_all_its_flags() {
        let forms = usage_forms();
        assert_eq!(forms.len(), 21, "synopsis entries read back from USAGE");
        for form in &forms {
            let mut line = form.argv.clone();
            for (flag, sample) in &form.flags {
                line.push(flag.clone());
                line.extend(sample.map(str::to_string));
            }
            assert!(parse_args(&line).is_ok(), "{line:?}");
        }
    }

    #[test]
    fn every_flag_a_parser_accepts_is_in_usage() {
        // The flags a parser accepts are the `"--flag"` literals its
        // callback matches on (test modules excluded).
        let sources = [
            include_str!("profile.rs"),
            include_str!("campaign.rs"),
            include_str!("client.rs"),
            include_str!("serve.rs"),
        ];
        let mut accepted = std::collections::BTreeSet::new();
        for source in sources {
            let code = source.split("#[cfg(test)]").next().expect("non-test part");
            for literal in code.split('"').skip(1).step_by(2) {
                let is_flag = literal
                    .strip_prefix("--")
                    .is_some_and(|name| name.chars().all(|c| c.is_ascii_lowercase() || c == '-'));
                if is_flag {
                    accepted.insert(literal);
                }
            }
        }
        assert!(accepted.len() >= 25, "flag literals found: {accepted:?}");
        let forms = usage_forms();
        let listed: Vec<&str> = forms
            .iter()
            .flat_map(|form| form.flags.iter().map(|(flag, _)| flag.as_str()))
            .collect();
        for flag in accepted {
            // `worker --cycles` is the emulator's internal re-entry
            // point, deliberately undocumented; `--help` is matched as
            // a subcommand spelling, not a flag.
            assert!(
                ["--cycles", "--help"].contains(&flag) || listed.contains(&flag),
                "{flag} is accepted by a parser but missing from USAGE"
            );
        }
    }
}
