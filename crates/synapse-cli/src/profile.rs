//! The one-shot wrappers around the paper's profile and emulate
//! methods (§4): `profile`, `emulate` (and its internal `worker`),
//! `stats`, `inspect`, plus the `table1` / `machines` listings.

use std::io::Write;

use synapse::config::ProfilerConfig;
use synapse::emulator::{EmulationPlan, KernelChoice};
use synapse_campaign::grid;
use synapse_model::{metrics, ProfileKey, Tags};
use synapse_store::{FileStore, ProfileStore};

use crate::{args, default_store, CliError, Invocation};

/// Parse `<sub> "<command>" [flags]`. The family shares one flag set;
/// the subcommand name is only checked once the flags have parsed.
pub(crate) fn parse(sub: &str, argv: &[String]) -> Result<Invocation, String> {
    let mut tags = Tags::new();
    let mut rate = 10.0;
    let mut store = default_store();
    let mut kernel = "asm".to_string();
    let mut threads = 1u32;
    let mut mode = "openmp".to_string();
    let mut write_block = 1u64 << 20;
    let mut cycles = 0u64;
    let command = args::walk(argv, Some(" (quote the command)"), |flag, args| {
        match flag {
            "--tags" => tags = Tags::parse(&args.value()?),
            "--rate" => rate = args.parse()?,
            "--store" => store = args.value()?.into(),
            "--kernel" => kernel = args.value()?,
            "--threads" => threads = args.parse()?,
            "--mode" => mode = args.value()?,
            "--cycles" => cycles = args.parse()?,
            "--write-block" => write_block = args.parse()?,
            _ => return Err(format!("unknown flag {flag}")),
        }
        Ok(())
    })?;
    let command = command.ok_or_else(|| format!("{sub} requires a command argument"));
    Ok(match sub {
        "profile" => Invocation::Profile {
            command: command?,
            tags,
            rate,
            store,
        },
        "emulate" => Invocation::Emulate {
            command: command?,
            tags,
            kernel,
            threads,
            mode,
            write_block,
            store,
        },
        "worker" => Invocation::Worker { kernel, cycles },
        "stats" => Invocation::Stats {
            command: command?,
            tags,
            store,
        },
        "inspect" => Invocation::Inspect {
            command: command?,
            tags,
            store,
        },
        "table1" => Invocation::Table1,
        "machines" => Invocation::Machines,
        "help" | "--help" | "-h" => Invocation::Help,
        other => return Err(format!("unknown subcommand {other}")),
    })
}

/// Resolve a kernel name to a [`KernelChoice`].
fn kernel_by_name(name: &str) -> Result<KernelChoice, CliError> {
    let known = grid::kernel_by_name(name);
    known.ok_or_else(|| {
        let other = name.to_ascii_lowercase();
        format!("unknown kernel {other} (asm | c | spin)").into()
    })
}

/// Execute one of this family's invocations.
pub(crate) fn run(invocation: Invocation, out: &mut impl Write) -> Result<(), CliError> {
    match invocation {
        Invocation::Table1 => write!(out, "{}", metrics::render_table1())?,
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
                )?;
            }
        }
        Invocation::Profile {
            command,
            tags,
            rate,
            store,
        } => {
            let store = FileStore::open(&store)?;
            let config = ProfilerConfig::with_rate(rate);
            let outcome = synapse::api::profile(&command, Some(tags), &store, &config)?;
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
            )?;
        }
        Invocation::Worker { kernel, cycles } => {
            let run = kernel_by_name(&kernel)?.build().execute_cycles(cycles);
            writeln!(out, "consumed={}", run.consumed_cycles)?;
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
            let store = FileStore::open(&store)?;
            let mode = grid::mode_by_name(&mode).ok_or_else(|| {
                let other = mode.to_ascii_lowercase();
                format!("unknown mode {other} (openmp | mpi)")
            })?;
            let plan = EmulationPlan {
                kernel: kernel_by_name(&kernel)?,
                threads,
                mode,
                // MPI-analogue workers re-invoke this very binary.
                worker_binary: std::env::current_exe().ok(),
                io_write_block: write_block,
                ..Default::default()
            };
            let report = synapse::api::emulate(&command, Some(tags), &store, &plan)?;
            writeln!(
                out,
                "emulated {:?}: Tx={:.3}s samples={} directed_cycles={} consumed_cycles={}",
                command,
                report.tx,
                report.samples,
                report.consumed.directed_cycles,
                report.consumed.cycles,
            )?;
        }
        Invocation::Stats {
            command,
            tags,
            store,
        } => {
            let store = FileStore::open(&store)?;
            let set = store.load_set(&ProfileKey::new(command.trim(), tags))?;
            let rt = set.runtime_summary()?;
            let cycles = set.totals_summary(|t| t.cycles as f64)?;
            writeln!(
                out,
                "{} runs: Tx mean={:.3}s std={:.3}s ci99={:.3}s | cycles mean={:.3e} ci99={:.3e}",
                set.len(),
                rt.mean,
                rt.std,
                rt.ci99(),
                cycles.mean,
                cycles.ci99(),
            )?;
        }
        Invocation::Inspect {
            command,
            tags,
            store,
        } => {
            let store = FileStore::open(&store)?;
            let profile = store.load_representative(&ProfileKey::new(command.trim(), tags))?;
            writeln!(out, "{}", profile.to_json()?)?;
        }
        other => unreachable!("not a profile-family invocation: {other:?}"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_args;
    use crate::tests::{argv, output, output_text};
    use std::path::PathBuf;

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
    fn kernel_names_resolve() {
        assert!(kernel_by_name("ASM").is_ok());
        assert!(kernel_by_name("c").is_ok());
        assert!(kernel_by_name("spin").is_ok());
        assert!(kernel_by_name("fortran").is_err());
    }

    #[test]
    fn table1_and_machines_render() {
        let s = output_text(Invocation::Table1);
        assert!(s.contains("FLOPs"));
        let s2 = output_text(Invocation::Machines);
        assert!(s2.contains("thinkie"));
        assert!(s2.contains("titan"));
    }

    #[test]
    fn profile_and_stats_through_cli_layer() {
        let dir = std::env::temp_dir().join(format!("synapse-cli-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let buf = output(Invocation::Profile {
            command: "sleep 0.1".into(),
            tags: Tags::parse("t=cli"),
            rate: 10.0,
            store: dir.clone(),
        });
        assert!(String::from_utf8(buf).unwrap().contains("Tx="));
        let buf2 = output(Invocation::Stats {
            command: "sleep 0.1".into(),
            tags: Tags::parse("t=cli"),
            store: dir.clone(),
        });
        assert!(String::from_utf8(buf2).unwrap().contains("1 runs"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
