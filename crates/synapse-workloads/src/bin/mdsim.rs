//! `synapse-mdsim` — the Gromacs stand-in as a black-box executable.
//!
//! Usage:
//! ```text
//! synapse-mdsim --steps 10000 [--particles 64] [--frame-interval 100]
//!               [--out /tmp/traj.trj] [--in topology.dat] [--quiet]
//! ```
//!
//! The profiler observes this process exactly like the paper observes
//! `gromacs mdrun`: it only sees `/proc` counters and CPU activity.

#![expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "a command-line tool: its output and usage errors go to the terminal"
)]

use std::path::PathBuf;
use std::process::ExitCode;

use synapse_workloads::{MdConfig, MdSim};

fn main() -> ExitCode {
    let mut config = MdConfig::default();
    let mut quiet = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
        };
        match arg.as_str() {
            "--steps" => config.steps = value("--steps").parse().expect("--steps"),
            "--particles" => config.particles = value("--particles").parse().expect("--particles"),
            "--frame-interval" => {
                config.frame_interval = value("--frame-interval").parse().expect("--frame-interval")
            }
            "--out" => config.output = Some(PathBuf::from(value("--out"))),
            "--in" => config.input = Some(PathBuf::from(value("--in"))),
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                eprintln!(
                    "synapse-mdsim --steps N [--particles N] [--frame-interval N] \
                     [--out PATH] [--in PATH] [--quiet]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(2);
            }
        }
    }
    match MdSim::new(config).run() {
        Ok(report) => {
            if !quiet {
                println!(
                    "steps={} frames={} bytes_written={} bytes_read={} flops={} energy={:.6}",
                    report.steps,
                    report.frames_written,
                    report.bytes_written,
                    report.bytes_read,
                    report.flops,
                    report.total_energy
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("mdsim failed: {e}");
            ExitCode::FAILURE
        }
    }
}
