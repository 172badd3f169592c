//! Phase-scripted synthetic workloads.
//!
//! Figures 2–3 of the paper reason about applications with "a mix of
//! serial and concurrent CPU and disk operations". This module scripts
//! such applications explicitly as a sequence of phases, each either a
//! single operation or a group of concurrent operations. Scripts can
//! be *executed for real* (burn CPU, hit the filesystem — for live
//! profiling on this host) and are also consumed analytically by the
//! simulated profiler.

use std::fs::File;
use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

/// One primitive operation of a synthetic application.
#[derive(Debug, Clone, PartialEq)]
pub enum PhaseOp {
    /// Execute roughly `flops` floating-point operations.
    Compute {
        /// FLOP count of the phase.
        flops: u64,
    },
    /// Write `bytes` to a scratch file in blocks of `block`.
    DiskWrite {
        /// Total bytes.
        bytes: u64,
        /// Block size per write call.
        block: u64,
    },
    /// Read `bytes` back from the scratch file in blocks of `block`.
    DiskRead {
        /// Total bytes.
        bytes: u64,
        /// Block size per read call.
        block: u64,
    },
    /// Hold `bytes` of additionally allocated memory from this phase
    /// on (touching every page).
    Allocate {
        /// Bytes to allocate and touch.
        bytes: u64,
    },
    /// Run the inner operations concurrently (threads).
    Concurrent(Vec<PhaseOp>),
}

impl PhaseOp {
    /// Total FLOPs contributed by this op (recursively).
    pub fn flops(&self) -> u64 {
        match self {
            PhaseOp::Compute { flops } => *flops,
            PhaseOp::Concurrent(ops) => ops.iter().map(PhaseOp::flops).sum(),
            _ => 0,
        }
    }

    /// Total bytes written (recursively).
    pub fn bytes_written(&self) -> u64 {
        match self {
            PhaseOp::DiskWrite { bytes, .. } => *bytes,
            PhaseOp::Concurrent(ops) => ops.iter().map(PhaseOp::bytes_written).sum(),
            _ => 0,
        }
    }

    /// Total bytes read (recursively).
    pub fn bytes_read(&self) -> u64 {
        match self {
            PhaseOp::DiskRead { bytes, .. } => *bytes,
            PhaseOp::Concurrent(ops) => ops.iter().map(PhaseOp::bytes_read).sum(),
            _ => 0,
        }
    }
}

/// A synthetic application: an ordered list of phases executed one
/// after another (ops inside a [`PhaseOp::Concurrent`] run together).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PhaseScript {
    /// The phases, in execution order.
    pub phases: Vec<PhaseOp>,
    /// Scratch directory for disk phases (temp dir by default).
    pub scratch: Option<PathBuf>,
}

/// Outcome of a real execution.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ScriptReport {
    /// FLOPs executed.
    pub flops: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Peak additional bytes held by Allocate phases.
    pub allocated: u64,
}

impl PhaseScript {
    /// A script made of the given phases using the default scratch dir.
    pub fn new(phases: Vec<PhaseOp>) -> Self {
        PhaseScript {
            phases,
            scratch: None,
        }
    }

    /// The paper's Fig. 2 example: serial compute and disk phases with
    /// one concurrent stretch, sized so the whole run takes roughly
    /// `scale` × 100 ms of compute on a laptop-class core.
    pub fn fig2_example(scale: u64) -> Self {
        let c = 40_000_000 * scale; // flops per compute phase
        let d = 4 * 1024 * 1024 * scale; // bytes per disk phase
        PhaseScript::new(vec![
            PhaseOp::Compute { flops: c },
            PhaseOp::DiskWrite {
                bytes: d,
                block: 1 << 20,
            },
            PhaseOp::Compute { flops: c / 2 },
            PhaseOp::Concurrent(vec![
                PhaseOp::Compute { flops: c },
                PhaseOp::DiskWrite {
                    bytes: d / 2,
                    block: 1 << 20,
                },
            ]),
            PhaseOp::DiskRead {
                bytes: d,
                block: 1 << 20,
            },
            PhaseOp::Compute { flops: c / 2 },
        ])
    }

    /// Total expected FLOPs of the script.
    pub fn total_flops(&self) -> u64 {
        self.phases.iter().map(PhaseOp::flops).sum()
    }

    /// Total expected bytes written.
    pub fn total_bytes_written(&self) -> u64 {
        self.phases.iter().map(PhaseOp::bytes_written).sum()
    }

    /// Total expected bytes read.
    pub fn total_bytes_read(&self) -> u64 {
        self.phases.iter().map(PhaseOp::bytes_read).sum()
    }

    /// Execute the script for real on this host.
    pub fn execute(&self) -> std::io::Result<ScriptReport> {
        // Unique per call, not per process: scripts executing
        // concurrently in one process must not share, truncate or
        // clean up each other's scratch file.
        static NEXT_SCRATCH: AtomicU64 = AtomicU64::new(0);
        let seq = NEXT_SCRATCH.fetch_add(1, Ordering::Relaxed);
        let scratch = self
            .scratch
            .clone()
            .unwrap_or_else(std::env::temp_dir)
            .join(format!("synapse-synth-{}-{seq}.dat", std::process::id()));
        let mut report = ScriptReport::default();
        let mut held: Vec<Vec<u8>> = Vec::new();
        for (i, phase) in self.phases.iter().enumerate() {
            execute_op(phase, &scratch, i, &mut report, &mut held)?;
        }
        let _ = std::fs::remove_file(&scratch);
        Ok(report)
    }
}

fn execute_op(
    op: &PhaseOp,
    scratch: &PathBuf,
    index: usize,
    report: &mut ScriptReport,
    held: &mut Vec<Vec<u8>>,
) -> std::io::Result<()> {
    match op {
        PhaseOp::Compute { flops } => {
            std::hint::black_box(busy_flops(*flops));
            report.flops += flops;
        }
        PhaseOp::DiskWrite { bytes, block } => {
            let written = write_file(scratch, *bytes, *block)?;
            report.bytes_written += written;
        }
        PhaseOp::DiskRead { bytes, block } => {
            // Ensure the file is large enough, then read.
            if std::fs::metadata(scratch).map(|m| m.len()).unwrap_or(0) < *bytes {
                write_file(scratch, *bytes, (*block).max(1 << 20))?;
                report.bytes_written += *bytes;
            }
            report.bytes_read += read_file(scratch, *bytes, *block)?;
        }
        PhaseOp::Allocate { bytes } => {
            let mut buf = vec![0u8; *bytes as usize];
            // Touch each page so the allocation becomes resident.
            for i in (0..buf.len()).step_by(4096) {
                buf[i] = 1;
            }
            report.allocated += *bytes;
            held.push(buf);
        }
        PhaseOp::Concurrent(ops) => {
            let results: Vec<std::io::Result<ScriptReport>> = thread::scope(|s| {
                let handles: Vec<_> = ops
                    .iter()
                    .enumerate()
                    .map(|(j, inner)| {
                        let path = scratch.with_extension(format!("c{index}-{j}"));
                        s.spawn(move || {
                            let mut r = ScriptReport::default();
                            let mut h = Vec::new();
                            execute_op(inner, &path, j, &mut r, &mut h)?;
                            let _ = std::fs::remove_file(&path);
                            Ok(r)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for r in results {
                let r = r?;
                report.flops += r.flops;
                report.bytes_written += r.bytes_written;
                report.bytes_read += r.bytes_read;
                report.allocated += r.allocated;
            }
        }
    }
    Ok(())
}

fn write_file(path: &PathBuf, bytes: u64, block: u64) -> std::io::Result<u64> {
    let block = block.max(1) as usize;
    let buf = vec![0xabu8; block];
    let mut f = File::create(path)?;
    let mut remaining = bytes;
    while remaining > 0 {
        let n = remaining.min(block as u64) as usize;
        f.write_all(&buf[..n])?;
        remaining -= n as u64;
    }
    f.flush()?;
    Ok(bytes)
}

fn read_file(path: &PathBuf, bytes: u64, block: u64) -> std::io::Result<u64> {
    let block = block.max(1) as usize;
    let mut buf = vec![0u8; block];
    let mut f = File::open(path)?;
    let mut total = 0u64;
    while total < bytes {
        let n = f.read(&mut buf)?;
        if n == 0 {
            break;
        }
        total += n as u64;
    }
    Ok(total)
}

/// Execute approximately `flops` floating-point operations (a fused
/// multiply-add chain, 2 FLOPs per iteration), returning a value that
/// defeats constant folding.
#[inline(never)]
pub fn busy_flops(flops: u64) -> f64 {
    let iters = flops / 2;
    let mut acc = 1.000000001f64;
    let mut x = 0.999999999f64;
    for _ in 0..iters {
        acc = acc.mul_add(x, 1e-12); // 2 flops
        if acc > 1e12 {
            x = 1.0 / acc; // rare rescale, keeps values finite
        }
    }
    acc + x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_flops_is_deterministic_and_scaling() {
        assert_eq!(busy_flops(1000).to_bits(), busy_flops(1000).to_bits());
        assert!(busy_flops(0).is_finite());
        assert!(busy_flops(100_000).is_finite());
    }

    #[test]
    fn script_accounting_matches_expectations() {
        let s = PhaseScript::fig2_example(1);
        assert!(s.total_flops() > 0);
        assert!(s.total_bytes_written() > 0);
        assert!(s.total_bytes_read() > 0);
        // flops: c + c/2 + c + c/2 = 3c with c = 40M
        assert_eq!(s.total_flops(), 3 * 40_000_000);
    }

    #[test]
    fn executes_serial_phases_for_real() {
        let s = PhaseScript::new(vec![
            PhaseOp::Compute { flops: 1_000_000 },
            PhaseOp::DiskWrite {
                bytes: 64 * 1024,
                block: 4096,
            },
            PhaseOp::DiskRead {
                bytes: 64 * 1024,
                block: 4096,
            },
        ]);
        let r = s.execute().unwrap();
        assert_eq!(r.flops, 1_000_000);
        assert_eq!(r.bytes_written, 64 * 1024);
        assert_eq!(r.bytes_read, 64 * 1024);
    }

    #[test]
    fn executes_concurrent_phase() {
        let s = PhaseScript::new(vec![PhaseOp::Concurrent(vec![
            PhaseOp::Compute { flops: 500_000 },
            PhaseOp::DiskWrite {
                bytes: 32 * 1024,
                block: 4096,
            },
            PhaseOp::Compute { flops: 500_000 },
        ])]);
        let r = s.execute().unwrap();
        assert_eq!(r.flops, 1_000_000);
        assert_eq!(r.bytes_written, 32 * 1024);
    }

    #[test]
    fn allocation_phase_holds_memory() {
        let s = PhaseScript::new(vec![PhaseOp::Allocate { bytes: 1 << 20 }]);
        let r = s.execute().unwrap();
        assert_eq!(r.allocated, 1 << 20);
    }

    #[test]
    fn read_of_missing_data_backfills_the_file() {
        // A script that reads before writing still succeeds: the
        // executor materializes the scratch file first.
        let s = PhaseScript::new(vec![PhaseOp::DiskRead {
            bytes: 16 * 1024,
            block: 4096,
        }]);
        let r = s.execute().unwrap();
        assert_eq!(r.bytes_read, 16 * 1024);
    }

    #[test]
    fn concurrent_scripts_use_separate_scratch_files() {
        // Scripts executing at once in one process (as tests do) must
        // never read a file another call truncated or removed.
        const BYTES: u64 = 256 * 1024;
        let script = PhaseScript::new(vec![
            PhaseOp::DiskWrite {
                bytes: BYTES,
                block: 4096,
            },
            PhaseOp::DiskRead {
                bytes: BYTES,
                block: 4096,
            },
        ]);
        let start = std::sync::Barrier::new(8);
        thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..25 {
                        let r = script.execute().unwrap();
                        assert_eq!((r.bytes_written, r.bytes_read), (BYTES, BYTES));
                    }
                });
            }
        });
    }

    #[test]
    fn recursive_accounting_through_concurrent() {
        let op = PhaseOp::Concurrent(vec![
            PhaseOp::Compute { flops: 10 },
            PhaseOp::Concurrent(vec![
                PhaseOp::DiskWrite { bytes: 5, block: 1 },
                PhaseOp::DiskRead { bytes: 7, block: 1 },
            ]),
        ]);
        assert_eq!(op.flops(), 10);
        assert_eq!(op.bytes_written(), 5);
        assert_eq!(op.bytes_read(), 7);
    }
}
