//! I/O malleability (E.5): tune filesystem and block size of an
//! emulation, on models and for real.
//!
//! ```text
//! cargo run --release --example io_tuning
//! ```
//!
//! First sweeps the simulated filesystems of Titan and Supermic across
//! block sizes (the paper's Fig. 15 axes), then runs a small *real*
//! block-size sweep through the storage atom on this host's temp
//! filesystem.

#![expect(
    clippy::print_stdout,
    reason = "an example prints what it demonstrates"
)]

use synapse_atoms::StorageAtom;
use synapse_sim::{machine_by_name, FsKind, IoOp};

fn main() {
    let bytes: u64 = 64 << 20; // 64 MiB workload
    let blocks: [u64; 5] = [4 << 10, 64 << 10, 1 << 20, 4 << 20, 16 << 20];

    println!("simulated I/O time (s) for {} MiB:", bytes >> 20);
    println!(
        "{:<10} {:<8} {:<6} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "machine", "fs", "op", "4KiB", "64KiB", "1MiB", "4MiB", "16MiB"
    );
    for machine_name in ["titan", "supermic"] {
        let machine = machine_by_name(machine_name).expect("catalog machine");
        for fs in [FsKind::Local, FsKind::Lustre] {
            if machine.fs(fs).is_none() {
                continue;
            }
            for op in [IoOp::Read, IoOp::Write] {
                let times: Vec<String> = blocks
                    .iter()
                    .map(|&b| format!("{:10.3}", machine.io_time(bytes, b, op, fs)))
                    .collect();
                println!(
                    "{:<10} {:<8} {:<6} {}",
                    machine.name,
                    fs.name(),
                    if op == IoOp::Read { "read" } else { "write" },
                    times.join(" ")
                );
            }
        }
    }

    // A small real sweep on this host (8 MiB so it stays quick).
    println!();
    println!("real write throughput on this host (8 MiB through the storage atom):");
    let real_bytes: u64 = 8 << 20;
    for &block in &blocks {
        let dir = std::env::temp_dir().join("synapse-io-tuning");
        let mut atom =
            StorageAtom::with_config(&dir, block, block, 64 << 20).expect("storage atom");
        let report = atom.write(real_bytes).expect("write sweep");
        let secs = report.elapsed.as_secs_f64().max(1e-9);
        println!(
            "  block {:>9}: {:>8.1} MiB/s ({} ops)",
            format!("{} KiB", block >> 10),
            real_bytes as f64 / (1 << 20) as f64 / secs,
            report.operations
        );
        atom.cleanup();
    }
    println!();
    println!("Small blocks pay per-operation latency — the Fig. 15 mechanism.");
}
