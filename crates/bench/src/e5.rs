//! E.5 — Emulating variable I/O granularity (Fig. 15).
//!
//! A static, homogeneous set of I/O operations is emulated toward
//! different filesystems with different block sizes. Expected shapes:
//! writes ~an order of magnitude slower than reads; small blocks much
//! slower than large ones; Lustre performs about the same on Titan and
//! Supermic while the local filesystems differ significantly (Titan's
//! local FS is much faster).

use synapse_sim::{comet, supermic, titan, FsKind, IoOp};

/// The swept block sizes (bytes), 4 KiB … 16 MiB.
pub const BLOCKS: [u64; 6] = [4 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20];

/// Total bytes moved per configuration.
pub const TOTAL_BYTES: u64 = 256 << 20;

/// One measured configuration.
pub struct IoPoint {
    /// Machine name.
    pub machine: String,
    /// Filesystem.
    pub fs: FsKind,
    /// Operation.
    pub op: IoOp,
    /// Block size in bytes.
    pub block: u64,
    /// Modelled time in seconds.
    pub seconds: f64,
}

/// Run the full sweep.
pub fn sweep() -> Vec<IoPoint> {
    let mut points = Vec::new();
    for machine in [titan(), supermic(), comet()] {
        for fs in [FsKind::Local, FsKind::Lustre, FsKind::Nfs] {
            if machine.fs(fs).is_none() {
                continue;
            }
            for op in [IoOp::Read, IoOp::Write] {
                for block in BLOCKS {
                    points.push(IoPoint {
                        machine: machine.name.clone(),
                        fs,
                        op,
                        block,
                        seconds: machine.io_time(TOTAL_BYTES, block, op, fs),
                    });
                }
            }
        }
    }
    points
}

/// Fig. 15 — the I/O granularity table.
pub fn run_fig15() -> String {
    let points = sweep();
    let mut out = format!(
        "Fig 15 — I/O emulation: {} MiB moved per configuration, time in seconds.\n\
         Writes are ~an order of magnitude slower than reads; small blocks pay\n\
         per-operation latency; Lustre is similar on Titan and Supermic while\n\
         the local filesystems differ significantly.\n\n",
        TOTAL_BYTES >> 20
    );
    out.push_str(&format!("{:<10} {:<8} {:<6}", "machine", "fs", "op"));
    for b in BLOCKS {
        out.push_str(&format!(
            "{:>10}",
            if b >= 1 << 20 {
                format!("{}MiB", b >> 20)
            } else {
                format!("{}KiB", b >> 10)
            }
        ));
    }
    out.push('\n');
    // `sweep` walks the blocks innermost: each chunk is one table row.
    for row in points.chunks(BLOCKS.len()) {
        let p = &row[0];
        let op = if p.op == IoOp::Read { "read" } else { "write" };
        out.push_str(&format!("{:<10} {:<8} {op:<6}", p.machine, p.fs.name()));
        for q in row {
            out.push_str(&format!("{:>10.2}", q.seconds));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find(points: &[IoPoint], machine: &str, fs: FsKind, op: IoOp, block: u64) -> f64 {
        points
            .iter()
            .find(|p| p.machine == machine && p.fs == fs && p.op == op && p.block == block)
            .map(|p| p.seconds)
            .unwrap_or(f64::NAN)
    }

    #[test]
    fn writes_slower_than_reads_everywhere() {
        let points = sweep();
        for p in points.iter().filter(|p| p.op == IoOp::Write) {
            let read = find(&points, &p.machine, p.fs, IoOp::Read, p.block);
            assert!(
                p.seconds > read,
                "{} {} block {}: write {} vs read {}",
                p.machine,
                p.fs.name(),
                p.block,
                p.seconds,
                read
            );
        }
    }

    #[test]
    fn writes_an_order_of_magnitude_slower_at_small_blocks() {
        let points = sweep();
        for machine in ["titan", "supermic"] {
            let w = find(&points, machine, FsKind::Lustre, IoOp::Write, 4 << 10);
            let r = find(&points, machine, FsKind::Lustre, IoOp::Read, 4 << 10);
            assert!(w > 5.0 * r, "{machine}: {w} vs {r}");
        }
    }

    #[test]
    fn small_blocks_much_slower_than_large() {
        let points = sweep();
        for p in sweep().iter().filter(|p| p.block == 4 << 10) {
            let large = find(&points, &p.machine, p.fs, p.op, 16 << 20);
            assert!(
                p.seconds > 2.0 * large,
                "{} {} {:?}: small {} vs large {}",
                p.machine,
                p.fs.name(),
                p.op,
                p.seconds,
                large
            );
        }
    }

    #[test]
    fn lustre_similar_across_machines_local_not() {
        let points = sweep();
        for op in [IoOp::Read, IoOp::Write] {
            for block in BLOCKS {
                let t = find(&points, "titan", FsKind::Lustre, op, block);
                let s = find(&points, "supermic", FsKind::Lustre, op, block);
                assert!((t / s - 1.0).abs() < 0.05, "lustre similar");
            }
        }
        let t_local = find(&points, "titan", FsKind::Local, IoOp::Write, 1 << 20);
        let s_local = find(&points, "supermic", FsKind::Local, IoOp::Write, 1 << 20);
        assert!(t_local < s_local / 2.0, "titan local much faster");
    }

    #[test]
    fn monotone_in_block_size() {
        let points = sweep();
        for machine in ["titan", "supermic", "comet"] {
            for fs in [FsKind::Local, FsKind::Lustre, FsKind::Nfs] {
                for op in [IoOp::Read, IoOp::Write] {
                    let series: Vec<f64> = BLOCKS
                        .iter()
                        .map(|&b| find(&points, machine, fs, op, b))
                        .filter(|v| v.is_finite())
                        .collect();
                    for w in series.windows(2) {
                        assert!(w[1] <= w[0] + 1e-9, "{machine} {}", fs.name());
                    }
                }
            }
        }
    }

    #[test]
    fn output_renders_nfs_row_for_comet() {
        let out = run_fig15();
        assert!(out.contains("comet"));
        assert!(out.contains("nfs"));
        assert!(out.contains("lustre"));
    }
}
