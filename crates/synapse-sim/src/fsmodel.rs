//! Filesystem cost models for E.5 ("Emulating Variable I/O
//! Granularity").
//!
//! The paper sweeps I/O block sizes against node-local filesystems,
//! Lustre and NFS, and observes: writes are roughly an order of
//! magnitude slower than reads ("owed to the difficulty of providing
//! cache consistency on write, specifically on shared file systems");
//! many small operations are much slower than few large ones (per-op
//! latency dominates); Lustre performs similarly across machines while
//! local storage differs significantly.
//!
//! The model is the classic latency-bandwidth form with a read cache:
//!
//! ```text
//! t(bytes, block, op) = n_ops × latency(op) + bytes / bandwidth(op)
//! n_ops = ceil(bytes / block)
//! ```
//!
//! with read latency/bandwidth improved by a cache factor (read-ahead
//! and page-cache hits, which both local disks and Lustre clients
//! provide).

use serde::{Deserialize, Serialize};

/// Which storage system class a model represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FsKind {
    /// Node-local disk (SSD or HDD) — `/tmp` in the paper's runs.
    Local,
    /// Lustre parallel filesystem.
    Lustre,
    /// NFS shared filesystem.
    Nfs,
}

impl FsKind {
    /// Display name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            FsKind::Local => "local",
            FsKind::Lustre => "lustre",
            FsKind::Nfs => "nfs",
        }
    }

    /// Parse a name (CLI/bench argument).
    pub fn parse(s: &str) -> Option<FsKind> {
        let is = |name: &str| s.eq_ignore_ascii_case(name);
        if is("local") || is("tmp") || is("/tmp") {
            Some(FsKind::Local)
        } else if is("lustre") {
            Some(FsKind::Lustre)
        } else if is("nfs") {
            Some(FsKind::Nfs)
        } else {
            None
        }
    }
}

/// Read or write, the two op classes E.5 distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IoOp {
    /// Read from storage.
    Read,
    /// Write to storage.
    Write,
}

/// A latency/bandwidth/cache model of one filesystem on one machine.
///
/// ```
/// use synapse_sim::{FsKind, FsModel, IoOp};
/// let fs = FsModel {
///     kind: FsKind::Lustre,
///     read_latency: 1.5e-4,
///     write_latency: 1.5e-3,
///     read_bandwidth: 600e6,
///     write_bandwidth: 250e6,
/// };
/// // Many small writes are far slower than few large ones (Fig. 15):
/// let small = fs.io_time(64 << 20, 4 << 10, IoOp::Write);
/// let large = fs.io_time(64 << 20, 16 << 20, IoOp::Write);
/// assert!(small > 10.0 * large);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FsModel {
    /// Which class of storage this models.
    pub kind: FsKind,
    /// Per-operation read latency in seconds (after caching).
    pub read_latency: f64,
    /// Per-operation write latency in seconds.
    pub write_latency: f64,
    /// Streaming read bandwidth in bytes/second (after caching).
    pub read_bandwidth: f64,
    /// Streaming write bandwidth in bytes/second.
    pub write_bandwidth: f64,
}

impl FsModel {
    /// Time to move `bytes` in blocks of `block_size` for `op`.
    ///
    /// `block_size` of zero is treated as one op for all bytes (the
    /// degenerate "one giant write" case).
    pub fn io_time(&self, bytes: u64, block_size: u64, op: IoOp) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        let block = if block_size == 0 { bytes } else { block_size };
        let n_ops = bytes.div_ceil(block) as f64;
        let (lat, bw) = match op {
            IoOp::Read => (self.read_latency, self.read_bandwidth),
            IoOp::Write => (self.write_latency, self.write_bandwidth),
        };
        n_ops * lat + bytes as f64 / bw
    }

    /// Effective throughput in bytes/second at a given block size.
    pub fn throughput(&self, bytes: u64, block_size: u64, op: IoOp) -> f64 {
        let t = self.io_time(bytes, block_size, op);
        if t <= 0.0 {
            0.0
        } else {
            bytes as f64 / t
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> FsModel {
        FsModel {
            kind: FsKind::Local,
            read_latency: 1e-5,
            write_latency: 1e-4,
            read_bandwidth: 500e6,
            write_bandwidth: 100e6,
        }
    }

    #[test]
    fn small_blocks_cost_more_than_large() {
        let m = model();
        let bytes = 64 * 1024 * 1024;
        let t_small = m.io_time(bytes, 1024, IoOp::Write);
        let t_large = m.io_time(bytes, 16 * 1024 * 1024, IoOp::Write);
        assert!(
            t_small > 5.0 * t_large,
            "per-op latency must dominate at small blocks: {t_small} vs {t_large}"
        );
    }

    #[test]
    fn writes_slower_than_reads() {
        let m = model();
        let bytes = 16 * 1024 * 1024;
        let block = 64 * 1024;
        assert!(m.io_time(bytes, block, IoOp::Write) > m.io_time(bytes, block, IoOp::Read));
    }

    #[test]
    fn zero_bytes_cost_nothing() {
        assert_eq!(model().io_time(0, 4096, IoOp::Read), 0.0);
    }

    #[test]
    fn zero_block_means_single_op() {
        let m = model();
        let bytes = 1024 * 1024;
        let t = m.io_time(bytes, 0, IoOp::Read);
        let expect = m.read_latency + bytes as f64 / m.read_bandwidth;
        assert!((t - expect).abs() < 1e-12);
    }

    #[test]
    fn io_time_scales_with_bytes_at_fixed_block() {
        let m = model();
        let t1 = m.io_time(1 << 20, 4096, IoOp::Write);
        let t2 = m.io_time(2 << 20, 4096, IoOp::Write);
        assert!((t2 / t1 - 2.0).abs() < 0.01);
    }

    #[test]
    fn throughput_improves_with_block_size_monotonically() {
        let m = model();
        let bytes = 32 * 1024 * 1024;
        let mut last = 0.0;
        for pow in 10..=24 {
            let tp = m.throughput(bytes, 1 << pow, IoOp::Write);
            assert!(
                tp >= last,
                "throughput must be non-decreasing in block size"
            );
            last = tp;
        }
        // And bounded by raw bandwidth.
        assert!(last <= m.write_bandwidth);
    }

    #[test]
    fn fs_kind_names_and_parse() {
        for k in [FsKind::Local, FsKind::Lustre, FsKind::Nfs] {
            assert_eq!(FsKind::parse(k.name()), Some(k));
        }
        assert_eq!(FsKind::parse("/tmp"), Some(FsKind::Local));
        assert_eq!(FsKind::parse("LUSTRE"), Some(FsKind::Lustre));
        assert_eq!(FsKind::parse("gpfs"), None);
    }

    #[test]
    fn partial_last_block_rounds_op_count_up() {
        let m = model();
        // 10 KiB in 4 KiB blocks = 3 ops.
        let t = m.io_time(10 * 1024, 4 * 1024, IoOp::Read);
        let expect = 3.0 * m.read_latency + 10.0 * 1024.0 / m.read_bandwidth;
        assert!((t - expect).abs() < 1e-12);
    }
}
