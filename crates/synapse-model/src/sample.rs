//! Time-stamped profile samples.
//!
//! A [`Sample`] is the unit of observation produced by the profiler's
//! watcher plugins at (roughly) equidistant points in time, and the unit
//! of replay consumed by the emulation atoms. Per the paper (§4.4),
//! emulation preserves *sample order* across resource types but discards
//! absolute timing — so a sample carries both its timestamp (for
//! profiling analysis) and per-resource *delta* quantities (for replay).

use serde::{Deserialize, Serialize};

use crate::error::ModelError;

/// CPU activity within one sampling interval.
///
/// Counter fields are deltas over the interval; `threads` is a gauge
/// (instantaneous value at sampling time).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ComputeSample {
    /// CPU cycles counted toward the application (perf `cycles`).
    pub cycles: u64,
    /// Retired instructions.
    pub instructions: u64,
    /// Cycles the frontend stalled.
    pub stalled_frontend: u64,
    /// Cycles the backend stalled.
    pub stalled_backend: u64,
    /// Floating-point operations (derived or counted).
    pub flops: u64,
    /// Number of application threads at sampling time (gauge).
    pub threads: u32,
}

impl ComputeSample {
    /// Cycles "wasted" per the paper's efficiency definition: all
    /// stalled cycles, frontend plus backend.
    pub fn cycles_wasted(&self) -> u64 {
        self.stalled_frontend + self.stalled_backend
    }

    /// CPU efficiency: `cycles_used / (cycles_used + cycles_wasted)`.
    ///
    /// Returns `None` for an idle interval (no cycles at all), since the
    /// quotient is undefined there.
    pub fn efficiency(&self) -> Option<f64> {
        let spent = self.cycles + self.cycles_wasted();
        if spent == 0 {
            None
        } else {
            Some(self.cycles as f64 / spent as f64)
        }
    }

    /// Instructions retired per used cycle ("instruction rate" in the
    /// paper's Fig. 11). `None` when no cycles were used.
    pub fn ipc(&self) -> Option<f64> {
        if self.cycles == 0 {
            None
        } else {
            Some(self.instructions as f64 / self.cycles as f64)
        }
    }

    /// Element-wise sum of two compute samples.
    pub fn merged(&self, other: &ComputeSample) -> ComputeSample {
        ComputeSample {
            cycles: self.cycles + other.cycles,
            instructions: self.instructions + other.instructions,
            stalled_frontend: self.stalled_frontend + other.stalled_frontend,
            stalled_backend: self.stalled_backend + other.stalled_backend,
            flops: self.flops + other.flops,
            threads: self.threads.max(other.threads),
        }
    }
}

/// Memory activity within one sampling interval.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct MemorySample {
    /// Bytes allocated during the interval.
    pub allocated: u64,
    /// Bytes freed during the interval.
    pub freed: u64,
    /// Resident set size at sampling time (gauge).
    pub rss: u64,
    /// Peak resident set size so far (gauge, monotone).
    pub peak: u64,
}

impl MemorySample {
    /// Net allocation delta of the interval (may be negative).
    pub fn net(&self) -> i64 {
        self.allocated as i64 - self.freed as i64
    }

    /// Element-wise merge: deltas add, gauges take the maximum.
    pub fn merged(&self, other: &MemorySample) -> MemorySample {
        MemorySample {
            allocated: self.allocated + other.allocated,
            freed: self.freed + other.freed,
            rss: self.rss.max(other.rss),
            peak: self.peak.max(other.peak),
        }
    }
}

/// Disk I/O within one sampling interval.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct StorageSample {
    /// Bytes read from storage.
    pub bytes_read: u64,
    /// Bytes written to storage.
    pub bytes_written: u64,
    /// Number of read operations (when the provider reports them).
    pub read_ops: u64,
    /// Number of write operations.
    pub write_ops: u64,
}

impl StorageSample {
    /// Mean read block size over the interval, if any reads happened.
    pub fn read_block_size(&self) -> Option<u64> {
        self.bytes_read.checked_div(self.read_ops)
    }

    /// Mean write block size over the interval, if any writes happened.
    pub fn write_block_size(&self) -> Option<u64> {
        self.bytes_written.checked_div(self.write_ops)
    }

    /// Element-wise sum.
    pub fn merged(&self, other: &StorageSample) -> StorageSample {
        StorageSample {
            bytes_read: self.bytes_read + other.bytes_read,
            bytes_written: self.bytes_written + other.bytes_written,
            read_ops: self.read_ops + other.read_ops,
            write_ops: self.write_ops + other.write_ops,
        }
    }
}

/// Network traffic within one sampling interval (planned/partial in the
/// paper; carried in the model so the network atom can replay it).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct NetworkSample {
    /// Bytes sent.
    pub bytes_sent: u64,
    /// Bytes received.
    pub bytes_recv: u64,
}

impl NetworkSample {
    /// Element-wise sum.
    pub fn merged(&self, other: &NetworkSample) -> NetworkSample {
        NetworkSample {
            bytes_sent: self.bytes_sent + other.bytes_sent,
            bytes_recv: self.bytes_recv + other.bytes_recv,
        }
    }
}

/// One multi-resource observation interval.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Sample {
    /// Seconds since profile start at the *beginning* of the interval.
    pub t: f64,
    /// Interval length in seconds.
    pub dt: f64,
    /// CPU activity during the interval.
    pub compute: ComputeSample,
    /// Memory activity during the interval.
    pub memory: MemorySample,
    /// Disk I/O during the interval.
    pub storage: StorageSample,
    /// Network traffic during the interval.
    pub network: NetworkSample,
}

impl Sample {
    /// Construct an empty sample covering `[t, t + dt)`.
    pub fn at(t: f64, dt: f64) -> Self {
        Sample {
            t,
            dt,
            ..Default::default()
        }
    }

    /// End of the interval.
    pub fn t_end(&self) -> f64 {
        self.t + self.dt
    }

    /// Whether the sample records any resource activity at all.
    pub fn is_idle(&self) -> bool {
        self.compute.cycles == 0
            && self.compute.instructions == 0
            && self.compute.flops == 0
            && self.memory.allocated == 0
            && self.memory.freed == 0
            && self.storage.bytes_read == 0
            && self.storage.bytes_written == 0
            && self.network.bytes_sent == 0
            && self.network.bytes_recv == 0
    }

    /// Validate domain constraints: finite non-negative timestamp and a
    /// strictly useful (finite, non-negative) interval.
    pub fn validate(&self) -> Result<(), ModelError> {
        if !self.t.is_finite() || self.t < 0.0 {
            return Err(ModelError::InvalidValue {
                field: "t",
                reason: format!("timestamp {} must be finite and >= 0", self.t),
            });
        }
        if !self.dt.is_finite() || self.dt < 0.0 {
            return Err(ModelError::InvalidValue {
                field: "dt",
                reason: format!("interval {} must be finite and >= 0", self.dt),
            });
        }
        Ok(())
    }

    /// The quantities of this sample an emulation replays.
    pub fn demand(&self) -> Demand {
        Demand {
            cycles: self.compute.cycles,
            bytes_read: self.storage.bytes_read,
            bytes_written: self.storage.bytes_written,
            allocated: self.memory.allocated,
            freed: self.memory.freed,
            sent: self.network.bytes_sent,
            recv: self.network.bytes_recv,
        }
    }

    /// Merge another sample's resource consumption into a copy of this
    /// one (used when down-sampling a profile to a coarser rate).
    /// Timing follows this sample's start; the interval is extended to
    /// cover both.
    pub fn absorb(&self, other: &Sample) -> Sample {
        Sample {
            t: self.t.min(other.t),
            dt: (self.t_end().max(other.t_end())) - self.t.min(other.t),
            compute: self.compute.merged(&other.compute),
            memory: self.memory.merged(&other.memory),
            storage: self.storage.merged(&other.storage),
            network: self.network.merged(&other.network),
        }
    }
}

/// What one sample asks an emulation to consume: the replayed
/// quantities of a [`Sample`] and nothing else. Emulation discards
/// absolute timing (§4.4) and never reads the observations a profiler
/// records beside the demands (instructions, stalls, gauges), so the
/// simulated backend prices streams of these seven words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Demand {
    /// CPU cycles to consume.
    pub cycles: u64,
    /// Bytes to read from storage.
    pub bytes_read: u64,
    /// Bytes to write to storage.
    pub bytes_written: u64,
    /// Bytes to allocate.
    pub allocated: u64,
    /// Bytes to free.
    pub freed: u64,
    /// Bytes to send over the network.
    pub sent: u64,
    /// Bytes to receive over the network.
    pub recv: u64,
}

impl Demand {
    /// Field-wise sum: both demands issued in one sample (the
    /// all-concurrent merge of the Fig. 2 ordering ablation).
    pub fn merged(&self, other: &Demand) -> Demand {
        Demand {
            cycles: self.cycles + other.cycles,
            bytes_read: self.bytes_read + other.bytes_read,
            bytes_written: self.bytes_written + other.bytes_written,
            allocated: self.allocated + other.allocated,
            freed: self.freed + other.freed,
            sent: self.sent + other.sent,
            recv: self.recv + other.recv,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_sample() -> Sample {
        Sample {
            t: 1.0,
            dt: 0.5,
            compute: ComputeSample {
                cycles: 1000,
                instructions: 2500,
                stalled_frontend: 100,
                stalled_backend: 150,
                flops: 800,
                threads: 2,
            },
            memory: MemorySample {
                allocated: 4096,
                freed: 1024,
                rss: 1 << 20,
                peak: 2 << 20,
            },
            storage: StorageSample {
                bytes_read: 8192,
                bytes_written: 2048,
                read_ops: 4,
                write_ops: 1,
            },
            network: NetworkSample {
                bytes_sent: 10,
                bytes_recv: 20,
            },
        }
    }

    #[test]
    fn efficiency_matches_paper_formula() {
        let c = busy_sample().compute;
        // used / (used + wasted) = 1000 / (1000 + 250)
        let eff = c.efficiency().unwrap();
        assert!((eff - 0.8).abs() < 1e-12);
        assert_eq!(c.cycles_wasted(), 250);
    }

    #[test]
    fn efficiency_and_ipc_undefined_when_idle() {
        let c = ComputeSample::default();
        assert!(c.efficiency().is_none());
        assert!(c.ipc().is_none());
    }

    #[test]
    fn ipc_is_instructions_per_used_cycle() {
        let c = busy_sample().compute;
        assert!((c.ipc().unwrap() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn block_sizes_derive_from_ops() {
        let s = busy_sample().storage;
        assert_eq!(s.read_block_size(), Some(2048));
        assert_eq!(s.write_block_size(), Some(2048));
        assert_eq!(StorageSample::default().read_block_size(), None);
    }

    #[test]
    fn memory_net_can_be_negative() {
        let m = MemorySample {
            allocated: 10,
            freed: 30,
            ..Default::default()
        };
        assert_eq!(m.net(), -20);
    }

    #[test]
    fn demand_is_the_replayed_fields_and_merges_like_absorb() {
        let s = busy_sample();
        let d = s.demand();
        assert_eq!(
            (d.cycles, d.bytes_read, d.bytes_written, d.allocated),
            (1000, 8192, 2048, 4096)
        );
        assert_eq!((d.freed, d.sent, d.recv), (1024, 10, 20));
        assert_eq!(d.merged(&d), s.absorb(&s).demand());
    }

    #[test]
    fn idle_detection() {
        assert!(Sample::at(0.0, 0.1).is_idle());
        assert!(!busy_sample().is_idle());
    }

    #[test]
    fn validation_rejects_bad_timestamps() {
        let mut s = Sample::at(0.0, 0.1);
        s.t = f64::NAN;
        assert!(s.validate().is_err());
        s.t = -1.0;
        assert!(s.validate().is_err());
        s.t = 0.0;
        s.dt = f64::INFINITY;
        assert!(s.validate().is_err());
        s.dt = 0.1;
        assert!(s.validate().is_ok());
    }

    #[test]
    fn absorb_sums_deltas_and_maxes_gauges() {
        let a = busy_sample();
        let mut b = busy_sample();
        b.t = 1.5;
        b.memory.rss = 3 << 20;
        let m = a.absorb(&b);
        assert_eq!(m.t, 1.0);
        assert!((m.dt - 1.0).abs() < 1e-12); // covers [1.0, 2.0)
        assert_eq!(m.compute.cycles, 2000);
        assert_eq!(m.memory.allocated, 8192);
        assert_eq!(m.memory.rss, 3 << 20); // gauge: max
        assert_eq!(m.storage.bytes_read, 16384);
        assert_eq!(m.network.bytes_recv, 40);
    }

    #[test]
    fn serde_roundtrip() {
        let s = busy_sample();
        let json = serde_json::to_string(&s).unwrap();
        let back: Sample = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
