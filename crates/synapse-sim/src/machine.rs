//! Whole-machine resource models.
//!
//! A [`MachineModel`] combines a CPU model, per-kernel execution
//! characteristics, memory and filesystem models, and parallel-scaling
//! parameters. Simulated application execution and simulated emulation
//! both price their resource consumption against these models, which
//! is what makes the cross-resource experiments (E.2–E.5) runnable
//! without the original testbeds.
//!
//! ## Mechanisms (not curves)
//!
//! * **Emulation cycle overshoot** (E.3): a compute kernel executes in
//!   whole work units (one matrix multiplication) of `unit_cycles`
//!   cycles, each carrying a fractional loop/bookkeeping overhead.
//!   Consumed cycles are `ceil(directed/unit) × unit × (1+overhead)`,
//!   applied per profile sample (about a second of the run each), so
//!   the error is the overhead fraction plus each sample's round-up to
//!   a whole unit. It does not shrink with run length: on
//!   `examples/paper/e3.toml` (1 Hz samples) Comet's cycle error is
//!   3.5 % (C) / 14.5 % (ASM) at 1,000 steps and 3.7 % / 14.6 % at
//!   100,000, Supermic's 4.0 % / 26.5 % and 4.2 % / 26.6 % (Fig 8).
//!   The shortest runs are one sample of a whole number of units, so
//!   they carry the overhead alone; longer runs add a little rounding.
//! * **Cross-machine Tx offsets** (E.2): wall time of a cycle budget is
//!   `cycles / (freq × efficiency)`. The application and each kernel
//!   have machine-specific efficiencies (compile-time optimization,
//!   cache behaviour), so emulation is systematically faster on
//!   machines where the default kernel out-runs the application
//!   (Stampede) and slower where it under-runs it (Archer).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use synapse_model::SystemInfo;

use crate::fsmodel::{FsKind, FsModel, IoOp};
use crate::parallel::{ParallelMode, ParallelModel};

/// Which compute implementation is consuming cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum KernelClass {
    /// The real application (used when simulating application runs).
    Application,
    /// The paper's C matrix-multiplication kernel: matrices do *not*
    /// fit in cache, more realistic memory access.
    CMatmul,
    /// The paper's assembly kernel: small in-cache matrices, maximum
    /// efficiency.
    AsmMatmul,
}

impl KernelClass {
    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            KernelClass::Application => "application",
            KernelClass::CMatmul => "C",
            KernelClass::AsmMatmul => "ASM",
        }
    }
}

/// Execution characteristics of one kernel class on one machine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KernelProfile {
    /// Instructions retired per used cycle (Fig. 11's metric).
    pub ipc: f64,
    /// Efficiency: used cycles / (used + stalled) — wall time of a
    /// cycle budget is `cycles / (freq × efficiency)`.
    pub efficiency: f64,
    /// Converged fractional cycle overshoot of the emulation (0 for
    /// the application itself).
    pub overhead_frac: f64,
    /// Work quantum in cycles (one matrix multiplication); drives the
    /// large relative error of very short emulations.
    pub unit_cycles: u64,
}

impl KernelProfile {
    /// Cycles actually consumed when the emulator directs
    /// `directed_cycles` at this kernel.
    ///
    /// ```
    /// use synapse_sim::{comet, KernelClass};
    /// let machine = comet();
    /// let asm = machine.kernel(KernelClass::AsmMatmul);
    /// // Long emulations converge to the kernel's overhead fraction
    /// // (~14.5 % for the ASM kernel on Comet, Fig. 8):
    /// let directed = 100_000_000_000u64;
    /// let err = asm.consumed_cycles(directed) as f64 / directed as f64 - 1.0;
    /// assert!((err - 0.145).abs() < 0.01);
    /// ```
    pub fn consumed_cycles(&self, directed_cycles: u64) -> u64 {
        if directed_cycles == 0 {
            return 0;
        }
        let unit = self.unit_cycles.max(1);
        let units = directed_cycles.div_ceil(unit);
        let raw = units.saturating_mul(unit);
        (raw as f64 * (1.0 + self.overhead_frac.max(0.0))) as u64
    }
}

/// CPU-level parameters of a machine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuModel {
    /// Advertised base clock in Hz (Table "System" metric).
    pub nominal_freq_hz: f64,
    /// Sustained effective clock in Hz (the paper measures e.g.
    /// ~2.88–2.90 GHz on Comet, ~3.58–3.60 GHz on Supermic under
    /// turbo).
    pub effective_freq_hz: f64,
    /// Cores per node.
    pub ncores: u32,
}

/// A complete machine model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineModel {
    /// Machine name as the paper uses it ("thinkie", "stampede", ...).
    pub name: String,
    /// CPU parameters.
    pub cpu: CpuModel,
    /// Total node memory in bytes.
    pub total_memory: u64,
    /// Sustained memory bandwidth in bytes/second (prices the memory
    /// atom's allocation/touch traffic).
    pub mem_bandwidth: f64,
    /// Loopback/interconnect bandwidth in bytes/second (network atom).
    pub net_bandwidth: f64,
    /// Per-kernel execution characteristics.
    pub kernels: BTreeMap<KernelClass, KernelProfile>,
    /// Filesystems reachable from a compute node.
    pub filesystems: Vec<FsModel>,
    /// Which filesystem I/O lands on by default (the paper's
    /// experiment notes: local on Stampede/Archer, Lustre on
    /// Supermic/Titan, NFS on Comet).
    pub default_fs: FsKind,
    /// OpenMP-analogue scaling parameters.
    pub openmp: ParallelModel,
    /// MPI-analogue scaling parameters.
    pub mpi: ParallelModel,
    /// Factor on application cycle counts relative to the profiling
    /// machine (captures compile-time optimization differences, §4.5
    /// "Application Optimization").
    pub app_cycle_factor: f64,
}

impl MachineModel {
    /// The kernel profile for a class; falls back to the application
    /// profile when a machine has no entry for a kernel.
    pub fn kernel(&self, class: KernelClass) -> KernelProfile {
        self.kernels
            .get(&class)
            .or_else(|| self.kernels.get(&KernelClass::Application))
            .copied()
            .unwrap_or(KernelProfile {
                ipc: 2.0,
                efficiency: 0.7,
                overhead_frac: 0.0,
                unit_cycles: 1,
            })
    }

    /// The filesystem model of a kind, if this machine has one.
    pub fn fs(&self, kind: FsKind) -> Option<&FsModel> {
        self.filesystems.iter().find(|f| f.kind == kind)
    }

    /// The default filesystem model (always present by construction).
    pub fn default_fs_model(&self) -> &FsModel {
        self.fs(self.default_fs)
            .or_else(|| self.filesystems.first())
            .expect("machine has at least one filesystem")
    }

    /// Wall-clock seconds to execute a cycle budget with a kernel on a
    /// single core: `cycles / (freq × efficiency)`.
    pub fn compute_time(&self, cycles: u64, class: KernelClass) -> f64 {
        let k = self.kernel(class);
        cycles as f64 / (self.cpu.effective_freq_hz * k.efficiency.max(1e-6))
    }

    /// Wall-clock seconds for the *emulation* of a directed cycle
    /// budget: quantization/overhead first, then pricing.
    pub fn emulation_compute_time(&self, directed_cycles: u64, class: KernelClass) -> f64 {
        let consumed = self.kernel(class).consumed_cycles(directed_cycles);
        self.compute_time(consumed, class)
    }

    /// Seconds to move `bytes` through the memory subsystem.
    pub fn mem_time(&self, bytes: u64) -> f64 {
        bytes as f64 / self.mem_bandwidth.max(1.0)
    }

    /// Seconds to move `bytes` over the loopback/interconnect.
    pub fn net_time(&self, bytes: u64) -> f64 {
        bytes as f64 / self.net_bandwidth.max(1.0)
    }

    /// The filesystem model I/O on `kind` is priced with: this
    /// machine's model of that kind, or its default filesystem when it
    /// has none.
    pub fn fs_or_default(&self, kind: FsKind) -> &FsModel {
        self.fs(kind).unwrap_or_else(|| self.default_fs_model())
    }

    /// Seconds of storage I/O on a chosen filesystem.
    pub fn io_time(&self, bytes: u64, block: u64, op: IoOp, fs: FsKind) -> f64 {
        self.fs_or_default(fs).io_time(bytes, block, op)
    }

    /// Scaling model for a parallel mode.
    pub fn parallel(&self, mode: ParallelMode) -> &ParallelModel {
        match mode {
            ParallelMode::OpenMp => &self.openmp,
            ParallelMode::Mpi => &self.mpi,
        }
    }

    /// The host facts recorded in profiles taken "on" this machine.
    pub fn system_info(&self) -> SystemInfo {
        SystemInfo {
            hostname: self.name.clone(),
            ncores: self.cpu.ncores,
            max_freq_hz: self.cpu.nominal_freq_hz,
            total_memory: self.total_memory,
            load_avg: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn consumed_cycles_quantize_and_overshoot() {
        let k = KernelProfile {
            ipc: 3.0,
            efficiency: 0.9,
            overhead_frac: 0.10,
            unit_cycles: 1000,
        };
        // 1 cycle directed -> one full unit plus overhead.
        assert_eq!(k.consumed_cycles(1), 1100);
        // Exactly one unit.
        assert_eq!(k.consumed_cycles(1000), 1100);
        // Large budgets converge to the overhead fraction.
        let directed = 10_000_000u64;
        let consumed = k.consumed_cycles(directed);
        let err = consumed as f64 / directed as f64 - 1.0;
        assert!((err - 0.10).abs() < 0.001, "converged error {err}");
        assert_eq!(k.consumed_cycles(0), 0);
    }

    #[test]
    fn error_decreases_with_budget() {
        let k = KernelProfile {
            ipc: 3.0,
            efficiency: 0.9,
            overhead_frac: 0.05,
            unit_cycles: 1_000_000,
        };
        let err = |d: u64| k.consumed_cycles(d) as f64 / d as f64 - 1.0;
        assert!(err(1_500_000) > err(15_000_000));
        assert!(err(15_000_000) > err(1_500_000_000) - 1e-9);
        assert!((err(1_500_000_000) - 0.05).abs() < 0.01);
    }

    #[test]
    fn compute_time_prices_by_efficiency() {
        let m = catalog::thinkie();
        let asm = m.kernel(KernelClass::AsmMatmul);
        let c = m.kernel(KernelClass::CMatmul);
        // Higher efficiency -> less wall time for the same cycles.
        assert!(asm.efficiency > c.efficiency);
        assert!(
            m.compute_time(1_000_000_000, KernelClass::AsmMatmul)
                < m.compute_time(1_000_000_000, KernelClass::CMatmul)
        );
    }

    #[test]
    fn kernel_falls_back_to_application() {
        let mut m = catalog::thinkie();
        m.kernels.remove(&KernelClass::CMatmul);
        let k = m.kernel(KernelClass::CMatmul);
        assert_eq!(k, m.kernel(KernelClass::Application));
    }

    #[test]
    fn default_fs_model_is_present_for_all_catalog_machines() {
        for name in catalog::MACHINE_NAMES {
            let m = catalog::machine_by_name(name).unwrap();
            let fsm = m.default_fs_model();
            assert!(fsm.read_bandwidth > 0.0, "{name}");
            // io_time falls back to default for unknown fs kinds.
            let t = m.io_time(1 << 20, 4096, IoOp::Write, m.default_fs);
            assert!(t > 0.0);
        }
    }

    #[test]
    fn system_info_reflects_model() {
        let m = catalog::supermic();
        let info = m.system_info();
        assert_eq!(info.hostname, "supermic");
        assert_eq!(info.ncores, 20);
        assert!(info.total_memory >= 100 << 30);
    }

    #[test]
    fn mem_and_net_time_scale_linearly() {
        let m = catalog::thinkie();
        assert!((m.mem_time(2 << 20) / m.mem_time(1 << 20) - 2.0).abs() < 1e-9);
        assert!((m.net_time(2 << 20) / m.net_time(1 << 20) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn kernel_names() {
        assert_eq!(KernelClass::CMatmul.name(), "C");
        assert_eq!(KernelClass::AsmMatmul.name(), "ASM");
        assert_eq!(KernelClass::Application.name(), "application");
    }
}
