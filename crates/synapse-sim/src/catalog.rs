//! The six experiment platforms of the paper, as parametric models.
//!
//! Hardware facts (cores, nominal clocks, memory, default filesystems)
//! come from the paper's "Experiment Platform" section. Behavioural
//! parameters (effective clocks, per-kernel IPC and overhead,
//! efficiencies, scaling overheads) are calibrated against the numbers
//! the paper itself reports — e.g. the measured ~2.88–2.90 GHz clock on
//! Comet, the per-kernel IPC rates of Fig. 11, the converged error
//! fractions of Figs 8–10, and the E.2 portability offsets (~-40 % on
//! Stampede, ~+33 % on Archer). The README's "Paper experiments"
//! section gives the substitution's rationale.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use crate::fsmodel::{FsKind, FsModel};
use crate::machine::{CpuModel, KernelClass, KernelProfile, MachineModel};
use crate::parallel::ParallelModel;

/// Names of all modelled machines, as the paper spells them.
pub const MACHINE_NAMES: [&str; 6] = [
    "thinkie", "stampede", "archer", "supermic", "comet", "titan",
];

/// The process-wide catalog entry for a (case-insensitive) name: the
/// six models are built once, so resolving a machine per scenario
/// point costs a name comparison, not a `MachineModel`'s allocations.
pub fn machine_ref(name: &str) -> Option<&'static MachineModel> {
    static CATALOG: OnceLock<[MachineModel; 6]> = OnceLock::new();
    CATALOG
        .get_or_init(|| {
            [
                thinkie(),
                stampede(),
                archer(),
                supermic(),
                comet(),
                titan(),
            ]
        })
        .iter()
        .find(|m| m.name.eq_ignore_ascii_case(name))
}

/// An owned copy of [`machine_ref`]'s model, for callers that edit it.
pub fn machine_by_name(name: &str) -> Option<MachineModel> {
    machine_ref(name).cloned()
}

fn kernels(
    app: KernelProfile,
    c: KernelProfile,
    asm: KernelProfile,
) -> BTreeMap<KernelClass, KernelProfile> {
    let mut m = BTreeMap::new();
    m.insert(KernelClass::Application, app);
    m.insert(KernelClass::CMatmul, c);
    m.insert(KernelClass::AsmMatmul, asm);
    m
}

const GIB: u64 = 1 << 30;

/// Lustre behaves similarly on Titan and Supermic ("Lustre performs
/// very similar for both resources", E.5) — one shared model.
fn lustre() -> FsModel {
    FsModel {
        kind: FsKind::Lustre,
        read_latency: 1.5e-4,
        write_latency: 1.5e-3,
        read_bandwidth: 600e6,
        write_bandwidth: 250e6,
    }
}

/// Thinkie: the profiling host. Intel Core i7 M620 (4 hardware
/// threads), 8 GB memory, Intel 320-series SSD, Debian Linux.
pub fn thinkie() -> MachineModel {
    MachineModel {
        name: "thinkie".into(),
        cpu: CpuModel {
            nominal_freq_hz: 2.67e9,
            effective_freq_hz: 2.67e9,
            ncores: 4,
        },
        total_memory: 8 * GIB,
        mem_bandwidth: 8e9,
        net_bandwidth: 1e9,
        kernels: kernels(
            KernelProfile {
                ipc: 2.00,
                efficiency: 0.70,
                overhead_frac: 0.0,
                unit_cycles: 1,
            },
            KernelProfile {
                ipc: 2.40,
                efficiency: 0.70,
                overhead_frac: 0.04,
                unit_cycles: 5_000_000,
            },
            // The ASM kernel was written/calibrated on this host: the
            // emulation agrees with the application (Fig. 5).
            KernelProfile {
                ipc: 3.00,
                efficiency: 0.755,
                overhead_frac: 0.08,
                unit_cycles: 2_000_000,
            },
        ),
        filesystems: vec![FsModel {
            kind: FsKind::Local,
            read_latency: 4e-5,
            write_latency: 1.2e-4,
            read_bandwidth: 270e6,
            write_bandwidth: 200e6,
        }],
        default_fs: FsKind::Local,
        openmp: ParallelModel {
            startup_fixed: 0.05,
            startup_per_worker: 0.01,
            contention: 1.0,
        },
        mpi: ParallelModel {
            startup_fixed: 0.3,
            startup_per_worker: 0.05,
            contention: 0.8,
        },
        app_cycle_factor: 1.0,
    }
}

/// Stampede: 2× 8-core Xeon E5-2680 (Sandy Bridge), 32 GB, local
/// 250 GB HDD for all experiment I/O. The application benefits from
/// resource-specific optimization the default kernel lacks, so the
/// emulation converges ~40 % *faster* than the application (Fig. 7
/// top): the application's effective efficiency is low relative to the
/// near-peak ASM kernel.
pub fn stampede() -> MachineModel {
    MachineModel {
        name: "stampede".into(),
        cpu: CpuModel {
            nominal_freq_hz: 2.7e9,
            effective_freq_hz: 2.9e9,
            ncores: 16,
        },
        total_memory: 32 * GIB,
        mem_bandwidth: 25e9,
        net_bandwidth: 1e9,
        kernels: kernels(
            KernelProfile {
                ipc: 2.10,
                efficiency: 0.54,
                overhead_frac: 0.0,
                unit_cycles: 1,
            },
            KernelProfile {
                ipc: 2.60,
                efficiency: 0.70,
                overhead_frac: 0.04,
                unit_cycles: 5_000_000,
            },
            KernelProfile {
                ipc: 3.10,
                efficiency: 0.95,
                overhead_frac: 0.12,
                unit_cycles: 2_000_000,
            },
        ),
        filesystems: vec![FsModel {
            kind: FsKind::Local,
            read_latency: 8e-5,
            write_latency: 3e-4,
            read_bandwidth: 140e6,
            write_bandwidth: 110e6,
        }],
        default_fs: FsKind::Local,
        openmp: ParallelModel {
            startup_fixed: 0.05,
            startup_per_worker: 0.01,
            contention: 1.0,
        },
        mpi: ParallelModel {
            startup_fixed: 0.3,
            startup_per_worker: 0.05,
            contention: 0.8,
        },
        app_cycle_factor: 1.05,
    }
}

/// Archer: Cray XC30, 2× 12-core E5-2697 v2 (Ivy Bridge), 64 GB,
/// disk I/O to node-local /tmp. Here the default kernel *under*-runs
/// the application (no Cray-optimized code path), so the emulation
/// converges ~33 % slower (Fig. 7 bottom).
pub fn archer() -> MachineModel {
    MachineModel {
        name: "archer".into(),
        cpu: CpuModel {
            nominal_freq_hz: 2.7e9,
            effective_freq_hz: 3.0e9,
            ncores: 24,
        },
        total_memory: 64 * GIB,
        mem_bandwidth: 30e9,
        net_bandwidth: 1e9,
        kernels: kernels(
            KernelProfile {
                ipc: 2.20,
                efficiency: 0.72,
                overhead_frac: 0.0,
                unit_cycles: 1,
            },
            KernelProfile {
                ipc: 2.55,
                efficiency: 0.66,
                overhead_frac: 0.04,
                unit_cycles: 5_000_000,
            },
            KernelProfile {
                ipc: 3.00,
                efficiency: 0.60,
                overhead_frac: 0.12,
                unit_cycles: 2_000_000,
            },
        ),
        filesystems: vec![FsModel {
            kind: FsKind::Local,
            read_latency: 9e-5,
            write_latency: 3.5e-4,
            read_bandwidth: 130e6,
            write_bandwidth: 100e6,
        }],
        default_fs: FsKind::Local,
        openmp: ParallelModel {
            startup_fixed: 0.05,
            startup_per_worker: 0.01,
            contention: 1.0,
        },
        mpi: ParallelModel {
            startup_fixed: 0.3,
            startup_per_worker: 0.05,
            contention: 0.8,
        },
        app_cycle_factor: 1.01,
    }
}

/// Supermic: 2× 10-core Xeon E5-2680 (Ivy Bridge-EP), 128 GB, Lustre
/// for all I/O. Measured clock ~3.58–3.60 GHz; per-kernel IPC and
/// converged error fractions from Figs 8–11 (C: ~4 %, ASM: ~26.5 %;
/// IPC app ~2.04, C ~2.53, ASM ~2.86). Thread contention is high, so
/// MPI-style emulation outscales OpenMP (Fig. 12).
pub fn supermic() -> MachineModel {
    MachineModel {
        name: "supermic".into(),
        cpu: CpuModel {
            nominal_freq_hz: 2.8e9,
            effective_freq_hz: 3.59e9,
            ncores: 20,
        },
        total_memory: 128 * GIB,
        mem_bandwidth: 40e9,
        net_bandwidth: 1e9,
        kernels: kernels(
            KernelProfile {
                ipc: 2.04,
                efficiency: 0.70,
                overhead_frac: 0.0,
                unit_cycles: 1,
            },
            KernelProfile {
                ipc: 2.53,
                efficiency: 0.70,
                overhead_frac: 0.040,
                unit_cycles: 5_000_000,
            },
            KernelProfile {
                ipc: 2.86,
                efficiency: 0.70,
                overhead_frac: 0.265,
                unit_cycles: 2_000_000,
            },
        ),
        filesystems: vec![
            lustre(),
            FsModel {
                kind: FsKind::Local,
                read_latency: 1.2e-4,
                write_latency: 8e-4,
                read_bandwidth: 120e6,
                write_bandwidth: 60e6,
            },
        ],
        default_fs: FsKind::Lustre,
        openmp: ParallelModel {
            startup_fixed: 0.05,
            startup_per_worker: 0.01,
            contention: 2.2,
        },
        mpi: ParallelModel {
            startup_fixed: 0.3,
            startup_per_worker: 0.04,
            contention: 0.7,
        },
        app_cycle_factor: 1.0,
    }
}

/// Comet: 2× 12-core Xeon E5-2680v3, 128 GB, NFS for all I/O.
/// Measured clock ~2.88–2.90 GHz; per-kernel parameters from Figs 8–11
/// (C: ~3.5 %, ASM: ~14.5 %; IPC app ~2.17, C ~2.80, ASM ~3.30).
pub fn comet() -> MachineModel {
    MachineModel {
        name: "comet".into(),
        cpu: CpuModel {
            nominal_freq_hz: 2.5e9,
            effective_freq_hz: 2.89e9,
            ncores: 24,
        },
        total_memory: 128 * GIB,
        mem_bandwidth: 40e9,
        net_bandwidth: 1e9,
        kernels: kernels(
            KernelProfile {
                ipc: 2.17,
                efficiency: 0.70,
                overhead_frac: 0.0,
                unit_cycles: 1,
            },
            KernelProfile {
                ipc: 2.80,
                efficiency: 0.70,
                overhead_frac: 0.035,
                unit_cycles: 5_000_000,
            },
            KernelProfile {
                ipc: 3.30,
                efficiency: 0.70,
                overhead_frac: 0.145,
                unit_cycles: 2_000_000,
            },
        ),
        filesystems: vec![FsModel {
            kind: FsKind::Nfs,
            read_latency: 6e-4,
            write_latency: 6e-3,
            read_bandwidth: 120e6,
            write_bandwidth: 30e6,
        }],
        default_fs: FsKind::Nfs,
        openmp: ParallelModel {
            startup_fixed: 0.05,
            startup_per_worker: 0.01,
            contention: 1.2,
        },
        mpi: ParallelModel {
            startup_fixed: 0.3,
            startup_per_worker: 0.04,
            contention: 0.8,
        },
        app_cycle_factor: 1.0,
    }
}

/// Titan: 16-core AMD Opteron 6274, 32 GB, K20X GPU (unused by
/// Synapse), Lustre plus a fast local filesystem ("the local FS on
/// Titan performs much better than the one on Supermic", E.5).
/// Threads are cheap on the Opteron module architecture, so OpenMP
/// outscales MPI here (Fig. 12).
pub fn titan() -> MachineModel {
    MachineModel {
        name: "titan".into(),
        cpu: CpuModel {
            nominal_freq_hz: 2.2e9,
            effective_freq_hz: 2.2e9,
            ncores: 16,
        },
        total_memory: 32 * GIB,
        mem_bandwidth: 20e9,
        net_bandwidth: 1e9,
        kernels: kernels(
            KernelProfile {
                ipc: 1.80,
                efficiency: 0.65,
                overhead_frac: 0.0,
                unit_cycles: 1,
            },
            KernelProfile {
                ipc: 2.20,
                efficiency: 0.66,
                overhead_frac: 0.05,
                unit_cycles: 5_000_000,
            },
            KernelProfile {
                ipc: 2.60,
                efficiency: 0.70,
                overhead_frac: 0.15,
                unit_cycles: 2_000_000,
            },
        ),
        filesystems: vec![
            lustre(),
            FsModel {
                kind: FsKind::Local,
                read_latency: 2e-5,
                write_latency: 1e-4,
                read_bandwidth: 500e6,
                write_bandwidth: 350e6,
            },
        ],
        default_fs: FsKind::Lustre,
        openmp: ParallelModel {
            startup_fixed: 0.05,
            startup_per_worker: 0.005,
            contention: 0.5,
        },
        mpi: ParallelModel {
            startup_fixed: 0.5,
            startup_per_worker: 0.08,
            contention: 0.45,
        },
        app_cycle_factor: 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsmodel::IoOp;
    use crate::machine::KernelClass::{Application, AsmMatmul, CMatmul};
    use crate::parallel::ParallelMode;

    /// Converged emulation/application Tx ratio on a machine for a
    /// compute-bound workload emulated with a kernel.
    fn tx_ratio(m: &MachineModel, kernel: KernelClass) -> f64 {
        let cycles: u64 = 50_000_000_000; // long run -> converged
        let app = m.kernel(Application);
        let app_time =
            (cycles as f64 * m.app_cycle_factor) / (m.cpu.effective_freq_hz * app.efficiency);
        let emu_time = m.emulation_compute_time(cycles, kernel);
        emu_time / app_time
    }

    #[test]
    fn all_names_resolve() {
        for name in MACHINE_NAMES {
            let m = machine_by_name(name).unwrap();
            assert_eq!(m.name, name);
        }
        assert!(machine_by_name("THINKIE").is_some());
        assert!(machine_by_name("frontier").is_none());
    }

    #[test]
    fn the_shared_catalog_holds_what_the_constructors_build() {
        let built = [
            thinkie(),
            stampede(),
            archer(),
            supermic(),
            comet(),
            titan(),
        ];
        for (name, model) in MACHINE_NAMES.iter().zip(&built) {
            assert_eq!(machine_ref(name), Some(model));
            assert!(std::ptr::eq(
                machine_ref(name).unwrap(),
                machine_ref(&name.to_uppercase()).unwrap()
            ));
        }
        assert!(machine_ref("frontier").is_none());
    }

    #[test]
    fn same_resource_emulation_agrees_on_thinkie() {
        // Fig. 5: on the profiling machine the emulation matches.
        let r = tx_ratio(&thinkie(), AsmMatmul);
        assert!((r - 1.0).abs() < 0.05, "thinkie ratio {r}");
    }

    #[test]
    fn stampede_emulation_converges_faster() {
        // Fig. 7 top: difference converges to ~ -40 %.
        let r = tx_ratio(&stampede(), AsmMatmul);
        assert!(r < 0.7, "stampede ratio {r} should be ~0.60");
        assert!(r > 0.5, "stampede ratio {r} should be ~0.60");
    }

    #[test]
    fn archer_emulation_converges_slower() {
        // Fig. 7 bottom: difference converges to ~ +33 %.
        let r = tx_ratio(&archer(), AsmMatmul);
        assert!(r > 1.25, "archer ratio {r} should be ~1.33");
        assert!(r < 1.45, "archer ratio {r} should be ~1.33");
    }

    #[test]
    fn e3_c_kernel_beats_asm_on_comet_and_supermic() {
        for m in [comet(), supermic()] {
            let c = m.kernel(CMatmul);
            let asm = m.kernel(AsmMatmul);
            assert!(c.overhead_frac < asm.overhead_frac, "{}", m.name);
            // IPC ordering from Fig. 11: app < C < ASM.
            let app = m.kernel(Application);
            assert!(app.ipc < c.ipc && c.ipc < asm.ipc, "{}", m.name);
        }
    }

    #[test]
    fn e3_converged_cycle_errors_match_paper() {
        let comet = comet();
        let budget = 100_000_000_000u64;
        let err = |k: KernelClass, m: &MachineModel| {
            m.kernel(k).consumed_cycles(budget) as f64 / budget as f64 - 1.0
        };
        assert!((err(CMatmul, &comet) - 0.035).abs() < 0.01);
        assert!((err(AsmMatmul, &comet) - 0.145).abs() < 0.01);
        let sm = supermic();
        assert!((err(CMatmul, &sm) - 0.040).abs() < 0.01);
        assert!((err(AsmMatmul, &sm) - 0.265).abs() < 0.01);
    }

    #[test]
    fn supermic_executes_faster_than_titan() {
        // E.4: "Supermic (Xeon, 2.8 GHz) executes the tasks faster
        // than Titan (Opterons, 2.2 GHz)".
        let cycles = 10_000_000_000u64;
        let t_titan = titan().emulation_compute_time(cycles, AsmMatmul);
        let t_sm = supermic().emulation_compute_time(cycles, AsmMatmul);
        assert!(t_sm < t_titan);
    }

    #[test]
    fn parallel_mode_ordering_flips_between_titan_and_supermic() {
        let w = 120.0; // seconds of serial compute
        let t = titan();
        let omp_t = t.parallel(ParallelMode::OpenMp).time(w, 16, 16);
        let mpi_t = t.parallel(ParallelMode::Mpi).time(w, 16, 16);
        assert!(omp_t < mpi_t, "OpenMP wins on Titan: {omp_t} vs {mpi_t}");
        let s = supermic();
        let omp_s = s.parallel(ParallelMode::OpenMp).time(w, 20, 20);
        let mpi_s = s.parallel(ParallelMode::Mpi).time(w, 20, 20);
        assert!(mpi_s < omp_s, "MPI wins on Supermic: {mpi_s} vs {omp_s}");
    }

    #[test]
    fn lustre_similar_across_machines_local_differs() {
        // E.5 observations.
        let bytes = 256 << 20;
        let block = 1 << 20;
        let t_l = titan().io_time(bytes, block, IoOp::Write, FsKind::Lustre);
        let s_l = supermic().io_time(bytes, block, IoOp::Write, FsKind::Lustre);
        assert!(
            (t_l / s_l - 1.0).abs() < 0.01,
            "lustre similar: {t_l} vs {s_l}"
        );
        let t_local = titan().io_time(bytes, block, IoOp::Write, FsKind::Local);
        let s_local = supermic().io_time(bytes, block, IoOp::Write, FsKind::Local);
        assert!(
            t_local < s_local / 2.0,
            "titan local much faster: {t_local} vs {s_local}"
        );
    }

    #[test]
    fn writes_an_order_of_magnitude_slower_at_small_blocks() {
        // E.5: "write operations are generally an order of magnitude
        // slower than read operations".
        for m in [titan(), supermic(), comet()] {
            let fs = m.default_fs_model();
            let bytes = 64 << 20;
            let block = 64 << 10;
            let r = fs.io_time(bytes, block, IoOp::Read);
            let w = fs.io_time(bytes, block, IoOp::Write);
            assert!(w > 5.0 * r, "{}: write {w} vs read {r}", m.name);
        }
    }

    #[test]
    fn serde_roundtrip_of_machine_model() {
        let m = comet();
        let json = serde_json::to_string(&m).unwrap();
        let back: MachineModel = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}
