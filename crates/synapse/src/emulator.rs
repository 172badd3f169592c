//! The emulation engine: replay a profile through resource atoms.
//!
//! "Synapse retrieves the profile and feeds all samples it contains to
//! the emulation atoms in the order in which the samples have been
//! collected" (§4). Within a sample, "all resource consumptions ...
//! are started immediately and concurrently ... Emulation samples end
//! when the last resource consumption is completed for that sample"
//! (§4.4).
//!
//! Two backends share the plan and semantics:
//!
//! * [`Emulator::emulate`] — the **real backend**: burns actual CPU
//!   cycles through a [`ComputeKernel`], writes actual files, holds
//!   actual memory, moves actual loopback bytes; one thread per atom
//!   per sample, exactly the paper's execution model.
//! * [`Emulator::simulate`] — the **simulated backend**: prices every
//!   demand against a [`MachineModel`] and advances a virtual clock;
//!   this is how the cross-resource experiments run without the
//!   original testbeds (substitution documented in DESIGN.md).

use std::borrow::Cow;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use synapse_atoms::{
    CMatmulKernel, ComputeKernel, InCacheAsmKernel, MemoryAtom, NetworkAtom, SpinKernel,
    StorageAtom,
};
use synapse_model::{Profile, Sample};
use synapse_sim::{FsKind, IoOp, KernelClass, MachineModel, ParallelMode, VirtualClock};

use crate::error::SynapseError;

/// Which compute kernel the emulation uses (§4.2: "Atom
/// implementations are interchangeable").
#[derive(Clone)]
pub enum KernelChoice {
    /// The in-cache "assembly" kernel: maximum efficiency (default).
    Asm,
    /// The out-of-cache C kernel: realistic memory access.
    C,
    /// A fine-grained integer spin kernel (tests, minimal overshoot).
    Spin,
    /// A user-provided kernel (the paper's fidelity escape hatch).
    Custom(Arc<dyn ComputeKernel>),
}

impl KernelChoice {
    /// Materialize the kernel.
    pub fn build(&self) -> Arc<dyn ComputeKernel> {
        match self {
            KernelChoice::Asm => Arc::new(InCacheAsmKernel::new()),
            KernelChoice::C => Arc::new(CMatmulKernel::new()),
            KernelChoice::Spin => Arc::new(SpinKernel),
            KernelChoice::Custom(k) => k.clone(),
        }
    }

    /// The modelled kernel class (for the simulated backend).
    pub fn class(&self) -> KernelClass {
        match self {
            KernelChoice::Asm | KernelChoice::Spin => KernelClass::AsmMatmul,
            KernelChoice::C => KernelClass::CMatmul,
            KernelChoice::Custom(k) => k.class(),
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            KernelChoice::Asm => "asm",
            KernelChoice::C => "c",
            KernelChoice::Spin => "spin",
            KernelChoice::Custom(_) => "custom",
        }
    }
}

impl std::fmt::Debug for KernelChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "KernelChoice::{}", self.name())
    }
}

/// How to replay a profile: kernel, parallelism, I/O granularity,
/// target filesystem — the malleability dimensions of E.3–E.5.
#[derive(Debug, Clone)]
pub struct EmulationPlan {
    /// Compute kernel choice.
    pub kernel: KernelChoice,
    /// OpenMP-style thread width for the compute atom.
    pub threads: u32,
    /// Parallel mode used when pricing parallel emulation on a model.
    pub mode: ParallelMode,
    /// Directory for the storage atom's scratch file ("any available
    /// filesystem", E.5).
    pub io_dir: PathBuf,
    /// Write block size (E.5's granularity dimension).
    pub io_write_block: u64,
    /// Read block size.
    pub io_read_block: u64,
    /// Memory atom allocation block size.
    pub mem_block: u64,
    /// Target filesystem kind on the simulated backend.
    pub target_fs: Option<FsKind>,
    /// Enable the compute atom.
    pub emulate_compute: bool,
    /// Enable the memory atom.
    pub emulate_memory: bool,
    /// Enable the storage atom.
    pub emulate_storage: bool,
    /// Enable the network atom.
    pub emulate_network: bool,
    /// Preserve sample order across resource types (§4.4). Disabling
    /// this merges the whole profile into one sample — the ordering
    /// ablation of Fig. 2.
    pub preserve_sample_order: bool,
    /// Worker executable for process-based (MPI-analogue) parallelism
    /// on the real backend: when `mode` is [`ParallelMode::Mpi`] and
    /// `threads > 1`, the compute budget is split across spawned
    /// worker processes running `<worker> worker --kernel K --cycles N`
    /// (the `synapse` CLI provides that subcommand). `None` falls back
    /// to thread parallelism.
    pub worker_binary: Option<PathBuf>,
    /// Fixed emulator startup overhead on the simulated backend (the
    /// paper measures ~1 s for the Python implementation).
    pub sim_startup_seconds: f64,
}

impl Default for EmulationPlan {
    fn default() -> Self {
        EmulationPlan {
            kernel: KernelChoice::Asm,
            threads: 1,
            mode: ParallelMode::OpenMp,
            io_dir: std::env::temp_dir(),
            io_write_block: 1 << 20,
            io_read_block: 1 << 20,
            mem_block: 1 << 20,
            target_fs: None,
            emulate_compute: true,
            emulate_memory: true,
            emulate_storage: true,
            emulate_network: true,
            preserve_sample_order: true,
            worker_binary: None,
            sim_startup_seconds: 1.0,
        }
    }
}

impl EmulationPlan {
    /// Derive a plan from a profile: adopt the *profiled* I/O
    /// granularity (the paper's §6 plan for the blktrace data —
    /// "using this data in Synapse emulation when applications require
    /// that granularity") and the profiled thread width.
    pub fn from_profile(profile: &Profile) -> Self {
        let g = synapse_model::io_granularity(profile);
        let clamp = |b: u64| b.clamp(512, 64 << 20);
        EmulationPlan {
            io_write_block: g.write_block.map(clamp).unwrap_or(1 << 20),
            io_read_block: g.read_block.map(clamp).unwrap_or(1 << 20),
            threads: profile.totals().max_threads.max(1),
            ..Default::default()
        }
    }
}

/// Aggregate of what an emulation consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConsumedTotals {
    /// Cycles the compute atom was directed to consume.
    pub directed_cycles: u64,
    /// Cycles actually consumed (≥ directed; kernel quantization).
    pub cycles: u64,
    /// Instructions retired (simulated backend: consumed × kernel
    /// IPC; real backend: 0 unless measured externally).
    pub instructions: u64,
    /// Bytes read from storage.
    pub bytes_read: u64,
    /// Bytes written to storage.
    pub bytes_written: u64,
    /// Bytes allocated.
    pub mem_allocated: u64,
    /// Bytes freed.
    pub mem_freed: u64,
    /// Bytes sent over the network.
    pub net_sent: u64,
    /// Bytes received over the network.
    pub net_recv: u64,
}

/// Result of one emulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct EmulationReport {
    /// Emulated execution time Tx in seconds (wall clock on the real
    /// backend, virtual on the simulated one).
    pub tx: f64,
    /// Samples replayed.
    pub samples: usize,
    /// Resource consumption totals.
    pub consumed: ConsumedTotals,
    /// Backend tag (`"real"` or `"sim:<machine>"`).
    pub backend: String,
}

/// The emulation engine.
pub struct Emulator {
    plan: EmulationPlan,
}

impl Emulator {
    /// An emulator with the given plan.
    pub fn new(plan: EmulationPlan) -> Self {
        Emulator { plan }
    }

    /// The active plan.
    pub fn plan(&self) -> &EmulationPlan {
        &self.plan
    }

    /// The sample sequence the real backend replays: the profile's own
    /// samples, borrowed, or one all-concurrent merged sample when
    /// order preservation is disabled (ablation).
    fn replay_samples<'p>(&self, profile: &'p Profile) -> Cow<'p, [Sample]> {
        if self.plan.preserve_sample_order {
            Cow::Borrowed(&profile.samples)
        } else {
            Cow::Owned(
                merged(profile.samples.iter().copied())
                    .into_iter()
                    .collect(),
            )
        }
    }

    /// Replay a profile on the **real backend**, consuming this host's
    /// resources.
    pub fn emulate(&self, profile: &Profile) -> Result<EmulationReport, SynapseError> {
        let start = Instant::now();
        let kernel = self.plan.kernel.build();
        let mut memory = MemoryAtom::with_config(self.plan.mem_block, 1 << 30);
        let mut storage = StorageAtom::with_config(
            &self.plan.io_dir,
            self.plan.io_write_block,
            self.plan.io_read_block,
            256 << 20,
        )?;
        let needs_network = self.plan.emulate_network
            && profile
                .samples
                .iter()
                .any(|s| s.network.bytes_sent > 0 || s.network.bytes_recv > 0);
        let mut network = if needs_network {
            Some(NetworkAtom::new()?)
        } else {
            None
        };

        let samples = self.replay_samples(profile);
        let mut consumed = ConsumedTotals::default();

        for sample in samples.iter() {
            // Per-sample demands, gated by the plan's enable flags.
            let cycles = if self.plan.emulate_compute {
                sample.compute.cycles
            } else {
                0
            };
            let (alloc, free) = if self.plan.emulate_memory {
                (sample.memory.allocated, sample.memory.freed)
            } else {
                (0, 0)
            };
            let (rd, wr) = if self.plan.emulate_storage {
                (sample.storage.bytes_read, sample.storage.bytes_written)
            } else {
                (0, 0)
            };
            let (sent, recv) = if self.plan.emulate_network {
                (sample.network.bytes_sent, sample.network.bytes_recv)
            } else {
                (0, 0)
            };

            // All atoms start concurrently; the sample ends when the
            // last one finishes (scope join = the paper's barrier).
            let kernel_ref = kernel.as_ref();
            let threads = self.plan.threads;
            let mode = self.plan.mode;
            let worker = self.plan.worker_binary.as_deref();
            let kernel_name = self.plan.kernel.name();
            let mut compute_cycles = 0u64;
            let mut io_result: std::io::Result<()> = Ok(());
            let mut net_result: std::io::Result<()> = Ok(());
            std::thread::scope(|scope| {
                let compute_handle = (cycles > 0).then(|| {
                    scope.spawn(move || {
                        run_cycles(kernel_ref, kernel_name, cycles, threads, mode, worker)
                    })
                });
                let storage_handle = ((rd + wr) > 0).then(|| {
                    let storage = &mut storage;
                    scope.spawn(move || storage.consume(rd, wr).map(|_| ()))
                });
                let memory_handle = ((alloc + free) > 0).then(|| {
                    let memory = &mut memory;
                    scope.spawn(move || {
                        memory.consume(alloc, free);
                    })
                });
                let network_handle = network
                    .as_mut()
                    .filter(|_| sent + recv > 0)
                    .map(|net| scope.spawn(move || net.consume(sent, recv).map(|_| ())));

                if let Some(h) = compute_handle {
                    compute_cycles = h.join().expect("compute atom panicked");
                }
                if let Some(h) = storage_handle {
                    io_result = h.join().expect("storage atom panicked");
                }
                if let Some(h) = memory_handle {
                    h.join().expect("memory atom panicked");
                }
                if let Some(h) = network_handle {
                    net_result = h.join().expect("network atom panicked");
                }
            });
            io_result?;
            net_result?;

            consumed.directed_cycles += cycles;
            consumed.cycles += compute_cycles;
            consumed.bytes_read += rd;
            consumed.bytes_written += wr;
            consumed.mem_allocated += alloc;
            consumed.mem_freed += free;
            consumed.net_sent += sent;
            consumed.net_recv += recv;
        }

        memory.release_all();
        storage.cleanup();
        if let Some(net) = network.take() {
            net.shutdown();
        }

        Ok(EmulationReport {
            tx: start.elapsed().as_secs_f64(),
            samples: samples.len(),
            consumed,
            backend: "real".into(),
        })
    }

    /// Replay a profile on the **simulated backend**: price every
    /// demand against a machine model and advance a virtual clock.
    ///
    /// A thin adapter over [`Emulator::simulate_stream`], which see for
    /// the bit-identity contract: streaming a profile's samples and
    /// simulating the materialized profile give equal reports.
    pub fn simulate(&self, profile: &Profile, machine: &MachineModel) -> EmulationReport {
        self.simulate_stream(profile.samples.iter().copied(), machine)
    }

    /// Replay a stream of samples on the **simulated backend** in one
    /// ordered pass with O(1) memory — "feeds all samples ... to the
    /// emulation atoms in the order in which the samples have been
    /// collected" (§4). With `preserve_sample_order` off, the stream is
    /// first folded into one all-concurrent sample.
    ///
    /// Only the replay demands of a sample are read (compute cycles,
    /// storage bytes, memory allocated/freed, network bytes), so a
    /// stream that leaves the other fields unset prices identically.
    ///
    /// **Bit-identity contract.** Everything constant over a run — the
    /// kernel profile, the cycle rate, the filesystem model, the memory
    /// and network bandwidths, the contention factor — is resolved once
    /// before the loop, but every float operation keeps the operands
    /// and order it has in the [`MachineModel`] pricing methods (a
    /// divisor is hoisted, never turned into a multiplication by its
    /// reciprocal). Reports are therefore bit-for-bit what pricing each
    /// sample through those methods gives, which is what lets cached
    /// campaign results, recorded traces and the golden digest survive
    /// changes to this loop without an engine version bump.
    pub fn simulate_stream(
        &self,
        samples: impl Iterator<Item = Sample>,
        machine: &MachineModel,
    ) -> EmulationReport {
        if self.plan.preserve_sample_order {
            self.price(samples, machine)
        } else {
            self.price(merged(samples).into_iter(), machine)
        }
    }

    /// The one pricing loop of the simulated backend.
    fn price(
        &self,
        samples: impl Iterator<Item = Sample>,
        machine: &MachineModel,
    ) -> EmulationReport {
        let plan = &self.plan;
        let class = plan.kernel.class();
        let kprofile = machine.kernel(class);
        // `MachineModel::compute_time`'s divisor.
        let cycle_rate = machine.cpu.effective_freq_hz * kprofile.efficiency.max(1e-6);
        let fs = machine.fs_or_default(plan.target_fs.unwrap_or(machine.default_fs));
        // `MachineModel::{mem_time, net_time}`'s divisors.
        let mem_bandwidth = machine.mem_bandwidth.max(1.0);
        let net_bandwidth = machine.net_bandwidth.max(1.0);
        let workers = plan.threads.max(1);
        let pmodel = machine.parallel(plan.mode);
        let contention = pmodel.contention * (workers as f64 - 1.0) / machine.cpu.ncores as f64;

        let mut clock = VirtualClock::new();
        clock.advance(plan.sim_startup_seconds);
        if workers > 1 {
            // Worker pool launch cost, once per emulation.
            clock.advance(pmodel.startup_fixed + pmodel.startup_per_worker * workers as f64);
        }

        let mut consumed = ConsumedTotals::default();
        let mut replayed = 0usize;

        for sample in samples {
            replayed += 1;
            let mut durations = [0.0f64; 4];
            if plan.emulate_compute && sample.compute.cycles > 0 {
                let directed = sample.compute.cycles;
                let actual = kprofile.consumed_cycles(directed);
                let serial = actual as f64 / cycle_rate;
                let t = if workers > 1 {
                    (serial / workers as f64) * (1.0 + contention)
                } else {
                    serial
                };
                durations[0] = t;
                consumed.directed_cycles += directed;
                consumed.cycles += actual;
                consumed.instructions += (actual as f64 * kprofile.ipc) as u64;
            }
            if plan.emulate_storage {
                let rd = sample.storage.bytes_read;
                let wr = sample.storage.bytes_written;
                durations[1] = fs.io_time(rd, plan.io_read_block, IoOp::Read)
                    + fs.io_time(wr, plan.io_write_block, IoOp::Write);
                consumed.bytes_read += rd;
                consumed.bytes_written += wr;
            }
            if plan.emulate_memory {
                let bytes = sample.memory.allocated + sample.memory.freed;
                durations[2] = bytes as f64 / mem_bandwidth;
                consumed.mem_allocated += sample.memory.allocated;
                consumed.mem_freed += sample.memory.freed;
            }
            if plan.emulate_network {
                let bytes = sample.network.bytes_sent + sample.network.bytes_recv;
                durations[3] = bytes as f64 / net_bandwidth;
                consumed.net_sent += sample.network.bytes_sent;
                consumed.net_recv += sample.network.bytes_recv;
            }
            // Concurrent atoms: the sample ends when the last one does.
            let sample_time = durations.iter().cloned().fold(0.0, f64::max);
            clock.advance(sample_time);
        }

        EmulationReport {
            tx: clock.now(),
            samples: replayed,
            consumed,
            backend: format!("sim:{}", machine.name),
        }
    }
}

/// Merge a sample sequence into one all-concurrent sample (the
/// ordering ablation of Fig. 2); `None` for an empty sequence.
fn merged(samples: impl Iterator<Item = Sample>) -> Option<Sample> {
    samples.reduce(|merged, sample| merged.absorb(&sample))
}

impl Default for Emulator {
    fn default() -> Self {
        Emulator::new(EmulationPlan::default())
    }
}

/// Consume a cycle budget with the configured parallelism.
fn run_cycles(
    kernel: &dyn ComputeKernel,
    kernel_name: &str,
    cycles: u64,
    threads: u32,
    mode: ParallelMode,
    worker: Option<&std::path::Path>,
) -> u64 {
    if threads > 1 && mode == ParallelMode::Mpi {
        if let Some(worker) = worker {
            if let Ok(consumed) =
                run_cycles_processes(worker, kernel_name, kernel.unit_cycles(), cycles, threads)
            {
                return consumed;
            }
            // Worker unusable: degrade to thread parallelism (the
            // resource *volume* is what matters, §E.4).
        }
    }
    run_cycles_threads(kernel, cycles, threads)
}

/// Split a cycle budget over spawned worker processes (the paper's
/// OpenMPI emulation: "duplicated resource usage in the case of
/// multi-processing" — each worker is a full process).
fn run_cycles_processes(
    worker: &std::path::Path,
    kernel_name: &str,
    unit_cycles: u64,
    cycles: u64,
    processes: u32,
) -> std::io::Result<u64> {
    let unit = unit_cycles.max(1);
    let units = cycles.div_ceil(unit);
    let per = units / processes as u64;
    let extra = units % processes as u64;
    let mut children = Vec::new();
    for rank in 0..processes as u64 {
        let share = per + u64::from(rank < extra);
        if share == 0 {
            continue;
        }
        let child = std::process::Command::new(worker)
            .arg("worker")
            .arg("--kernel")
            .arg(kernel_name)
            .arg("--cycles")
            .arg((share * unit).to_string())
            .env("SYNAPSE_RANK", rank.to_string())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()?;
        children.push(child);
    }
    if children.is_empty() {
        return Ok(0);
    }
    for mut child in children {
        let status = child.wait()?;
        if !status.success() {
            return Err(std::io::Error::other(format!(
                "worker exited with {status}"
            )));
        }
    }
    Ok(units * unit)
}

/// Thread-based budget splitting (OpenMP analogue).
fn run_cycles_threads(kernel: &dyn ComputeKernel, cycles: u64, threads: u32) -> u64 {
    if threads <= 1 {
        kernel.execute_cycles(cycles).consumed_cycles
    } else {
        // Split whole units across a thread scope (OpenMP analogue).
        let unit = kernel.unit_cycles().max(1);
        let units = cycles.div_ceil(unit);
        let per = units / threads as u64;
        let extra = units % threads as u64;
        std::thread::scope(|s| {
            for t in 0..threads as u64 {
                let share = per + u64::from(t < extra);
                if share > 0 {
                    s.spawn(move || std::hint::black_box(kernel.run_units(share)));
                }
            }
        });
        units * unit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synapse_model::{ProfileKey, SystemInfo, Tags};
    use synapse_sim::{comet, stampede, thinkie};

    fn profile_with(cycles_per_sample: u64, nsamples: usize) -> Profile {
        let mut p = Profile::new(
            ProfileKey::new("test", Tags::new()),
            SystemInfo::default(),
            1.0,
        );
        p.runtime = nsamples as f64;
        for i in 0..nsamples {
            let mut s = Sample::at(i as f64, 1.0);
            s.compute.cycles = cycles_per_sample;
            s.memory.allocated = 1 << 20;
            s.memory.freed = if i + 1 == nsamples {
                (nsamples as u64) << 20
            } else {
                0
            };
            s.storage.bytes_written = 256 << 10;
            s.storage.bytes_read = 64 << 10;
            p.push(s).unwrap();
        }
        p
    }

    #[test]
    fn real_emulation_consumes_all_demands() {
        let plan = EmulationPlan {
            kernel: KernelChoice::Spin,
            io_dir: std::env::temp_dir(),
            ..Default::default()
        };
        let profile = profile_with(20_000_000, 3);
        let report = Emulator::new(plan).emulate(&profile).unwrap();
        assert_eq!(report.samples, 3);
        assert_eq!(report.consumed.directed_cycles, 60_000_000);
        assert!(report.consumed.cycles >= report.consumed.directed_cycles);
        assert_eq!(report.consumed.bytes_written, 3 * (256 << 10));
        assert_eq!(report.consumed.bytes_read, 3 * (64 << 10));
        assert_eq!(report.consumed.mem_allocated, 3 << 20);
        assert_eq!(report.consumed.mem_freed, 3 << 20);
        assert!(report.tx > 0.0);
        assert_eq!(report.backend, "real");
    }

    #[test]
    fn disabled_atoms_do_nothing() {
        let plan = EmulationPlan {
            kernel: KernelChoice::Spin,
            emulate_storage: false,
            emulate_memory: false,
            ..Default::default()
        };
        let profile = profile_with(5_000_000, 2);
        let report = Emulator::new(plan).emulate(&profile).unwrap();
        assert_eq!(report.consumed.bytes_written, 0);
        assert_eq!(report.consumed.mem_allocated, 0);
        assert!(report.consumed.cycles > 0);
    }

    #[test]
    fn order_ablation_merges_samples() {
        let plan = EmulationPlan {
            kernel: KernelChoice::Spin,
            preserve_sample_order: false,
            ..Default::default()
        };
        let profile = profile_with(1_000_000, 5);
        let report = Emulator::new(plan).emulate(&profile).unwrap();
        assert_eq!(report.samples, 1);
        assert_eq!(report.consumed.directed_cycles, 5_000_000);
    }

    #[test]
    fn network_demand_drives_the_network_atom() {
        let mut profile = profile_with(0, 1);
        profile.samples[0].network.bytes_sent = 50_000;
        profile.samples[0].network.bytes_recv = 30_000;
        let report = Emulator::default().emulate(&profile).unwrap();
        assert_eq!(report.consumed.net_sent, 50_000);
        assert_eq!(report.consumed.net_recv, 30_000);
    }

    #[test]
    fn simulated_emulation_prices_against_machine() {
        let profile = profile_with(1_000_000_000, 4);
        let emu = Emulator::new(EmulationPlan {
            sim_startup_seconds: 1.0,
            ..Default::default()
        });
        let report = emu.simulate(&profile, &thinkie());
        assert_eq!(report.samples, 4);
        assert!(report.tx > 1.0, "startup accounted: {}", report.tx);
        assert!(report.consumed.cycles >= report.consumed.directed_cycles);
        assert!(report.consumed.instructions > 0);
        assert!(report.backend.contains("thinkie"));
    }

    #[test]
    fn faster_machine_simulates_faster() {
        let profile = profile_with(5_000_000_000, 4);
        let emu = Emulator::default();
        let slow = emu.simulate(&profile, &thinkie());
        let fast = emu.simulate(&profile, &stampede());
        assert!(fast.tx < slow.tx, "{} !< {}", fast.tx, slow.tx);
    }

    #[test]
    fn c_kernel_has_lower_overshoot_than_asm_in_sim() {
        let profile = profile_with(10_000_000_000, 2);
        let asm = Emulator::new(EmulationPlan {
            kernel: KernelChoice::Asm,
            ..Default::default()
        })
        .simulate(&profile, &comet());
        let c = Emulator::new(EmulationPlan {
            kernel: KernelChoice::C,
            ..Default::default()
        })
        .simulate(&profile, &comet());
        let err = |r: &EmulationReport| {
            r.consumed.cycles as f64 / r.consumed.directed_cycles as f64 - 1.0
        };
        assert!(err(&c) < err(&asm), "C {} vs ASM {}", err(&c), err(&asm));
    }

    #[test]
    fn parallel_sim_emulation_scales() {
        let profile = profile_with(20_000_000_000, 3);
        let serial = Emulator::new(EmulationPlan {
            sim_startup_seconds: 0.0,
            ..Default::default()
        })
        .simulate(&profile, &stampede());
        let parallel = Emulator::new(EmulationPlan {
            threads: 8,
            sim_startup_seconds: 0.0,
            ..Default::default()
        })
        .simulate(&profile, &stampede());
        assert!(parallel.tx < serial.tx);
        assert!(parallel.tx > serial.tx / 8.0, "contention is real");
    }

    #[test]
    fn real_parallel_threads_cover_budget() {
        let plan = EmulationPlan {
            kernel: KernelChoice::Spin,
            threads: 4,
            ..Default::default()
        };
        let profile = profile_with(40_000_000, 1);
        let report = Emulator::new(plan).emulate(&profile).unwrap();
        assert!(report.consumed.cycles >= 40_000_000);
    }

    #[test]
    fn plan_from_profile_adopts_granularity_and_threads() {
        let mut p = profile_with(1_000, 2);
        p.samples[0].storage.write_ops = 4; // 256 KiB / 4 = 64 KiB blocks
        p.samples[1].storage.write_ops = 4;
        p.samples[0].storage.read_ops = 2; // 64 KiB / 2 = 32 KiB blocks
        p.samples[1].storage.read_ops = 2;
        p.samples[0].compute.threads = 6;
        let plan = EmulationPlan::from_profile(&p);
        assert_eq!(plan.io_write_block, (256 << 10) / 4);
        assert_eq!(plan.io_read_block, (64 << 10) / 2);
        assert_eq!(plan.threads, 6);
        // An I/O-free profile keeps the defaults.
        let empty = Profile::new(ProfileKey::default(), SystemInfo::default(), 1.0);
        let plan2 = EmulationPlan::from_profile(&empty);
        assert_eq!(plan2.io_write_block, 1 << 20);
        assert_eq!(plan2.threads, 1);
    }

    #[test]
    fn empty_profile_is_trivial() {
        let p = Profile::new(ProfileKey::default(), SystemInfo::default(), 1.0);
        let report = Emulator::default().emulate(&p).unwrap();
        assert_eq!(report.samples, 0);
        assert_eq!(report.consumed, ConsumedTotals::default());
        let sim = Emulator::default().simulate(&p, &thinkie());
        assert!((sim.tx - 1.0).abs() < 1e-9, "startup only");
    }
}
