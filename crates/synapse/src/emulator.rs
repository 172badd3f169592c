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
//!   original testbeds (the substitution is described in the README's
//!   "Paper experiments" section).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use synapse_atoms::{
    CMatmulKernel, ComputeKernel, InCacheAsmKernel, MemoryAtom, NetworkAtom, SpinKernel,
    StorageAtom,
};
use synapse_model::{Demand, Profile, Sample};
use synapse_sim::{
    FsKind, FsModel, IoOp, KernelClass, KernelProfile, MachineModel, ParallelMode, VirtualClock,
};

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
    /// filesystem", E.5); `None` is the system temporary directory,
    /// looked up when the real backend starts.
    pub io_dir: Option<PathBuf>,
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
            io_dir: None,
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

/// What pricing a demand stream on the simulated backend yields: an
/// [`EmulationReport`] without the backend tag (a `String` a sweep
/// would build and drop once per point).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Priced {
    /// Emulated execution time Tx in virtual seconds.
    pub tx: f64,
    /// Samples replayed.
    pub samples: usize,
    /// Resource consumption totals.
    pub consumed: ConsumedTotals,
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

    /// The demand sequence the real backend replays: one per profiled
    /// sample, or one all-concurrent merged demand when order
    /// preservation is disabled (ablation).
    fn replay_demands(&self, profile: &Profile) -> Vec<Demand> {
        let demands = profile.samples.iter().map(Sample::demand);
        if self.plan.preserve_sample_order {
            demands.collect()
        } else {
            merged(demands).into_iter().collect()
        }
    }

    /// Replay a profile on the **real backend**, consuming this host's
    /// resources.
    pub fn emulate(&self, profile: &Profile) -> Result<EmulationReport, SynapseError> {
        let start = Instant::now();
        let kernel = self.plan.kernel.build();
        let mut memory = MemoryAtom::with_config(self.plan.mem_block, 1 << 30);
        let io_dir = self.plan.io_dir.clone().unwrap_or_else(std::env::temp_dir);
        let mut storage = StorageAtom::with_config(
            &io_dir,
            self.plan.io_write_block,
            self.plan.io_read_block,
            256 << 20,
        )?;
        let demands = self.replay_demands(profile);
        let needs_network =
            self.plan.emulate_network && demands.iter().any(|d| d.sent > 0 || d.recv > 0);
        let mut network = if needs_network {
            Some(NetworkAtom::new()?)
        } else {
            None
        };

        let mut consumed = ConsumedTotals::default();

        for demand in &demands {
            // Per-sample demands, gated by the plan's enable flags.
            let cycles = if self.plan.emulate_compute {
                demand.cycles
            } else {
                0
            };
            let (alloc, free) = if self.plan.emulate_memory {
                (demand.allocated, demand.freed)
            } else {
                (0, 0)
            };
            let (rd, wr) = if self.plan.emulate_storage {
                (demand.bytes_read, demand.bytes_written)
            } else {
                (0, 0)
            };
            let (sent, recv) = if self.plan.emulate_network {
                (demand.sent, demand.recv)
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
            samples: demands.len(),
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
    /// An adapter over [`Emulator::price`]: only the [`Demand`] of a
    /// sample is read, so a stream that leaves the other fields unset
    /// prices identically.
    ///
    /// **Bit-identity contract.** Reports are bit-for-bit what pricing
    /// each sample through the [`MachineModel`] methods
    /// (`compute_time` of `consumed_cycles`, `io_time`, `mem_time`,
    /// `net_time`) and advancing the clock by the largest of the four
    /// gives — which is what lets cached campaign results, recorded
    /// traces and the golden digest survive changes to the pricing loop
    /// without an engine version bump. The loop may take three
    /// shortcuts and no others:
    ///
    /// * **Hoist** what is constant over a run (the kernel profile, the
    ///   cycle rate, the filesystem model, the bandwidths, the
    ///   contention factor), keeping each float operation's operands
    ///   and order: a divisor is hoisted, never turned into a
    ///   multiplication by its reciprocal, and no two operations are
    ///   fused or reassociated.
    /// * **Reuse** a price only when every input that determines it is
    ///   equal: the compute price is a function of the quantized budget
    ///   `ceil(directed / unit) × unit` alone, the storage price of the
    ///   `(read, written)` byte pair alone; an atom with no demand
    ///   costs exactly `0.0`.
    /// * Never skip the clock: it advances once per sample, in
    ///   collection order, so the float sum that is `tx` keeps its
    ///   order. (Pricing a run of `n` equal samples as `n × t` would
    ///   not, and needs an engine version bump.)
    pub fn simulate_stream(
        &self,
        samples: impl Iterator<Item = Sample>,
        machine: &MachineModel,
    ) -> EmulationReport {
        let priced = self.price(samples.map(|sample| sample.demand()), machine);
        EmulationReport {
            tx: priced.tx,
            samples: priced.samples,
            consumed: priced.consumed,
            backend: format!("sim:{}", machine.name),
        }
    }

    /// Price a stream of demands on the **simulated backend** — what
    /// [`Emulator::simulate_stream`] does, without the detour through
    /// full samples or the report's backend tag. With
    /// `preserve_sample_order` off, the stream is first folded into one
    /// all-concurrent demand.
    pub fn price(&self, demands: impl Iterator<Item = Demand>, machine: &MachineModel) -> Priced {
        if self.plan.preserve_sample_order {
            self.price_in_order(demands, machine)
        } else {
            self.price_in_order(merged(demands).into_iter(), machine)
        }
    }

    /// The one pricing loop of the simulated backend (contract:
    /// [`Emulator::simulate_stream`]).
    fn price_in_order(
        &self,
        demands: impl Iterator<Item = Demand>,
        machine: &MachineModel,
    ) -> Priced {
        let plan = &self.plan;
        let workers = plan.threads.max(1);
        let pmodel = machine.parallel(plan.mode);
        let mut compute = ComputePrice::new(
            machine.kernel(plan.kernel.class()),
            machine,
            (workers > 1).then(|| {
                let contention =
                    pmodel.contention * (workers as f64 - 1.0) / machine.cpu.ncores as f64;
                (workers as f64, 1.0 + contention)
            }),
        );
        let mut storage = StoragePrice::new(
            machine.fs_or_default(plan.target_fs.unwrap_or(machine.default_fs)),
            plan.io_read_block,
            plan.io_write_block,
        );
        // `MachineModel::{mem_time, net_time}`'s divisors.
        let mem_bandwidth = machine.mem_bandwidth.max(1.0);
        let net_bandwidth = machine.net_bandwidth.max(1.0);

        let mut clock = VirtualClock::new();
        clock.advance(plan.sim_startup_seconds);
        if workers > 1 {
            // Worker pool launch cost, once per emulation.
            clock.advance(pmodel.startup_fixed + pmodel.startup_per_worker * workers as f64);
        }

        let mut consumed = ConsumedTotals::default();
        let mut replayed = 0usize;

        for demand in demands {
            replayed += 1;
            // Concurrent atoms: the sample ends when the last one does.
            // An atom with no demand takes exactly 0.0 seconds, which
            // never is the longest, so it is neither priced nor compared.
            let mut sample_time = 0.0f64;
            if plan.emulate_compute && demand.cycles > 0 {
                compute.reprice(demand.cycles);
                sample_time = sample_time.max(compute.seconds);
                consumed.directed_cycles += demand.cycles;
                consumed.cycles += compute.actual;
                consumed.instructions += compute.instructions;
            }
            if plan.emulate_storage && (demand.bytes_read > 0 || demand.bytes_written > 0) {
                let seconds = storage.seconds(demand.bytes_read, demand.bytes_written);
                sample_time = sample_time.max(seconds);
                consumed.bytes_read += demand.bytes_read;
                consumed.bytes_written += demand.bytes_written;
            }
            if plan.emulate_memory && (demand.allocated > 0 || demand.freed > 0) {
                let bytes = demand.allocated + demand.freed;
                sample_time = sample_time.max(bytes as f64 / mem_bandwidth);
                consumed.mem_allocated += demand.allocated;
                consumed.mem_freed += demand.freed;
            }
            if plan.emulate_network && (demand.sent > 0 || demand.recv > 0) {
                let bytes = demand.sent + demand.recv;
                sample_time = sample_time.max(bytes as f64 / net_bandwidth);
                consumed.net_sent += demand.sent;
                consumed.net_recv += demand.recv;
            }
            clock.advance(sample_time);
        }

        Priced {
            tx: clock.now(),
            samples: replayed,
            consumed,
        }
    }
}

/// The compute atom's price for a directed cycle budget, re-derived
/// only when the budget leaves the quantization interval the current
/// price was derived for: every `directed` in `(raw − unit, raw]`
/// quantizes to the same `raw`, and everything below is a function of
/// `raw` and per-run constants.
struct ComputePrice {
    /// `KernelProfile::consumed_cycles`' `unit`.
    unit: u64,
    /// `KernelProfile::consumed_cycles`' `1.0 + overhead_frac.max(0.0)`.
    overshoot: f64,
    ipc: f64,
    /// `MachineModel::compute_time`'s divisor.
    cycle_rate: f64,
    /// `(workers as f64, 1.0 + contention)` when the budget is split
    /// over a worker pool.
    parallel: Option<(f64, f64)>,
    /// The current price holds for `directed` in `(above, up_to]`
    /// (empty before the first budget and after a saturated one).
    above: u64,
    up_to: u64,
    /// Cycles consumed (quantized, with overhead).
    actual: u64,
    /// Wall time of `actual` on the machine.
    seconds: f64,
    /// Instructions retired.
    instructions: u64,
}

impl ComputePrice {
    fn new(kernel: KernelProfile, machine: &MachineModel, parallel: Option<(f64, f64)>) -> Self {
        ComputePrice {
            unit: kernel.unit_cycles.max(1),
            overshoot: 1.0 + kernel.overhead_frac.max(0.0),
            ipc: kernel.ipc,
            cycle_rate: machine.cpu.effective_freq_hz * kernel.efficiency.max(1e-6),
            parallel,
            above: 0,
            up_to: 0,
            actual: 0,
            seconds: 0.0,
            instructions: 0,
        }
    }

    /// Make `actual`, `seconds` and `instructions` the price of
    /// `directed > 0` cycles.
    #[inline]
    fn reprice(&mut self, directed: u64) {
        if self.above < directed && directed <= self.up_to {
            return;
        }
        let units = directed.div_ceil(self.unit);
        let raw = match units.checked_mul(self.unit) {
            Some(raw) => {
                (self.above, self.up_to) = (raw - self.unit, raw);
                raw
            }
            // `consumed_cycles` saturates here; budgets that share this
            // `units` need not share an interval below `u64::MAX`.
            None => {
                (self.above, self.up_to) = (0, 0);
                u64::MAX
            }
        };
        self.actual = (raw as f64 * self.overshoot) as u64;
        let serial = self.actual as f64 / self.cycle_rate;
        self.seconds = match self.parallel {
            Some((workers, contended)) => (serial / workers) * contended,
            None => serial,
        };
        self.instructions = (self.actual as f64 * self.ipc) as u64;
    }
}

/// The storage atom's price for a `(read, written)` byte pair, kept for
/// the last few distinct pairs: a steady-state profile alternates
/// between a handful of write sizes (one to three frames a sample).
struct StoragePrice<'m> {
    fs: &'m FsModel,
    read_block: u64,
    write_block: u64,
    /// `(read, written, seconds)`, replaced round-robin. The initial
    /// entries are true: no bytes take `0.0 + 0.0` seconds.
    memo: [(u64, u64, f64); 4],
    next: usize,
}

impl<'m> StoragePrice<'m> {
    fn new(fs: &'m FsModel, read_block: u64, write_block: u64) -> Self {
        StoragePrice {
            fs,
            read_block,
            write_block,
            memo: [(0, 0, 0.0); 4],
            next: 0,
        }
    }

    /// The hit path is a few compares and stays in the pricing loop;
    /// deriving a price is a call the loop makes once per distinct pair.
    #[inline(always)]
    fn seconds(&mut self, read: u64, written: u64) -> f64 {
        match self
            .memo
            .iter()
            .find(|&&(r, w, _)| r == read && w == written)
        {
            Some(&(_, _, seconds)) => seconds,
            None => self.derive(read, written),
        }
    }

    #[cold]
    fn derive(&mut self, read: u64, written: u64) -> f64 {
        let seconds = self.fs.io_time(read, self.read_block, IoOp::Read)
            + self.fs.io_time(written, self.write_block, IoOp::Write);
        self.memo[self.next] = (read, written, seconds);
        self.next = (self.next + 1) % self.memo.len();
        seconds
    }
}

/// Merge a demand sequence into one all-concurrent demand (the
/// ordering ablation of Fig. 2); `None` for an empty sequence.
fn merged(demands: impl Iterator<Item = Demand>) -> Option<Demand> {
    demands.reduce(|merged, demand| merged.merged(&demand))
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
            io_dir: Some(std::env::temp_dir()),
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
    fn compute_price_follows_the_kernel_profile_across_interval_and_saturation_edges() {
        // The pricing loop sums consumed cycles, so a profile cannot
        // hold two budgets near `u64::MAX`; the memo is walked directly.
        for machine in [thinkie(), comet(), stampede()] {
            for (class, coarse) in [
                (KernelClass::AsmMatmul, false),
                (KernelClass::CMatmul, false),
                (KernelClass::CMatmul, true),
            ] {
                let mut kernel = machine.kernel(class);
                if coarse {
                    // With overhead, every budget this large consumes
                    // `u64::MAX`; without, only the saturated ones do.
                    kernel.overhead_frac = 0.0;
                    kernel.unit_cycles = 1 << 40;
                }
                let unit = kernel.unit_cycles;
                // The largest budget `consumed_cycles` does not saturate on.
                let top = u64::MAX / unit * unit;
                let budgets = [
                    top,
                    top + 1,
                    top - 1,
                    u64::MAX,
                    top - unit + 1,
                    u64::MAX - unit + 1,
                    top - unit,
                    top + 1,
                    top,
                    1,
                    unit,
                    unit + 1,
                    unit,
                ];
                let mut price = ComputePrice::new(kernel, &machine, None);
                for directed in budgets {
                    price.reprice(directed);
                    let actual = kernel.consumed_cycles(directed);
                    assert_eq!(
                        price.actual, actual,
                        "{} {class:?} {directed}",
                        machine.name
                    );
                    assert_eq!(
                        price.seconds.to_bits(),
                        machine.compute_time(actual, class).to_bits()
                    );
                    assert_eq!(price.instructions, (actual as f64 * kernel.ipc) as u64);
                }
            }
        }
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
