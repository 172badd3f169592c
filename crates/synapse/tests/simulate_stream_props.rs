//! The simulated backend's bit-identity contract: the pricing loop
//! resolves per-run constants once and reuses a price while its inputs
//! repeat, yet its reports equal — bit for bit — pricing every sample
//! through the `MachineModel` methods, and streaming a profile's
//! samples (or only their demands) equals simulating the profile.

use proptest::prelude::*;
use synapse::emulator::{ConsumedTotals, EmulationPlan, EmulationReport, Emulator, KernelChoice};
use synapse_model::{Profile, ProfileKey, Sample, SystemInfo, Tags};
use synapse_sim::{
    machine_by_name, FsKind, IoOp, MachineModel, ParallelMode, VirtualClock, MACHINE_NAMES,
};

/// The reference the contract is stated against: per-sample pricing
/// through `MachineModel::{compute_time, io_time, mem_time, net_time}`
/// over a materialized (and, for the ablation, pre-merged) sequence.
fn reference(plan: &EmulationPlan, profile: &Profile, machine: &MachineModel) -> EmulationReport {
    let class = plan.kernel.class();
    let kprofile = machine.kernel(class);
    let fs = plan.target_fs.unwrap_or(machine.default_fs);
    let workers = plan.threads.max(1);
    let pmodel = machine.parallel(plan.mode);

    let mut clock = VirtualClock::new();
    clock.advance(plan.sim_startup_seconds);
    if workers > 1 {
        clock.advance(pmodel.startup_fixed + pmodel.startup_per_worker * workers as f64);
    }

    let samples: Vec<Sample> = if plan.preserve_sample_order || profile.samples.len() <= 1 {
        profile.samples.clone()
    } else {
        let mut merged = profile.samples[0];
        for s in &profile.samples[1..] {
            merged = merged.absorb(s);
        }
        vec![merged]
    };
    let mut consumed = ConsumedTotals::default();
    for sample in &samples {
        let mut durations = [0.0f64; 4];
        if plan.emulate_compute && sample.compute.cycles > 0 {
            let directed = sample.compute.cycles;
            let actual = kprofile.consumed_cycles(directed);
            let serial = machine.compute_time(actual, class);
            durations[0] = if workers > 1 {
                let contention =
                    pmodel.contention * (workers as f64 - 1.0) / machine.cpu.ncores as f64;
                (serial / workers as f64) * (1.0 + contention)
            } else {
                serial
            };
            consumed.directed_cycles += directed;
            consumed.cycles += actual;
            consumed.instructions += (actual as f64 * kprofile.ipc) as u64;
        }
        if plan.emulate_storage {
            let rd = sample.storage.bytes_read;
            let wr = sample.storage.bytes_written;
            durations[1] = machine.io_time(rd, plan.io_read_block, IoOp::Read, fs)
                + machine.io_time(wr, plan.io_write_block, IoOp::Write, fs);
            consumed.bytes_read += rd;
            consumed.bytes_written += wr;
        }
        if plan.emulate_memory {
            durations[2] = machine.mem_time(sample.memory.allocated + sample.memory.freed);
            consumed.mem_allocated += sample.memory.allocated;
            consumed.mem_freed += sample.memory.freed;
        }
        if plan.emulate_network {
            durations[3] = machine.net_time(sample.network.bytes_sent + sample.network.bytes_recv);
            consumed.net_sent += sample.network.bytes_sent;
            consumed.net_recv += sample.network.bytes_recv;
        }
        clock.advance(durations.iter().cloned().fold(0.0, f64::max));
    }
    EmulationReport {
        tx: clock.now(),
        samples: samples.len(),
        consumed,
        backend: format!("sim:{}", machine.name),
    }
}

/// One sample's demands: cycles, bytes read/written, allocated, freed,
/// sent, received.
type Demands = (u64, u64, u64, u64, u64, u64, u64);

fn profile_of(demands: &[Demands]) -> Profile {
    let mut p = Profile::new(
        ProfileKey::new("prop-stream", Tags::new()),
        SystemInfo::default(),
        1.0,
    );
    p.runtime = demands.len() as f64;
    for (i, &(cycles, rd, wr, alloc, freed, sent, recv)) in demands.iter().enumerate() {
        let mut s = Sample::at(i as f64, 1.0);
        s.compute.cycles = cycles;
        s.storage.bytes_read = rd;
        s.storage.bytes_written = wr;
        s.memory.allocated = alloc;
        s.memory.freed = freed;
        s.network.bytes_sent = sent;
        s.network.bytes_recv = recv;
        p.push(s).unwrap();
    }
    p
}

/// Every plan the contract is claimed for: both sample orders, all 16
/// atom-enable combinations, serial and 8-wide, all three filesystem
/// kinds (whether or not the machine models them).
fn plans(kernel: KernelChoice, mode: ParallelMode, io_block: u64) -> Vec<EmulationPlan> {
    let mut plans = Vec::new();
    for preserve_sample_order in [true, false] {
        for atoms in 0u8..16 {
            for threads in [1, 8] {
                for fs in [FsKind::Local, FsKind::Lustre, FsKind::Nfs] {
                    plans.push(EmulationPlan {
                        kernel: kernel.clone(),
                        threads,
                        mode,
                        io_write_block: io_block,
                        io_read_block: io_block,
                        target_fs: Some(fs),
                        emulate_compute: atoms & 1 != 0,
                        emulate_memory: atoms & 2 != 0,
                        emulate_storage: atoms & 4 != 0,
                        emulate_network: atoms & 8 != 0,
                        preserve_sample_order,
                        ..Default::default()
                    });
                }
            }
        }
    }
    plans
}

fn assert_contract(profile: &Profile, machine: &MachineModel, plan: EmulationPlan) {
    let expected = reference(&plan, profile, machine);
    let emulator = Emulator::new(plan);
    let simulated = emulator.simulate(profile, machine);
    let streamed = emulator.simulate_stream(profile.samples.iter().copied(), machine);
    assert_eq!(simulated, expected, "{:?}", emulator.plan());
    assert_eq!(simulated.tx.to_bits(), expected.tx.to_bits());
    assert_eq!(streamed, simulated, "{:?}", emulator.plan());
    let priced = emulator.price(profile.samples.iter().map(Sample::demand), machine);
    assert_eq!(priced.tx.to_bits(), expected.tx.to_bits());
    assert_eq!(
        (priced.samples, priced.consumed),
        (expected.samples, expected.consumed),
        "{:?}",
        emulator.plan()
    );
}

/// One stretch of a steady-state profile, the input the price memos
/// exist for: `(shape, length, a, b)` with two free words.
type Run = (u8, usize, u64, u64);

/// Expand runs into per-sample demands around the quantization
/// intervals `(raw − unit, raw]` of a kernel with work quantum `unit`.
fn demands_of_runs(runs: &[Run], unit: u64) -> Vec<Demands> {
    let mut demands = Vec::new();
    let mut saturating = None;
    for &(shape, len, a, b) in runs {
        let raw = (1 + a % 10_000) * unit;
        let base: Demands = (
            raw,
            b % (2 << 20),
            (b >> 24) % (1 << 20),
            a % (1 << 30),
            b % (1 << 30),
            (a >> 16) % (4 << 20),
            (b >> 16) % (4 << 20),
        );
        for i in 0..len as u64 {
            let mut d = base;
            match shape {
                // One demand, repeated: every price is reused.
                0 => {}
                // Budgets spread over one interval share one price.
                1 => d.0 = raw - (a ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) % unit,
                // `raw` and `raw + 1` straddle an interval boundary.
                2 => d.0 = raw + i % 2,
                // Idle samples between busy ones: every atom skipped.
                3 if i % 2 == 1 => d = (0, 0, 0, 0, 0, 0, 0),
                3 => {}
                // A few alternating write sizes (one to three frames a
                // sample); six also walks the storage memo's
                // replacement.
                4 => d.2 = (1 + i % (1 + b % 6)) * (32 << 10),
                // Within two units of `u64::MAX`: on either side of
                // where `consumed_cycles` saturates.
                _ => {
                    d.0 = u64::MAX - a % (2 * unit);
                    saturating = Some(demands.len());
                }
            }
            demands.push(d);
        }
    }
    // The consumed-cycle totals are plain sums: next to a budget near
    // `u64::MAX` no other sample may direct cycles.
    if let Some(keep) = saturating {
        for (i, d) in demands.iter_mut().enumerate() {
            if i != keep {
                d.0 = 0;
            }
        }
    }
    demands
}

proptest! {
    #[test]
    fn streaming_prices_bit_identically_to_per_sample_model_calls(
        demands in proptest::collection::vec(
            (
                0u64..40_000_000_000,
                0u64..(64 << 20),
                0u64..(64 << 20),
                0u64..(1 << 30),
                0u64..(1 << 30),
                0u64..(16 << 20),
                0u64..(16 << 20),
            ),
            0..24,
        ),
        machine_idx in 0usize..6,
        c_kernel in any::<bool>(),
        mpi in any::<bool>(),
        io_block in 0u64..(4 << 20),
    ) {
        let machine = machine_by_name(MACHINE_NAMES[machine_idx]).unwrap();
        let kernel = if c_kernel { KernelChoice::C } else { KernelChoice::Asm };
        let mode = if mpi { ParallelMode::Mpi } else { ParallelMode::OpenMp };
        let profile = profile_of(&demands);
        for plan in plans(kernel, mode, io_block) {
            assert_contract(&profile, &machine, plan);
        }
    }
}

proptest! {
    #[test]
    fn runs_of_repeating_demands_price_bit_identically_to_per_sample_model_calls(
        runs in proptest::collection::vec(
            (0u8..6, 1usize..7, any::<u64>(), any::<u64>()),
            1..6,
        ),
        machine_idx in 0usize..6,
        c_kernel in any::<bool>(),
        mpi in any::<bool>(),
        io_block in 0u64..(4 << 20),
    ) {
        let machine = machine_by_name(MACHINE_NAMES[machine_idx]).unwrap();
        let kernel = if c_kernel { KernelChoice::C } else { KernelChoice::Asm };
        let mode = if mpi { ParallelMode::Mpi } else { ParallelMode::OpenMp };
        let unit = machine.kernel(kernel.class()).unit_cycles;
        prop_assert!(unit > 1, "the emulation kernels quantize");
        let profile = profile_of(&demands_of_runs(&runs, unit));
        for plan in plans(kernel, mode, io_block) {
            assert_contract(&profile, &machine, plan);
        }
    }
}

#[test]
fn empty_profile_prices_to_startup_only_under_every_plan() {
    let empty = profile_of(&[]);
    for name in MACHINE_NAMES {
        let machine = machine_by_name(name).unwrap();
        for plan in plans(KernelChoice::Asm, ParallelMode::OpenMp, 1 << 20) {
            assert_contract(&empty, &machine, plan);
        }
    }
    let report = Emulator::default()
        .simulate_stream(std::iter::empty(), &machine_by_name("thinkie").unwrap());
    assert_eq!(report.samples, 0);
    assert_eq!(report.consumed, ConsumedTotals::default());
}
