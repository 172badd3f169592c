//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;
use synapse_model::{
    stats, ComputeSample, MemorySample, NetworkSample, Profile, ProfileKey, Sample, StorageSample,
    Summary, SystemInfo, Tags,
};
use synapse_sim::{FsKind, FsModel, IoOp, KernelProfile, VirtualClock};
use synapse_store::{DbProfileStore, FileStore, ProfileStore, ShardedDb};

fn arb_sample(max_t: f64) -> impl Strategy<Value = Sample> {
    (
        0.0..max_t,
        0.001..2.0f64,
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
    )
        .prop_map(|(t, dt, cycles, instr, rd, wr, alloc)| Sample {
            t,
            dt,
            compute: ComputeSample {
                cycles: cycles as u64,
                instructions: instr as u64,
                stalled_frontend: (cycles / 7) as u64,
                stalled_backend: (cycles / 5) as u64,
                flops: (cycles / 2) as u64,
                threads: 1 + cycles % 8,
            },
            memory: MemorySample {
                allocated: alloc as u64,
                freed: (alloc / 2) as u64,
                rss: alloc as u64,
                peak: alloc as u64 + 1,
            },
            storage: StorageSample {
                bytes_read: rd as u64,
                bytes_written: wr as u64,
                read_ops: (rd % 1000) as u64,
                write_ops: (wr % 1000) as u64,
            },
            network: NetworkSample {
                bytes_sent: (rd % 4096) as u64,
                bytes_recv: (wr % 4096) as u64,
            },
        })
}

fn arb_profile() -> impl Strategy<Value = Profile> {
    proptest::collection::vec(arb_sample(1000.0), 0..40).prop_map(|mut samples| {
        samples.sort_by(|a, b| a.t.partial_cmp(&b.t).unwrap());
        let mut p = Profile::new(
            ProfileKey::new("prop", Tags::parse("kind=prop")),
            SystemInfo::default(),
            1.0,
        );
        p.runtime = samples.last().map_or(0.0, |s| s.t + s.dt);
        for s in samples {
            p.push(s).expect("sorted samples push cleanly");
        }
        p
    })
}

/// Keys over a small alphabet — three commands (one containing the
/// `@` the database's ids are split on), three tags each absent or one
/// of two values — so arbitrary queries match arbitrary subsets.
fn arb_key() -> impl Strategy<Value = ProfileKey> {
    (0usize..3, 0u8..3, 0u8..3, 0u8..3).prop_map(|(command, a, b, c)| {
        let tags = [("a", a), ("b", b), ("c", c)]
            .into_iter()
            .filter(|&(_, v)| v > 0)
            .fold(Tags::new(), |tags, (k, v)| tags.with(k, v));
        ProfileKey::new(["app", "app@000001", "tool --n 4"][command], tags)
    })
}

proptest! {
    #[test]
    fn profile_json_roundtrip(p in arb_profile()) {
        let json = p.to_json().unwrap();
        let back = Profile::from_json(&json).unwrap();
        prop_assert_eq!(p, back);
    }

    #[test]
    fn downsample_conserves_totals(p in arb_profile(), factor in 1usize..10) {
        let d = p.downsample(factor);
        prop_assert_eq!(p.totals(), d.totals());
        prop_assert!(d.len() <= p.len());
        prop_assert!(d.validate().is_ok());
    }

    #[test]
    fn db_store_roundtrips_profiles(p in arb_profile()) {
        let store = DbProfileStore::new(ShardedDb::in_memory());
        store.save(&p).unwrap();
        let got = store.load_matching(&p.key).unwrap();
        prop_assert_eq!(got.len(), 1);
        prop_assert_eq!(&got[0], &p);
    }

    #[test]
    fn db_truncation_preserves_prefix(p in arb_profile(), limit in 512usize..8192) {
        let store = DbProfileStore::new(ShardedDb::in_memory_with_limit(limit));
        match store.save(&p) {
            Ok(report) => {
                prop_assert_eq!(report.stored_samples + report.dropped_samples, p.len());
                let got = store.load_matching(&p.key).unwrap();
                prop_assert_eq!(got[0].samples.as_slice(), &p.samples[..report.stored_samples]);
            }
            Err(_) => {
                // Even the empty shell exceeded the limit — legal for
                // tiny limits.
            }
        }
    }

    #[test]
    fn summary_bounds_hold(values in proptest::collection::vec(-1e12..1e12f64, 1..100)) {
        let s = Summary::of(&values).unwrap();
        prop_assert!(s.min <= s.mean + 1e-6 * s.mean.abs().max(1.0));
        prop_assert!(s.mean <= s.max + 1e-6 * s.mean.abs().max(1.0));
        prop_assert!(s.std >= 0.0);
        prop_assert!(s.ci99() >= 0.0);
    }

    #[test]
    fn welford_matches_summary(values in proptest::collection::vec(-1e6..1e6f64, 2..200)) {
        let mut w = stats::Welford::new();
        for v in &values {
            w.push(*v);
        }
        let s = Summary::of(&values).unwrap();
        prop_assert!((w.mean() - s.mean).abs() <= 1e-6 * s.mean.abs().max(1.0));
        prop_assert!((w.std() - s.std).abs() <= 1e-6 * s.std.max(1.0));
    }

    #[test]
    fn tags_display_parse_roundtrip(pairs in proptest::collection::vec(("[a-z]{1,8}", "[a-z0-9]{0,8}"), 0..8)) {
        let tags = Tags::from_pairs(pairs);
        let back = Tags::parse(&tags.to_string());
        prop_assert_eq!(tags, back);
    }

    #[test]
    fn subset_tags_always_match_superset(
        base in proptest::collection::vec(("[a-z]{1,6}", "[a-z0-9]{1,6}"), 0..6),
        extra in proptest::collection::vec(("[A-Z]{1,6}", "[a-z0-9]{1,6}"), 0..4),
    ) {
        let query = Tags::from_pairs(base.clone());
        let mut all = base;
        all.extend(extra);
        let stored = Tags::from_pairs(all);
        prop_assert!(stored.matches(&query));
    }

    #[test]
    fn kernel_consumed_cycles_invariants(
        directed in 0u64..1_000_000_000,
        unit in 1u64..10_000_000,
        overhead in 0.0..0.5f64,
    ) {
        let k = KernelProfile {
            ipc: 2.0,
            efficiency: 0.8,
            overhead_frac: overhead,
            unit_cycles: unit,
        };
        let consumed = k.consumed_cycles(directed);
        prop_assert!(consumed >= directed, "never undershoots");
        if directed > 0 {
            // Bounded by one extra unit plus the overhead fraction
            // (floating point slack of one cycle).
            let bound = ((directed + unit) as f64 * (1.0 + overhead)) as u64 + 1;
            prop_assert!(consumed <= bound, "consumed {consumed} > bound {bound}");
        }
    }

    #[test]
    fn io_time_monotone_in_bytes_and_antitone_in_block(
        bytes_a in 1u64..1_000_000_000,
        extra in 0u64..1_000_000_000,
        block_small in 512u64..65_536,
        factor in 2u64..64,
    ) {
        let fs = FsModel {
            kind: FsKind::Local,
            read_latency: 1e-5,
            write_latency: 1e-4,
            read_bandwidth: 5e8,
            write_bandwidth: 1e8,
        };
        let block_large = block_small * factor;
        // More bytes cost more.
        prop_assert!(
            fs.io_time(bytes_a + extra, block_small, IoOp::Write)
                >= fs.io_time(bytes_a, block_small, IoOp::Write)
        );
        // Larger blocks never cost more.
        prop_assert!(
            fs.io_time(bytes_a, block_large, IoOp::Write)
                <= fs.io_time(bytes_a, block_small, IoOp::Write) + 1e-12
        );
    }

    #[test]
    fn virtual_clock_is_monotone(durations in proptest::collection::vec(-1.0..10.0f64, 0..50)) {
        let mut clock = VirtualClock::new();
        let mut last = clock.now();
        for d in durations {
            clock.advance(d);
            prop_assert!(clock.now() >= last);
            last = clock.now();
        }
    }

    #[test]
    fn both_stores_load_exactly_the_matching_runs_in_save_order(
        keys in proptest::collection::vec(arb_key(), 1..12),
        query in arb_key(),
    ) {
        // Run i carries runtime i, so save order can be read off a result.
        let saved: Vec<Profile> = keys
            .into_iter()
            .enumerate()
            .map(|(i, key)| {
                let mut p = Profile::new(key, SystemInfo::default(), 1.0);
                p.runtime = 1.0 + i as f64;
                p
            })
            .collect();
        // Runs of one key must come back in save order; the order
        // *between* keys is the backend's own, so group before comparing.
        let by_key = |mut runs: Vec<Profile>| {
            runs.sort_by_key(|p| p.key.id()); // stable
            runs
        };
        let expected = by_key(saved.iter().filter(|p| p.key.matches(&query)).cloned().collect());

        let dir = std::env::temp_dir().join(format!("synapse-prop-stores-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let file = FileStore::open(&dir).unwrap();
        let db = DbProfileStore::new(ShardedDb::in_memory());
        let backends: [&dyn ProfileStore; 2] = [&file, &db];
        for store in backends {
            for p in &saved {
                store.save(p).unwrap();
            }
            prop_assert_eq!(&by_key(store.load_matching(&query).unwrap()), &expected);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn error_pct_is_symmetric_in_magnitude(a in 0.1..1e6f64, b in 0.1..1e6f64) {
        // |err(a vs b)| uses b as reference; scaling both by the same
        // factor leaves it unchanged.
        let e1 = stats::error_pct(a, b).unwrap();
        let e2 = stats::error_pct(a * 7.0, b * 7.0).unwrap();
        prop_assert!((e1 - e2).abs() < 1e-9 * e1.abs().max(1.0));
    }
}

mod sim_emulator_props {
    use proptest::prelude::*;
    use synapse::emulator::{EmulationPlan, Emulator, KernelChoice};
    use synapse_model::{Profile, ProfileKey, Sample, SystemInfo, Tags};
    use synapse_sim::{machine_by_name, MACHINE_NAMES};

    fn profile_of(cycles: Vec<u32>) -> Profile {
        let mut p = Profile::new(
            ProfileKey::new("prop-sim", Tags::new()),
            SystemInfo::default(),
            1.0,
        );
        p.runtime = cycles.len() as f64;
        for (i, c) in cycles.iter().enumerate() {
            let mut s = Sample::at(i as f64, 1.0);
            s.compute.cycles = *c as u64 * 1000;
            s.storage.bytes_written = *c as u64;
            p.push(s).unwrap();
        }
        p
    }

    proptest! {
        #[test]
        fn simulated_tx_is_finite_positive_and_monotone_in_work(
            cycles in proptest::collection::vec(1u32..u32::MAX, 1..20),
            machine_idx in 0usize..6,
        ) {
            let machine = machine_by_name(MACHINE_NAMES[machine_idx]).unwrap();
            let emulator = Emulator::new(EmulationPlan {
                sim_startup_seconds: 0.0,
                ..Default::default()
            });
            let base = emulator.simulate(&profile_of(cycles.clone()), &machine);
            prop_assert!(base.tx.is_finite());
            prop_assert!(base.tx > 0.0);
            // Doubling every sample's demand cannot make it faster.
            let doubled: Vec<u32> = cycles.iter().map(|c| c.saturating_mul(2)).collect();
            let more = emulator.simulate(&profile_of(doubled), &machine);
            prop_assert!(more.tx >= base.tx);
        }

        #[test]
        fn merged_replay_is_never_slower(
            cycles in proptest::collection::vec(1u32..u32::MAX, 2..20),
        ) {
            // Disabling sample ordering can only increase concurrency,
            // so simulated Tx can only shrink (Fig. 2's mechanism).
            let machine = machine_by_name("thinkie").unwrap();
            let p = profile_of(cycles);
            let ordered = Emulator::new(EmulationPlan {
                sim_startup_seconds: 0.0,
                ..Default::default()
            }).simulate(&p, &machine);
            let merged = Emulator::new(EmulationPlan {
                sim_startup_seconds: 0.0,
                preserve_sample_order: false,
                ..Default::default()
            }).simulate(&p, &machine);
            prop_assert!(merged.tx <= ordered.tx + 1e-9);
            prop_assert_eq!(merged.consumed.directed_cycles, ordered.consumed.directed_cycles);
        }

        #[test]
        fn more_workers_never_slow_compute_only_replay(
            cycles in proptest::collection::vec(1_000u32..u32::MAX, 1..10),
            workers in 2u32..16,
        ) {
            let machine = machine_by_name("stampede").unwrap();
            let p = profile_of(cycles);
            let plan = |threads| EmulationPlan {
                threads,
                emulate_storage: false,
                emulate_memory: false,
                emulate_network: false,
                sim_startup_seconds: 0.0,
                ..Default::default()
            };
            let serial = Emulator::new(plan(1)).simulate(&p, &machine);
            let parallel = Emulator::new(plan(workers)).simulate(&p, &machine);
            // With zero startup cost in the plan, the per-sample
            // parallel duration is (serial/n)(1+contention) which is
            // below serial whenever contention < n-1 — true for all
            // catalog machines up to their core counts.
            prop_assert!(parallel.tx <= serial.tx + 1e-9);
        }

        #[test]
        fn c_kernel_overshoot_never_exceeds_asm_on_e3_machines(
            cycles in 1_000_000u64..100_000_000_000,
        ) {
            for name in ["comet", "supermic"] {
                let machine = machine_by_name(name).unwrap();
                let c = machine.kernel(synapse_sim::KernelClass::CMatmul).consumed_cycles(cycles);
                let asm = machine.kernel(synapse_sim::KernelClass::AsmMatmul).consumed_cycles(cycles);
                // ASM has both a smaller unit and a much larger
                // overhead; beyond one unit its consumption dominates.
                if cycles > 10_000_000 {
                    prop_assert!(c <= asm, "{name}: C {c} vs ASM {asm} for {cycles}");
                }
                prop_assert!(c >= cycles);
                prop_assert!(asm >= cycles);
            }
        }

        #[test]
        fn kernel_choice_is_pure_labeling(seed in 0u64..1000) {
            // build() returns a working kernel for every choice.
            let choices = [KernelChoice::Asm, KernelChoice::C, KernelChoice::Spin];
            let choice = &choices[(seed % 3) as usize];
            let kernel = choice.build();
            prop_assert!(kernel.unit_cycles() > 0);
            prop_assert!(!choice.name().is_empty());
        }
    }
}
