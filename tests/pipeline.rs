//! End-to-end pipeline tests on the real host: profile → store →
//! emulate, exercising every crate together.

use synapse::config::ProfilerConfig;
use synapse::emulator::{EmulationPlan, Emulator, KernelChoice};
use synapse::{api, Profiler};
use synapse_model::{ProfileKey, Tags};
use synapse_store::{DbProfileStore, FileStore, ProfileStore, ShardedDb};
use synapse_workloads::{PhaseOp, PhaseScript};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("synapse-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn profile_fn_captures_synthetic_script_resources() {
    // An in-process synthetic application with known ground truth.
    let script = PhaseScript::new(vec![
        PhaseOp::Compute { flops: 40_000_000 },
        PhaseOp::DiskWrite {
            bytes: 4 << 20,
            block: 1 << 20,
        },
        PhaseOp::Compute { flops: 20_000_000 },
    ]);
    let profiler = Profiler::new(ProfilerConfig::with_rate(10.0));
    let key = ProfileKey::new("synthetic-script", Tags::parse("case=pipeline"));
    let (outcome, report) = profiler
        .profile_fn(key, || script.execute().expect("script runs"))
        .expect("profiling works");
    assert_eq!(report.flops, 60_000_000);
    assert_eq!(report.bytes_written, 4 << 20);

    let profile = &outcome.profile;
    assert!(profile.validate().is_ok());
    assert!(profile.runtime > 0.0);
    let totals = profile.totals();
    // The CPU watcher saw the flop burn (exact cycles depend on the
    // counter backend; presence is what matters).
    assert!(totals.cycles > 0, "compute activity observed");
    // The I/O watcher saw the write — unless the container denies
    // /proc/<pid>/io, in which case it degrades to zero.
    if totals.bytes_written > 0 {
        assert!(
            totals.bytes_written >= 4 << 20,
            "write volume observed: {}",
            totals.bytes_written
        );
    }
    assert!(totals.mem_peak > 0, "memory gauge observed");
}

#[test]
fn profile_store_emulate_roundtrip_via_db_backend() {
    let store = DbProfileStore::new(ShardedDb::in_memory());
    let config = ProfilerConfig::with_rate(10.0);
    let outcome = api::profile("sleep 0.2", Some(Tags::parse("it=db")), &store, &config)
        .expect("profile sleep");
    assert_eq!(outcome.timed.exit_code, 0);

    let plan = EmulationPlan {
        kernel: KernelChoice::Spin,
        ..Default::default()
    };
    let report = api::emulate("sleep 0.2", Some(Tags::parse("it=db")), &store, &plan)
        .expect("emulate from db");
    assert!(report.samples >= 1);
    // A sleeping process demands almost nothing of the atoms.
    assert!(report.tx < 5.0);
}

#[test]
fn repeated_profiles_feed_statistics_and_representative_selection() {
    let dir = tmpdir("stats");
    let store = FileStore::open(&dir).unwrap();
    let config = ProfilerConfig::with_rate(10.0);
    for _ in 0..3 {
        api::profile("sleep 0.15", Some(Tags::parse("it=stats")), &store, &config)
            .expect("repeated profiling");
    }
    let key = ProfileKey::new("sleep 0.15", Tags::parse("it=stats"));
    let set = store.load_set(&key).unwrap();
    assert_eq!(set.len(), 3);
    let rt = set.runtime_summary().unwrap();
    assert!(rt.mean >= 0.14, "mean runtime {}", rt.mean);
    assert!(rt.std < 0.5, "repeated sleeps are consistent");
    let rep = store.load_representative(&key).unwrap();
    assert!((rep.runtime - rt.mean).abs() <= (rt.max - rt.min) + 1e-9);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn emulation_consumes_comparable_cpu_to_profiled_burn() {
    // Profile an in-process CPU burn, then emulate it with the spin
    // kernel: the emulation's consumed cycles must be within a factor
    // of two of what was profiled (both sides use the same calibrated
    // cycle definition).
    let profiler = Profiler::new(ProfilerConfig::with_rate(10.0));
    let key = ProfileKey::new("burn", Tags::parse("it=cpu"));
    let (outcome, _) = profiler
        .profile_fn(key, || {
            std::hint::black_box(synapse_perf::calibration::spin_cycles(400_000_000))
        })
        .expect("profile burn");
    let profiled_cycles = outcome.profile.totals().cycles;
    assert!(profiled_cycles > 0);

    let plan = EmulationPlan {
        kernel: KernelChoice::Spin,
        emulate_memory: false,
        emulate_storage: false,
        emulate_network: false,
        ..Default::default()
    };
    let report = Emulator::new(plan).emulate(&outcome.profile).unwrap();
    assert_eq!(report.consumed.directed_cycles, profiled_cycles);
    assert!(report.consumed.cycles >= profiled_cycles);
    assert!(
        report.consumed.cycles < profiled_cycles * 2,
        "overshoot bounded: directed {profiled_cycles}, consumed {}",
        report.consumed.cycles
    );
}

#[test]
fn file_and_db_backends_agree_on_content() {
    let dir = tmpdir("agree");
    let fstore = FileStore::open(&dir).unwrap();
    let dstore = DbProfileStore::new(ShardedDb::in_memory());
    let config = ProfilerConfig::with_rate(10.0);

    let profiler = Profiler::new(config);
    let key = ProfileKey::new("sleep 0.1", Tags::parse("it=agree"));
    let outcome = profiler
        .profile_command("/bin/sleep", &["0.1"], key.clone())
        .unwrap();
    ProfileStore::save(&fstore, &outcome.profile).unwrap();
    ProfileStore::save(&dstore, &outcome.profile).unwrap();

    let from_file = fstore.load_representative(&key).unwrap();
    let from_db = dstore.load_representative(&key).unwrap();
    assert_eq!(from_file, from_db);
    assert_eq!(from_file, outcome.profile);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn order_preservation_affects_real_replay_structure() {
    // Build a profile with distinct per-sample demands and check the
    // ordering ablation collapses it to one sample on the real
    // backend as well.
    let profiler = Profiler::new(ProfilerConfig::with_rate(10.0));
    let key = ProfileKey::new("burst", Tags::parse("it=order"));
    let (outcome, _) = profiler
        .profile_fn(key, || {
            for _ in 0..3 {
                std::hint::black_box(synapse_perf::calibration::spin_cycles(80_000_000));
                std::thread::sleep(std::time::Duration::from_millis(120));
            }
        })
        .unwrap();
    assert!(outcome.profile.len() >= 3, "several samples collected");

    let ordered = Emulator::new(EmulationPlan {
        kernel: KernelChoice::Spin,
        ..Default::default()
    })
    .emulate(&outcome.profile)
    .unwrap();
    let merged = Emulator::new(EmulationPlan {
        kernel: KernelChoice::Spin,
        preserve_sample_order: false,
        ..Default::default()
    })
    .emulate(&outcome.profile)
    .unwrap();
    assert_eq!(merged.samples, 1);
    assert!(ordered.samples >= 3);
    assert_eq!(
        ordered.consumed.directed_cycles, merged.consumed.directed_cycles,
        "ablation changes structure, not volume"
    );
}
