//! Failure injection: the toolkit must degrade cleanly when the
//! observed application crashes, vanishes, or the environment denies
//! resources.

use synapse::config::ProfilerConfig;
use synapse::emulator::{EmulationPlan, Emulator, KernelChoice};
use synapse::{api, Profiler, SynapseError};
use synapse_model::{ProfileKey, Sample, SystemInfo, Tags};
use synapse_store::{DbProfileStore, FileStore, ShardedDb, StoreError};

#[test]
fn crashing_application_still_produces_a_profile() {
    let profiler = Profiler::new(ProfilerConfig::with_rate(10.0));
    let key = ProfileKey::new("crasher", Tags::new());
    let outcome = profiler
        .profile_command(
            "/bin/sh",
            &[
                "-c",
                "i=0; while [ $i -lt 50000 ]; do i=$((i+1)); done; exit 42",
            ],
            key,
        )
        .expect("profiling a crashing app is not an error");
    assert_eq!(outcome.timed.exit_code, 42);
    assert!(outcome.profile.validate().is_ok());
    assert!(outcome.profile.runtime > 0.0);
}

#[test]
fn signal_killed_application_is_reported() {
    let profiler = Profiler::new(ProfilerConfig::with_rate(10.0));
    let key = ProfileKey::new("suicide", Tags::new());
    let outcome = profiler
        .profile_command("/bin/sh", &["-c", "kill -KILL $$"], key)
        .expect("profiling survives the signal death");
    assert_eq!(outcome.timed.exit_code, 128 + libc::SIGKILL);
}

#[test]
fn nonexistent_binary_fails_fast() {
    let profiler = Profiler::new(ProfilerConfig::default());
    let err = profiler.profile_command("/definitely/not/here", &[], ProfileKey::default());
    assert!(err.is_err());
}

#[test]
fn instantly_exiting_application_yields_consistent_profile() {
    // The extreme race: the process is gone before the first sample.
    let profiler = Profiler::new(ProfilerConfig::with_rate(10.0));
    let key = ProfileKey::new("true", Tags::new());
    let outcome = profiler
        .profile_command("/bin/true", &[], key)
        .expect("profiling /bin/true");
    assert_eq!(outcome.timed.exit_code, 0);
    assert!(outcome.profile.validate().is_ok());
    // At least the final full period exists.
    assert!(!outcome.profile.is_empty());
}

#[test]
fn emulation_with_unwritable_io_dir_errors_cleanly() {
    let mut profile = synapse_model::Profile::new(
        ProfileKey::new("io", Tags::new()),
        SystemInfo::default(),
        1.0,
    );
    profile.runtime = 1.0;
    let mut s = Sample::at(0.0, 1.0);
    s.storage.bytes_written = 4096;
    profile.push(s).unwrap();

    let plan = EmulationPlan {
        kernel: KernelChoice::Spin,
        io_dir: Some("/proc/definitely-unwritable".into()),
        ..Default::default()
    };
    let err = Emulator::new(plan).emulate(&profile);
    assert!(matches!(err, Err(SynapseError::Io(_))));
}

#[test]
fn db_backend_with_hopeless_limit_reports_document_too_large() {
    let store = DbProfileStore::new(ShardedDb::in_memory_with_limit(8));
    let config = ProfilerConfig::with_rate(10.0);
    let err = api::profile("sleep 0.1", None, &store, &config);
    match err {
        Err(SynapseError::Store(StoreError::DocumentTooLarge { limit, .. })) => {
            assert_eq!(limit, 8);
        }
        other => panic!("expected DocumentTooLarge, got {other:?}"),
    }
}

#[test]
fn emulating_unprofiled_commands_is_a_named_error() {
    let dir = std::env::temp_dir().join(format!("synapse-fail-{}", std::process::id()));
    let store = FileStore::open(&dir).unwrap();
    let err = api::emulate("ghost command", None, &store, &EmulationPlan::default());
    match err {
        Err(SynapseError::ProfileNotFound(key)) => assert!(key.contains("ghost")),
        other => panic!("expected ProfileNotFound, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn invalid_sampling_rates_are_rejected_before_spawning() {
    let dir = std::env::temp_dir().join(format!("synapse-rate-{}", std::process::id()));
    let store = FileStore::open(&dir).unwrap();
    let config = ProfilerConfig::with_rate(-3.0);
    let err = api::profile("sleep 1", None, &store, &config);
    assert!(matches!(err, Err(SynapseError::Config(_))));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn corrupted_profile_files_surface_as_store_errors() {
    let dir = std::env::temp_dir().join(format!("synapse-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = FileStore::open(&dir).unwrap();
    let mut profile = synapse_model::Profile::new(
        ProfileKey::new("victim", Tags::new()),
        SystemInfo::default(),
        1.0,
    );
    profile.runtime = 1.0;
    let path = store.save(&profile).unwrap();
    std::fs::write(&path, "{ this is not json").unwrap();
    let err = store.load_matching(&profile.key);
    assert!(err.is_err());
    let _ = std::fs::remove_dir_all(dir);
}
