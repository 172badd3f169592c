//! Black-box profiling of the real mini-MD application binary
//! (`synapse-mdsim`) — the closest live analogue of the paper's
//! Gromacs runs: CPU and disk output scale with the step count, disk
//! input and memory stay constant.

use synapse::config::ProfilerConfig;
use synapse::Profiler;
use synapse_model::{ProfileKey, Tags};

fn profile_mdsim(steps: u64) -> synapse_model::Profile {
    let out = std::env::temp_dir().join(format!(
        "synapse-realapp-{}-{steps}.trj",
        std::process::id()
    ));
    let profiler = Profiler::new(ProfilerConfig::with_rate(10.0));
    let key = ProfileKey::new("synapse-mdsim", Tags::new().with("steps", steps));
    let outcome = profiler
        .profile_command(
            env!("CARGO_BIN_EXE_synapse-mdsim"),
            &[
                "--steps",
                &steps.to_string(),
                "--particles",
                "48",
                "--frame-interval",
                "50",
                "--out",
                out.to_str().unwrap(),
                "--quiet",
            ],
            key,
        )
        .expect("profile mdsim");
    assert_eq!(outcome.timed.exit_code, 0, "mdsim ran cleanly");
    let _ = std::fs::remove_file(out);
    outcome.profile
}

#[test]
fn mdsim_profiles_cleanly_and_scales_with_steps() {
    let small = profile_mdsim(800);
    let large = profile_mdsim(4000);
    assert!(small.validate().is_ok());
    assert!(large.validate().is_ok());

    // Tx scales with steps (the Fig. 4 x-axis behaviour, live).
    assert!(
        large.runtime > small.runtime,
        "runtime scales: {} vs {}",
        small.runtime,
        large.runtime
    );

    // CPU consumption scales with steps.
    let cs = small.totals().cycles;
    let cl = large.totals().cycles;
    if cs > 0 {
        assert!(cl > cs, "cycles scale: {cs} vs {cl}");
    }

    // Disk output scales; roughly 5x the frames -> noticeably more
    // bytes (only checkable where /proc io is readable).
    let ws = small.totals().bytes_written;
    let wl = large.totals().bytes_written;
    if ws > 0 {
        assert!(wl > 2 * ws, "output scales: {ws} vs {wl}");
    }
}

#[test]
fn mdsim_memory_is_constant_in_steps() {
    let small = profile_mdsim(600);
    let large = profile_mdsim(3000);
    let ms = small.totals().mem_peak;
    let ml = large.totals().mem_peak;
    assert!(ms > 0 && ml > 0, "memory observed");
    // Same particle count -> same footprint (within 50 % to absorb
    // allocator noise).
    let ratio = ml as f64 / ms as f64;
    assert!(
        (0.5..2.0).contains(&ratio),
        "memory constant in steps: {ms} vs {ml}"
    );
}

#[test]
fn mdsim_profile_feeds_emulation_roundtrip() {
    use synapse::emulator::{EmulationPlan, Emulator, KernelChoice};
    let profile = profile_mdsim(1500);
    let report = Emulator::new(EmulationPlan {
        kernel: KernelChoice::Spin,
        emulate_network: false,
        ..Default::default()
    })
    .emulate(&profile)
    .expect("emulate the real profile");
    assert_eq!(report.consumed.directed_cycles, profile.totals().cycles);
    assert_eq!(
        report.consumed.bytes_written,
        profile.totals().bytes_written
    );
    assert!(report.tx > 0.0);
}
