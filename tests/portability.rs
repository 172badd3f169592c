//! Cross-resource integration tests: the simulated "profile once,
//! emulate anywhere" pipeline spanning synapse-workloads, synapse-sim,
//! synapse and synapse-pilot. The paper's portability and kernel
//! claims (Figs 7–11) are asserted over the campaign engine in
//! `tests/paper_claims.rs`.

use synapse::emulator::{EmulationPlan, Emulator};
use synapse_pilot::{PilotAgent, ProxyTask, SchedulerPolicy};
use synapse_sim::{machine_by_name, thinkie, KernelClass, Noise, MACHINE_NAMES};
use synapse_workloads::AppModel;

#[test]
fn thinkie_profile_replays_on_every_catalog_machine() {
    let app = AppModel::default();
    let profile = app.simulate_profile(&thinkie(), 1_000_000, 1.0, &mut Noise::none());
    let emulator = Emulator::new(EmulationPlan::default());
    for name in MACHINE_NAMES {
        let machine = machine_by_name(name).unwrap();
        let report = emulator.simulate(&profile, &machine);
        assert!(report.tx.is_finite() && report.tx > 0.0, "{name}");
        assert_eq!(
            report.consumed.directed_cycles,
            profile.totals().cycles,
            "{name}: every directed cycle accounted"
        );
        assert!(report.consumed.cycles >= report.consumed.directed_cycles);
        assert_eq!(report.backend, format!("sim:{name}"));
    }
}

#[test]
fn malleability_tune_memory_beyond_the_application() {
    // §2.1: "we can increase the amount of memory required by the same
    // proxy application to a specific value, even if the science
    // problem ... does not require that amount".
    let app = AppModel::default();
    let machine = thinkie();
    let mut profile = app.simulate_profile(&machine, 100_000, 1.0, &mut Noise::none());
    let original_alloc = profile.totals().mem_allocated;
    // Tune: demand 10x the memory in the first sample.
    profile.samples[0].memory.allocated += original_alloc * 9;
    if let Some(last) = profile.samples.last_mut() {
        last.memory.freed += original_alloc * 9;
    }
    let report = Emulator::new(EmulationPlan {
        sim_startup_seconds: 0.0,
        ..Default::default()
    })
    .simulate(&profile, &machine);
    assert_eq!(report.consumed.mem_allocated, original_alloc * 10);
    assert_eq!(report.consumed.mem_allocated, report.consumed.mem_freed);
}

#[test]
fn pilot_workload_is_machine_sensitive() {
    // The same proxy workload finishes sooner on the faster node —
    // the cross-machine reasoning the pilot substrate enables.
    let app = AppModel::default();
    let mk_tasks = |machine: &synapse_sim::MachineModel| -> Vec<ProxyTask> {
        (0..8)
            .map(|i| {
                let profile = app.simulate_profile(machine, 1_000_000, 1.0, &mut Noise::none());
                let duration = Emulator::new(EmulationPlan {
                    threads: 2,
                    sim_startup_seconds: 0.2,
                    ..Default::default()
                })
                .simulate(&profile, machine)
                .tx;
                ProxyTask::new(format!("t{i}"), 2, duration)
            })
            .collect()
    };
    let titan = machine_by_name("titan").unwrap();
    let supermic = machine_by_name("supermic").unwrap();
    let titan_report =
        PilotAgent::new(titan.clone(), SchedulerPolicy::Backfill).execute(&mk_tasks(&titan));
    let sm_report =
        PilotAgent::new(supermic.clone(), SchedulerPolicy::Backfill).execute(&mk_tasks(&supermic));
    assert!(
        sm_report.makespan < titan_report.makespan,
        "supermic ({}) beats titan ({})",
        sm_report.makespan,
        titan_report.makespan
    );
}

#[test]
fn application_kernel_class_is_the_profiling_baseline() {
    // Emulating with the Application "kernel" reproduces the app
    // exactly (zero overhead) — the sanity anchor of the model.
    let machine = thinkie();
    let k = machine.kernel(KernelClass::Application);
    assert_eq!(k.consumed_cycles(123_456_789), 123_456_789);
}
