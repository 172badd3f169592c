//! The premise of the report's pilot stage: a point's proxy task runs
//! for the point's own `tx`. The stage reads that duration straight
//! from the sweep's results; this test keeps the computation it
//! replaced as the reference — re-synthesize the point's profile and
//! price it with the point's plan, the task's core request as its
//! width — and requires the two to agree bit for bit. A simulator
//! change that breaks the premise fails here rather than silently
//! moving pilot makespans.

use synapse::emulator::Emulator;
use synapse_campaign::grid::app_by_name;
use synapse_campaign::runner::emulation_plan;
use synapse_campaign::{expand, simulate_point, CampaignSpec, ScenarioPoint};
use synapse_sim::{machine_ref, Noise};

/// The duration a proxy task for `point` had when the pilot stage
/// re-synthesized its profile after the sweep.
fn resynthesized_duration(point: &ScenarioPoint) -> f64 {
    let app = app_by_name(&point.workload).unwrap();
    let profile_machine = machine_ref(&point.profile_machine).unwrap();
    let mut noise = Noise::new(point.seed, point.noise_cv);
    let profile = app.simulate_profile(profile_machine, point.steps, point.sample_rate, &mut noise);
    let mut plan = emulation_plan(point).unwrap();
    plan.threads = point.threads.max(1);
    Emulator::new(plan)
        .simulate(&profile, machine_ref(&point.machine).unwrap())
        .tx
}

/// Points checked for `example`, once with its own `threads` axis and
/// once with a wide one (0 exercises the task's one-core clamp).
fn check(example: &str) -> usize {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/").to_string() + example;
    let spec = CampaignSpec::from_toml(&std::fs::read_to_string(path).unwrap()).unwrap();
    let mut wide = spec.clone();
    wide.threads = vec![0, 1, 3, 8, 64];
    let mut checked = 0;
    for spec in [spec, wide] {
        for point in expand(&spec) {
            let tx = simulate_point(&point).unwrap().tx;
            assert_eq!(
                resynthesized_duration(&point).to_bits(),
                tx.to_bits(),
                "{example}: {}",
                point.label()
            );
            checked += 1;
        }
    }
    checked
}

#[test]
fn each_points_tx_is_its_resynthesized_task_duration() {
    assert_eq!(check("campaign.toml"), 192 + 480);
    assert_eq!(check("ablation.toml"), 72 + 360);
}
