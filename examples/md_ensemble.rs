//! Ensemble-toolkit scenario (use case 2.3): stages of proxy tasks
//! with varying duration and width, executed by the pilot agent.
//!
//! ```text
//! cargo run --release --example md_ensemble
//! ```
//!
//! Advanced-sampling workflows alternate wide "simulation" stages and
//! narrow "analysis" stages. With Synapse, each member is a proxy task
//! replaying a profiled MD run whose duration the developer can *tune*
//! — including durations the real science problem would never produce
//! (requirement E.3, malleability).

#![expect(
    clippy::print_stdout,
    reason = "an example prints what it demonstrates"
)]

use synapse::emulator::{EmulationPlan, Emulator};
use synapse_pilot::{PilotAgent, ProxyTask, SchedulerPolicy};
use synapse_sim::{supermic, Noise};
use synapse_workloads::AppModel;

fn main() {
    let machine = supermic();
    let app = AppModel::default();
    let agent = PilotAgent::new(machine.clone(), SchedulerPolicy::Backfill);
    let mut noise = Noise::new(7, 0.02);

    println!(
        "ensemble on {} ({} cores)",
        machine.name, machine.cpu.ncores
    );
    println!();

    let mut total_makespan = 0.0;
    for (stage, (members, cores, steps)) in [
        // (ensemble members, cores each, MD steps each)
        (8usize, 2u32, 2_000_000u64), // simulation stage
        (1, 4, 500_000),              // analysis stage
        (8, 2, 4_000_000),            // longer simulation stage
        (1, 4, 500_000),              // analysis stage
    ]
    .iter()
    .enumerate()
    {
        let tasks: Vec<ProxyTask> = (0..*members)
            .map(|i| {
                // Each member gets a profile whose workload varies a
                // little (the paper: "vary the duration and number of
                // task instances between different stages").
                let steps = (*steps as f64 * (1.0 + 0.1 * (i % 3) as f64)) as u64;
                let profile = app.simulate_profile(&machine, steps, 1.0, &mut noise);
                let duration = Emulator::new(EmulationPlan {
                    threads: *cores,
                    sim_startup_seconds: 0.5,
                    ..Default::default()
                })
                .simulate(&profile, &machine)
                .tx;
                ProxyTask::new(format!("stage{stage}-member{i}"), *cores, duration)
            })
            .collect();
        let report = agent.execute(&tasks);
        println!(
            "stage {stage}: {members:2} members × {cores} cores  \
             makespan {:8.1}s  utilization {:5.1}%  mean task {:7.1}s",
            report.makespan,
            report.utilization() * 100.0,
            report.mean_duration()
        );
        total_makespan += report.makespan;
    }
    println!();
    println!("workflow makespan (stages serialized): {total_makespan:.1}s");
}
