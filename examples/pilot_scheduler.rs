//! Middleware development with proxy tasks (use case 2.1): compare
//! pilot scheduler policies on a heterogeneous Synapse workload.
//!
//! ```text
//! cargo run --release --example pilot_scheduler
//! ```
//!
//! This is exactly what the paper motivates: tuning "the properties of
//! a single proxy application instead of refactoring multiple
//! scientific applications" to exercise a pilot agent across task
//! shapes (single-core/multi-core, short/long).

#![expect(
    clippy::print_stdout,
    reason = "an example prints what it demonstrates"
)]

use synapse::emulator::{EmulationPlan, Emulator};
use synapse_pilot::{PilotAgent, ProxyTask, SchedulerPolicy};
use synapse_sim::{machine_by_name, Noise};
use synapse_workloads::AppModel;

fn main() {
    let app = AppModel::default();
    let mut noise = Noise::new(42, 0.02);

    for machine_name in ["titan", "supermic"] {
        let machine = machine_by_name(machine_name).expect("catalog machine");
        // A heterogeneous bag of proxy tasks: mixed widths and lengths.
        let mut tasks = Vec::new();
        for i in 0..24 {
            let cores = [1u32, 1, 2, 4, 8, 16][i % 6];
            let steps = [500_000u64, 2_000_000, 8_000_000][i % 3];
            let profile = app.simulate_profile(&machine, steps, 1.0, &mut noise);
            let duration = Emulator::new(EmulationPlan {
                threads: cores,
                sim_startup_seconds: 0.5,
                ..Default::default()
            })
            .simulate(&profile, &machine)
            .tx;
            tasks.push(ProxyTask::new(format!("task-{i:02}"), cores, duration));
        }

        println!("== {} ({} cores) ==", machine.name, machine.cpu.ncores);
        for policy in [SchedulerPolicy::Fifo, SchedulerPolicy::Backfill] {
            let agent = PilotAgent::new(machine.clone(), policy);
            let report = agent.execute(&tasks);
            println!(
                "  {:<9?}: makespan {:9.1}s  utilization {:5.1}%  tasks {}",
                policy,
                report.makespan,
                report.utilization() * 100.0,
                report.tasks.len()
            );
        }
        println!();
    }
    println!("Backfill packs the heterogeneous proxy workload tighter than FIFO —");
    println!("the kind of middleware comparison Synapse proxy tasks make cheap.");
}
