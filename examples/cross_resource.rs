//! Profile once, emulate anywhere (the E.2 portability story).
//!
//! ```text
//! cargo run --release --example cross_resource
//! ```
//!
//! Profiles the Gromacs-like application on the Thinkie model and
//! replays the *same profile* on Stampede, Archer, Comet, Supermic and
//! Titan models, printing the Tx offsets the paper reports in Fig. 7
//! (emulation ~40 % faster on Stampede, ~33 % slower on Archer).

#![expect(
    clippy::print_stdout,
    reason = "an example prints what it demonstrates"
)]

use synapse::emulator::{EmulationPlan, Emulator};
use synapse_model::stats::diff_pct;
use synapse_sim::{machine_by_name, thinkie, Noise};
use synapse_workloads::AppModel;

fn main() {
    let app = AppModel::default();
    let profiling_host = thinkie();
    let steps = 5_000_000;

    // Profile once, on the profiling host.
    let profile = app.simulate_profile(&profiling_host, steps, 1.0, &mut Noise::none());
    println!(
        "profiled 'gromacs mdrun' (steps={steps}) on {}: Tx={:.1}s, {} samples",
        profiling_host.name,
        profile.runtime,
        profile.len()
    );
    println!();
    println!(
        "{:<10} {:>12} {:>12} {:>10}",
        "machine", "app Tx (s)", "emu Tx (s)", "diff (%)"
    );

    // Emulate anywhere.
    let emulator = Emulator::new(EmulationPlan::default());
    for name in [
        "thinkie", "stampede", "archer", "comet", "supermic", "titan",
    ] {
        let machine = machine_by_name(name).expect("catalog machine");
        // What the *application* would do on that machine (ground truth).
        let app_run = app.execute(&machine, steps, &mut Noise::none());
        // What the emulation of the thinkie profile does there.
        let emu = emulator.simulate(&profile, &machine);
        let diff = diff_pct(emu.tx, app_run.tx).unwrap_or(f64::NAN);
        println!(
            "{:<10} {:>12.1} {:>12.1} {:>+10.1}",
            name, app_run.tx, emu.tx, diff
        );
    }
    println!();
    println!("(negative diff: emulation faster than the application, as on Stampede;");
    println!(" positive: slower, as on Archer — compare the paper's Fig. 7)");
}
