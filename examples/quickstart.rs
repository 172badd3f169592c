//! Quickstart: profile a real command, inspect the profile, replay it.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! This exercises the whole paper pipeline on the local host: the
//! black-box profiler observes a short shell workload (CPU burn plus a
//! file write), the profile is stored in a file store, and the
//! emulator replays it through the real atoms — consuming roughly the
//! same resources the original command consumed.

#![expect(
    clippy::print_stdout,
    reason = "an example prints what it demonstrates"
)]

use synapse::api;
use synapse::config::ProfilerConfig;
use synapse::emulator::{EmulationPlan, KernelChoice};
use synapse::Profiler;
use synapse_model::{ProfileKey, Tags};
use synapse_store::FileStore;

fn main() {
    let store_dir = std::env::temp_dir().join("synapse-quickstart");
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = FileStore::open(&store_dir).expect("open profile store");

    // A small real workload: burn CPU in the shell, then write 2 MiB.
    let scratch = std::env::temp_dir().join("synapse-quickstart.dat");
    // Writes happen through the shell's `echo` builtin so the watched
    // process itself issues them (like the paper, Synapse does not
    // follow child processes).
    let script = format!(
        "i=0; while [ $i -lt 200000 ]; do i=$((i+1)); done; \
         j=0; while [ $j -lt 4000 ]; do \
         echo 0123456789012345678901234567890123456789012345678901234567890123; \
         j=$((j+1)); done > {}",
        scratch.display()
    );
    // The shell script contains spaces, so use the lower-level
    // Profiler API with a prepared Command (api::profile would
    // whitespace-split the command string).
    let profiler = Profiler::new(ProfilerConfig::with_rate(10.0));
    let mut cmd = std::process::Command::new("/bin/sh");
    cmd.args(["-c", &script])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null());
    let key = ProfileKey::new("quickstart-workload", Tags::new());
    let outcome = profiler
        .profile_spawned(cmd, key)
        .expect("profile the workload");
    store.save(&outcome.profile).expect("store profile");

    let totals = outcome.profile.totals();
    let derived = outcome.profile.derived();
    println!("== profiled ==");
    println!("  Tx            : {:.3} s", outcome.profile.runtime);
    println!("  samples       : {}", outcome.profile.len());
    println!("  cycles        : {}", totals.cycles);
    println!("  instructions  : {}", totals.instructions);
    println!("  bytes written : {}", totals.bytes_written);
    println!("  peak RSS      : {}", totals.mem_peak);
    if let Some(eff) = derived.efficiency {
        println!("  efficiency    : {eff:.3}");
    }
    if let Some(ipc) = derived.ipc {
        println!("  IPC           : {ipc:.3}");
    }

    // Replay it: same resource consumption, now synthetic.
    let plan = EmulationPlan {
        kernel: KernelChoice::Asm,
        ..Default::default()
    };
    let report = api::emulate("quickstart-workload", None, &store, &plan)
        .expect("emulate the stored profile");
    println!("== emulated ==");
    println!("  Tx            : {:.3} s", report.tx);
    println!("  samples       : {}", report.samples);
    println!("  directed cyc  : {}", report.consumed.directed_cycles);
    println!("  consumed cyc  : {}", report.consumed.cycles);
    println!("  bytes written : {}", report.consumed.bytes_written);

    let diff =
        synapse_model::stats::diff_pct(report.tx, outcome.profile.runtime).unwrap_or(f64::NAN);
    println!("== comparison ==");
    println!("  emulation Tx differs from application Tx by {diff:+.1} %");

    let _ = std::fs::remove_file(scratch);
    let _ = std::fs::remove_dir_all(store_dir);
}
