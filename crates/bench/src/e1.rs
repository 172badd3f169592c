//! E.1 — Profiling overheads and consistency (Figs 4 and 6).

use synapse_model::Summary;
use synapse_sim::{thinkie, MachineModel, Noise};
use synapse_store::{DbProfileStore, ProfileStore, ShardedDb};
use synapse_workloads::AppModel;

/// The step counts of Figs 4 and 6: 1e4 … 1e7, log-spaced the way the
/// paper labels its x-axis.
const STEPS: [u64; 7] = [
    10_000, 50_000, 100_000, 500_000, 1_000_000, 5_000_000, 10_000_000,
];

/// The sampling rates of Figs 4 and 6, in Hz.
const RATES: [f64; 7] = [0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0];

/// Fractional CPU cost of profiling at 10 Hz: an assumed figure in
/// line with the paper's "negligible", not a measurement of this
/// repository's watchers. Scaled linearly with rate.
const OVERHEAD_AT_10HZ: f64 = 0.002;

/// Mean Tx of five application runs under seeded 1 % noise.
fn native_tx(app: &AppModel, machine: &MachineModel, steps: u64) -> f64 {
    let mut noise = Noise::new(40 ^ steps, 0.01);
    let runs: Vec<f64> = (0..5)
        .map(|_| app.execute(machine, steps, &mut noise).tx)
        .collect();
    Summary::of(&runs).expect("five runs").mean
}

/// Fig. 4 — Profiling overhead: native vs profiled Tx across problem
/// sizes and sampling rates.
pub fn run_fig04() -> String {
    let app = AppModel::default();
    let machine = thinkie();
    let mut out = String::from(
        "Fig 4 — Profiling vs Execution on thinkie: Tx (s) per step count;\n\
         profiling overhead is negligible at every sampling rate.\n\n",
    );
    out.push_str(&format!("{:>10}", "steps"));
    out.push_str(&format!("{:>12}", "execution"));
    for rate in RATES {
        out.push_str(&format!("{:>12}", format!("{rate:.1} Hz")));
    }
    out.push('\n');
    for steps in STEPS {
        let native = native_tx(&app, &machine, steps);
        out.push_str(&format!("{steps:>10}{native:>12.2}"));
        for rate in RATES {
            // Profiled execution: the application plus the watcher
            // loops' (tiny) share of one other core.
            let overhead = OVERHEAD_AT_10HZ * (rate / 10.0);
            let mut noise = Noise::new(41 ^ steps ^ rate.to_bits(), 0.01);
            let profiled = noise.apply(native * (1.0 + overhead));
            out.push_str(&format!("{profiled:>12.2}"));
        }
        out.push('\n');
    }

    // The paper's footnote: "The largest configuration misses one
    // data sample due to limitations in the database backend."
    // Reproduce with the document store's size cap.
    let profile = app.simulate_profile(&machine, STEPS[6], 10.0, &mut Noise::none());
    // The Python implementation stores far more verbose documents, so
    // its 16 MB cap binds at ~250 k samples; our compact JSON needs a
    // proportionally smaller cap to exhibit the same truncation.
    let store = DbProfileStore::new(ShardedDb::in_memory_with_limit(1 << 20));
    let report = store.save(&profile).expect("store profile");
    out.push_str(&format!(
        "\nDB backend note: profile of {} samples stored with a capped document size\n\
         -> {} samples kept, {} dropped (the paper's 'missing data sample' effect).\n",
        profile.len(),
        report.stored_samples,
        report.dropped_samples
    ));
    out
}

/// Fig. 6 — Profiling consistency: (top) total CPU operations are
/// independent of the sampling rate; (bottom) resident memory is
/// underestimated when only one sample fits in the runtime.
pub fn run_fig06() -> String {
    let app = AppModel::default();
    let machine = thinkie();
    let mut out = String::from(
        "Fig 6 (top) — CPU operations over sampling frequency: totals are\n\
         rate-independent (mean ±CI99 over 5 repeated profilings).\n\n",
    );
    out.push_str(&format!("{:>10}", "steps"));
    for rate in RATES {
        out.push_str(&format!("{:>22}", format!("{rate:.1} Hz")));
    }
    out.push('\n');
    for steps in STEPS {
        out.push_str(&format!("{steps:>10}"));
        for rate in RATES {
            let mut noise = Noise::new(60 ^ steps, 0.01);
            let cycles: Vec<f64> = (0..5)
                .map(|_| {
                    app.simulate_profile(&machine, steps, rate, &mut noise)
                        .totals()
                        .cycles as f64
                })
                .collect();
            let s = Summary::of(&cycles).unwrap();
            out.push_str(&format!(
                "{:>22}",
                format!("{:.3e} ±{:.0e}", s.mean, s.ci99())
            ));
        }
        out.push('\n');
    }

    out.push_str(
        "\nFig 6 (bottom) — Profiled resident memory (bytes): slow rates that fit\n\
         only one sample into the runtime catch the pre-ramp RSS and underestimate.\n\n",
    );
    out.push_str(&format!("{:>10}", "steps"));
    for rate in RATES {
        out.push_str(&format!("{:>12}", format!("{rate:.1} Hz")));
    }
    out.push('\n');
    for steps in STEPS {
        out.push_str(&format!("{steps:>10}"));
        for rate in RATES {
            let p = app.simulate_profile(&machine, steps, rate, &mut Noise::none());
            out.push_str(&format!("{:>12}", p.totals().mem_peak));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig04_overhead_is_negligible() {
        // Parse nothing: recompute the claim directly. Native vs
        // profiled at the highest rate differs by well under 5 %.
        let app = AppModel::default();
        let machine = thinkie();
        let native = native_tx(&app, &machine, 100_000);
        assert_eq!(
            native.to_bits(),
            native_tx(&app, &machine, 100_000).to_bits()
        );
        let profiled = native * (1.0 + OVERHEAD_AT_10HZ);
        assert!((profiled - native) / native < 0.05);
        let out = run_fig04();
        assert!(out.contains("dropped"));
    }

    #[test]
    fn fig06_top_rate_independence() {
        let app = AppModel::default();
        let machine = thinkie();
        let c1 = app
            .simulate_profile(&machine, 500_000, 0.1, &mut Noise::none())
            .totals()
            .cycles;
        let c2 = app
            .simulate_profile(&machine, 500_000, 10.0, &mut Noise::none())
            .totals()
            .cycles;
        assert_eq!(c1, c2);
    }

    #[test]
    fn fig06_bottom_underestimates_at_slow_rates() {
        let app = AppModel::default();
        let machine = thinkie();
        // Short run: 1e4 steps (~1 s) at 0.1 Hz -> one sample.
        let slow = app
            .simulate_profile(&machine, 10_000, 0.1, &mut Noise::none())
            .totals()
            .mem_peak;
        let fast = app
            .simulate_profile(&machine, 10_000, 10.0, &mut Noise::none())
            .totals()
            .mem_peak;
        assert!(slow < fast, "slow {slow} must underestimate fast {fast}");
        // Long run: even slow rates see the ramped RSS.
        let slow_long = app
            .simulate_profile(&machine, 5_000_000, 0.1, &mut Noise::none())
            .totals()
            .mem_peak;
        assert!(slow_long as f64 > 0.9 * fast as f64);
    }

    #[test]
    fn outputs_render_all_rows() {
        let out = run_fig06();
        for steps in STEPS {
            assert!(out.contains(&steps.to_string()));
        }
    }
}
