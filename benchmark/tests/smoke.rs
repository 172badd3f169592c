//! `run --smoke` end to end: two jobs per workload and pass through
//! the real binary, every output verified, the result file complete,
//! and `compare` agreeing that a run matches itself.

use std::path::Path;
use std::process::Command;

const BENCH: &str = env!("CARGO_BIN_EXE_synapse-benchmark");

#[test]
fn smoke_run_passes_and_compares_equal_to_itself() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke.json");
    let run = Command::new(BENCH)
        .args(["run", "--seed", "7", "--smoke", "--out"])
        .arg(&out)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(run.status.success(), "smoke run failed:\n{stdout}");

    let doc: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
    assert!(!doc["host"]["kernel"].is_null());
    for workload in [
        "serve_cold",
        "serve_warm",
        "cluster_warm",
        "sweep_long",
        "disk_rerun",
    ] {
        let result = &doc["workloads"][workload];
        assert_eq!(result["correct"].as_bool(), Some(true), "{workload}");
        assert_eq!(result["failed"].as_u64(), Some(0), "{workload}");
        // Two untraced jobs, then two plain and two traced ones.
        assert_eq!(result["attempted"].as_u64(), Some(6), "{workload}");
        for metric in [
            "points_per_s",
            "first_point_ms",
            "cpu_us_per_point",
            "setup_s",
        ] {
            let value = result["end_to_end"][metric]["value"].as_f64();
            assert!(value.is_some_and(|v| v > 0.0), "{workload} {metric}");
        }
        assert_eq!(
            result["end_to_end"]["failed_frac"]["value"].as_f64(),
            Some(0.0)
        );
        let coverage = result["per_layer"]["budget.coverage"]["value"].as_f64();
        assert!(coverage.is_some_and(|v| v > 0.0), "{workload} coverage");
        // Printed by name with its unit.
        assert!(stdout.contains("points_per_s"), "{workload}");
    }
    // The simulator never runs on the warm workloads.
    for warm in ["serve_warm", "cluster_warm"] {
        let simulate = &doc["workloads"][warm]["per_layer"]["runner.simulate_point_us"];
        assert_eq!(simulate["value"].as_f64(), Some(0.0), "{warm}");
    }

    let compare = Command::new(BENCH)
        .arg("compare")
        .args([&out, &out])
        .output()
        .expect("compare runs");
    let table = String::from_utf8_lossy(&compare.stdout);
    assert!(compare.status.success(), "{table}");
    // One row per (end-to-end metric, workload), plus the header.
    assert_eq!(table.lines().count(), 1 + 5 * 5, "{table}");
    assert!(!table.contains("regressed"), "{table}");
}

#[test]
fn bad_invocations_exit_nonzero_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "serve_warm", "--seed", "1"][..],
        &["compare", "only-one.json"][..],
        &[][..],
    ] {
        let out = Command::new(BENCH).args(args).output().unwrap();
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
