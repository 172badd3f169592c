//! The Synapse benchmark: five closed-loop workloads, end-to-end
//! metrics from an untraced pass, per-layer metrics from a traced one,
//! every output verified. See `README.md`.

mod catalog;
mod compare;
mod host;
mod layers;
mod pass;
mod specgen;
mod stats;
mod trace;
mod verify;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use serde_json::{json, Map, Value};

use catalog::Workload;
use pass::{Options, Pass};

const USAGE: &str = "usage:
  synapse-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
      one pass over one workload; the last line of output is the result object
  synapse-benchmark run --seed <n> [--seconds <s>] [--smoke] [--traced] --out <file>
      every workload, untraced then traced (--traced: traced only), into one result file
  synapse-benchmark compare <old.json> <new.json>
      one verdict per end-to-end metric and workload; exits 1 on a regression
workloads: serve_cold serve_warm cluster_warm sweep_long disk_rerun";

/// Seconds of timed jobs per pass when `run` is not told otherwise.
const DEFAULT_RUN_SECONDS: f64 = 15.0;

/// `--key value` pairs and bare flags, in any order.
struct Args {
    values: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Args {
    fn parse(args: &[String], flags: &[&str]) -> Result<Args, String> {
        let mut parsed = Args {
            values: Vec::new(),
            flags: Vec::new(),
        };
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
            if flags.contains(&key) {
                parsed.flags.push(key.to_string());
            } else {
                let value = rest.next().ok_or_else(|| format!("{arg} needs a value"))?;
                parsed.values.push((key.to_string(), value.clone()));
            }
        }
        Ok(parsed)
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.values.iter().find(|(k, _)| k == key) {
            Some((_, value)) => value
                .parse()
                .map(Some)
                .map_err(|_| format!("--{key}: cannot read {value:?}")),
            None => Ok(None),
        }
    }

    fn required<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.get(key)?.ok_or_else(|| format!("--{key} is required"))
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

fn metrics_object(pass: &Pass) -> Value {
    let mut object = Map::new();
    for metric in &pass.metrics {
        object.insert(
            metric.name.to_string(),
            json!({"value": metric.value, "unit": metric.unit}),
        );
    }
    Value::Object(object)
}

fn print_pass(pass: &Pass, kind: &str) {
    println!(
        "{} [{kind}]: {} jobs, {} failed, canary {:.2} -> {:.2} ms{}",
        pass.workload.name(),
        pass.attempted,
        pass.failed,
        pass.spin_before_ms,
        pass.spin_after_ms,
        if pass.noisy() { " (noisy)" } else { "" }
    );
    for failure in &pass.failures {
        println!("  FAILED {failure}");
    }
    for metric in &pass.metrics {
        println!(
            "  {:<36} {:>16.4} {:<8} ({} is better)",
            metric.name,
            metric.value,
            metric.unit,
            metric.better.word()
        );
    }
}

/// The driver's form: one pass, the result object on the last line.
fn single(args: &Args) -> Result<bool, String> {
    let name: String = args.required("workload")?;
    let workload = Workload::by_name(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let options = Options {
        seed: args.required("seed")?,
        seconds: args.required("seconds")?,
        smoke: false,
        out_dir: pass::default_out_dir(),
    };
    let traced = match args.required::<u8>("trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace is 0 or 1, not {other}")),
    };
    let pass = if traced {
        pass::trace(workload, &options)
    } else {
        pass::measure(workload, &options)
    };
    print_pass(&pass, if traced { "traced" } else { "untraced" });
    if pass.metrics.is_empty() {
        return Err(pass.failures.join("; "));
    }
    let line = json!({
        "correct": pass.correct(),
        "attempted": pass.attempted,
        "failed": pass.failed,
        "metrics": metrics_object(&pass),
    });
    println!(
        "{}",
        serde_json::to_string(&line).expect("result serializes")
    );
    Ok(pass.correct())
}

/// The README's layer hypothesis, checkable from one run: the share of
/// a job's busy time (wall × sweep threads) that `simulate_point` is.
fn hypotheses(workload: Workload, untraced: Option<&Pass>, traced: &Pass) -> Value {
    let simulate_us = traced.value("runner.simulate_point_us").unwrap_or(0.0);
    let points = workload.grid().points() as f64;
    let job_us = untraced
        .and_then(|p| p.value("points_per_s"))
        .filter(|pps| *pps > 0.0)
        .map(|pps| workload.points_per_job() as f64 / pps * 1e6);
    let width = match workload {
        Workload::SweepLong => workloads::SWEEP_WORKERS as f64,
        _ => 1.0,
    };
    json!({
        "simulate_share_of_job_busy_time": job_us.map(|job| simulate_us * points / (job * width)),
    })
}

/// Every workload in one process: the untraced passes, then the traced
/// ones, into one result file.
fn run(args: &Args) -> Result<bool, String> {
    let smoke = args.flag("smoke");
    let seconds = args.get("seconds")?.unwrap_or(DEFAULT_RUN_SECONDS);
    let out: PathBuf = args.required("out")?;
    let options = Options {
        seed: args.required("seed")?,
        seconds,
        smoke,
        out_dir: pass::default_out_dir(),
    };
    // The traced pass repeats each workload at a fraction of its length.
    let traced_options = Options {
        seconds: seconds / 3.0,
        ..options.clone()
    };
    let mut workloads = Map::new();
    let mut correct = true;
    for workload in Workload::ALL {
        let untraced = (!args.flag("traced")).then(|| pass::measure(workload, &options));
        if let Some(pass) = &untraced {
            print_pass(pass, "untraced");
        }
        let traced = pass::trace(workload, &traced_options);
        print_pass(&traced, "traced");

        let passes = untraced.iter().chain([&traced]);
        let attempted: usize = passes.clone().map(|p| p.attempted).sum();
        let failed: usize = passes.clone().map(|p| p.failed).sum();
        let failures: Vec<&String> = passes.clone().flat_map(|p| &p.failures).collect();
        // Only the untraced window's noise taints the end-to-end
        // numbers; the traced pass's canary is reported beside it.
        let noisy = untraced.as_ref().map_or(traced.noisy(), Pass::noisy);
        let ok = passes.clone().all(Pass::correct);
        correct &= ok;
        let mut end_to_end = untraced.as_ref().map_or(json!({}), metrics_object);
        if let Value::Object(map) = &mut end_to_end {
            map.insert(
                "failed_frac".into(),
                json!({"value": failed as f64 / attempted.max(1) as f64, "unit": "fraction"}),
            );
        }
        workloads.insert(
            workload.name().to_string(),
            json!({
                "why": workload.why(),
                "gated": workload.gated(),
                "correct": ok,
                "attempted": attempted,
                "failed": failed,
                "failures": failures,
                "noisy": noisy,
                "canary_ms": {
                    "untraced": untraced.as_ref().map(|p| vec![p.spin_before_ms, p.spin_after_ms]),
                    "traced": vec![traced.spin_before_ms, traced.spin_after_ms],
                },
                "end_to_end": end_to_end,
                "per_layer": metrics_object(&traced),
                "hypotheses": hypotheses(workload, untraced.as_ref(), &traced),
            }),
        );
    }
    let doc = json!({
        "schema": 1,
        "seed": options.seed,
        "seconds": seconds,
        "smoke": smoke,
        "host": host::fingerprint(&options.out_dir),
        "workloads": Value::Object(workloads),
    });
    let text = serde_json::to_string_pretty(&doc).expect("result file serializes");
    std::fs::write(&out, text).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(correct)
}

fn compare_files(args: &[String]) -> Result<bool, String> {
    let [old, new] = args else {
        return Err("compare takes two result files".into());
    };
    let load = |path: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    };
    Ok(!compare::compare(&load(old)?, &load(new)?))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => Args::parse(&args[1..], &["smoke", "traced"]).and_then(|a| run(&a)),
        Some("compare") => compare_files(&args[1..]),
        Some(first) if first.starts_with("--") && first != "--help" => {
            Args::parse(&args, &[]).and_then(|a| single(&a))
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
