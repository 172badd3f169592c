//! Host-level facts for the "System" block of Table 1: core count,
//! maximum CPU frequency, total memory and load averages.

#![expect(unsafe_code, reason = "gethostname is an FFI call")]

use std::fs;

use synapse_model::SystemInfo;

use crate::error::ProcError;

/// Parse `MemTotal` (bytes) out of `/proc/meminfo` content.
pub fn parse_meminfo_total(content: &str) -> Result<u64, ProcError> {
    for line in content.lines() {
        if let Some(rest) = line.strip_prefix("MemTotal:") {
            let kb: u64 = rest
                .split_whitespace()
                .next()
                .ok_or_else(|| ProcError::Parse {
                    what: "meminfo",
                    reason: "empty MemTotal".into(),
                })?
                .parse()
                .map_err(|e| ProcError::Parse {
                    what: "meminfo",
                    reason: format!("MemTotal: {e}"),
                })?;
            return Ok(kb * 1024);
        }
    }
    Err(ProcError::Parse {
        what: "meminfo",
        reason: "MemTotal line missing".into(),
    })
}

/// Parse core count and maximum observed frequency (Hz) out of
/// `/proc/cpuinfo` content. The frequency is the maximum `cpu MHz`
/// across cores (a lower bound on the turbo max, good enough for the
/// derived utilization metric).
pub fn parse_cpuinfo(content: &str) -> Result<(u32, f64), ProcError> {
    let mut cores = 0u32;
    let mut max_mhz = 0f64;
    for line in content.lines() {
        if line.starts_with("processor") {
            cores += 1;
        } else if let Some((key, value)) = line.split_once(':') {
            if key.trim() == "cpu MHz" {
                let mhz: f64 = value.trim().parse().map_err(|e| ProcError::Parse {
                    what: "cpuinfo",
                    reason: format!("cpu MHz: {e}"),
                })?;
                max_mhz = max_mhz.max(mhz);
            }
        }
    }
    if cores == 0 {
        return Err(ProcError::Parse {
            what: "cpuinfo",
            reason: "no processor entries".into(),
        });
    }
    Ok((cores, max_mhz * 1e6))
}

/// System load averages from `/proc/loadavg`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LoadAvg {
    /// 1-minute load average.
    pub one: f64,
    /// 5-minute load average.
    pub five: f64,
    /// 15-minute load average.
    pub fifteen: f64,
}

/// Parse `/proc/loadavg` content.
pub fn parse_loadavg(content: &str) -> Result<LoadAvg, ProcError> {
    let mut parts = content.split_whitespace();
    let mut next = |name: &'static str| -> Result<f64, ProcError> {
        parts
            .next()
            .ok_or_else(|| ProcError::Parse {
                what: "loadavg",
                reason: format!("missing field {name}"),
            })?
            .parse()
            .map_err(|e| ProcError::Parse {
                what: "loadavg",
                reason: format!("{name}: {e}"),
            })
    };
    Ok(LoadAvg {
        one: next("1min")?,
        five: next("5min")?,
        fifteen: next("15min")?,
    })
}

/// Read the live `/proc/loadavg`.
pub fn read_loadavg() -> Result<LoadAvg, ProcError> {
    parse_loadavg(&fs::read_to_string("/proc/loadavg")?)
}

/// Current hostname via `gethostname(2)`.
pub fn hostname() -> String {
    let mut buf = [0u8; 256];
    // SAFETY: buf is a valid writable buffer of the stated length.
    let rc = unsafe { libc::gethostname(buf.as_mut_ptr() as *mut libc::c_char, buf.len()) };
    if rc != 0 {
        return "unknown".into();
    }
    let end = buf.iter().position(|&b| b == 0).unwrap_or(buf.len());
    String::from_utf8_lossy(&buf[..end]).into_owned()
}

/// Gather the host [`SystemInfo`] recorded in every profile. Missing
/// `/sys` frequency data falls back to `/proc/cpuinfo`'s `cpu MHz`.
pub fn host_system_info() -> Result<SystemInfo, ProcError> {
    let cpuinfo = fs::read_to_string("/proc/cpuinfo")?;
    let (ncores, mut max_freq_hz) = parse_cpuinfo(&cpuinfo)?;
    // Prefer the scaling driver's reported hardware maximum if present.
    if let Ok(s) = fs::read_to_string("/sys/devices/system/cpu/cpu0/cpufreq/cpuinfo_max_freq") {
        if let Ok(khz) = s.trim().parse::<f64>() {
            max_freq_hz = khz * 1e3;
        }
    }
    if max_freq_hz <= 0.0 {
        // Last resort: a nominal 1 GHz so derived metrics stay finite.
        max_freq_hz = 1e9;
    }
    let total_memory = parse_meminfo_total(&fs::read_to_string("/proc/meminfo")?)?;
    let load_avg = read_loadavg().map(|l| l.one).unwrap_or(0.0);
    Ok(SystemInfo {
        hostname: hostname(),
        ncores,
        max_freq_hz,
        total_memory,
        load_avg,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meminfo_total_parses() {
        let total = parse_meminfo_total("MemTotal:        8052892 kB\nMemFree: 1 kB\n").unwrap();
        assert_eq!(total, 8052892 * 1024);
        assert!(parse_meminfo_total("MemFree: 1 kB\n").is_err());
        assert!(parse_meminfo_total("MemTotal: lots kB\n").is_err());
    }

    #[test]
    fn cpuinfo_counts_cores_and_max_mhz() {
        let content = "\
processor\t: 0\ncpu MHz\t\t: 1200.000\n\nprocessor\t: 1\ncpu MHz\t\t: 2667.000\n";
        let (cores, hz) = parse_cpuinfo(content).unwrap();
        assert_eq!(cores, 2);
        assert!((hz - 2.667e9).abs() < 1e3);
    }

    #[test]
    fn cpuinfo_without_mhz_still_counts_cores() {
        // Some architectures (aarch64) have no "cpu MHz" lines.
        let (cores, hz) = parse_cpuinfo("processor\t: 0\nBogoMIPS\t: 50.00\n").unwrap();
        assert_eq!(cores, 1);
        assert_eq!(hz, 0.0);
        assert!(parse_cpuinfo("flags: fpu\n").is_err());
    }

    #[test]
    fn loadavg_parses() {
        let l = parse_loadavg("0.52 0.58 0.59 1/467 12345\n").unwrap();
        assert!((l.one - 0.52).abs() < 1e-12);
        assert!((l.five - 0.58).abs() < 1e-12);
        assert!((l.fifteen - 0.59).abs() < 1e-12);
        assert!(parse_loadavg("0.1 0.2").is_err());
        assert!(parse_loadavg("a b c").is_err());
    }

    #[test]
    fn live_host_info_is_sane() {
        let info = host_system_info().unwrap();
        assert!(info.ncores >= 1);
        assert!(info.max_freq_hz > 0.0);
        assert!(info.total_memory > 0);
        assert!(!info.hostname.is_empty());
    }

    #[test]
    fn live_loadavg_reads() {
        let l = read_loadavg().unwrap();
        assert!(l.one >= 0.0);
    }

    #[test]
    fn hostname_nonempty() {
        assert!(!hostname().is_empty());
    }
}
