//! Calibrated counter model: the documented substitution for hosts
//! where `perf_event_open` is denied.
//!
//! Cycles are modelled from the observed CPU time of the target
//! process (`/proc/<pid>/stat` utime+stime) multiplied by a calibrated
//! effective frequency; instructions follow from a configurable IPC;
//! stalls follow from a configurable efficiency, using the paper's own
//! definition `efficiency = cycles_used / (cycles_used +
//! cycles_stalled)` solved for the stall count.

#![expect(unsafe_code, reason = "sysconf is an FFI call")]

use std::fs;

use crate::calibration::calibrate_frequency;
use crate::error::PerfError;
use crate::event::CounterSnapshot;
use crate::provider::{CounterProvider, CounterSession};

/// Parameters of the counter model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CounterModel {
    /// Effective clock frequency in Hz. `None` means "calibrate at
    /// attach time".
    pub frequency_hz: Option<f64>,
    /// Modelled instructions per cycle (the paper measures ~2.0–2.2
    /// for Gromacs; kernels differ, see E.3).
    pub ipc: f64,
    /// Modelled efficiency (used/spent cycles); determines stalls.
    pub efficiency: f64,
    /// Fraction of stalled cycles attributed to the frontend (the rest
    /// go to the backend; compute codes are typically backend-bound).
    pub frontend_fraction: f64,
}

impl Default for CounterModel {
    fn default() -> Self {
        CounterModel {
            frequency_hz: None,
            ipc: 2.0,
            efficiency: 0.85,
            frontend_fraction: 0.25,
        }
    }
}

impl CounterModel {
    /// Derive a snapshot from an amount of consumed CPU seconds.
    pub fn snapshot_for_cpu_seconds(&self, cpu_seconds: f64, frequency_hz: f64) -> CounterSnapshot {
        let cycles = (cpu_seconds.max(0.0) * frequency_hz) as u64;
        let instructions = (cycles as f64 * self.ipc) as u64;
        // efficiency = cycles / (cycles + stalled)  =>
        // stalled = cycles * (1 - eff) / eff
        let eff = self.efficiency.clamp(1e-6, 1.0);
        let stalled = (cycles as f64 * (1.0 - eff) / eff) as u64;
        let stalled_frontend = (stalled as f64 * self.frontend_fraction.clamp(0.0, 1.0)) as u64;
        CounterSnapshot {
            cycles,
            instructions,
            stalled_frontend,
            stalled_backend: stalled - stalled_frontend,
        }
    }
}

/// CPU seconds consumed so far by `pid` (utime+stime from
/// `/proc/<pid>/stat`; pid 0 means the calling process).
fn cpu_seconds_of(pid: i32) -> Result<f64, PerfError> {
    let path = if pid == 0 {
        "/proc/self/stat".to_string()
    } else {
        format!("/proc/{pid}/stat")
    };
    let content = fs::read_to_string(&path).map_err(|_| PerfError::ProcessGone(pid))?;
    // Fields after the last ')' — see procfs(5); utime and stime are
    // the 12th and 13th fields after the comm.
    let close = content
        .rfind(')')
        .ok_or_else(|| PerfError::BadRead("stat without comm".into()))?;
    let rest: Vec<&str> = content[close + 1..].split_whitespace().collect();
    if rest.len() < 13 {
        return Err(PerfError::BadRead(format!(
            "stat too short: {} fields",
            rest.len()
        )));
    }
    let utime: u64 = rest[11]
        .parse()
        .map_err(|e| PerfError::BadRead(format!("utime: {e}")))?;
    let stime: u64 = rest[12]
        .parse()
        .map_err(|e| PerfError::BadRead(format!("stime: {e}")))?;
    // SAFETY: sysconf takes no pointers and has no preconditions.
    let hz = unsafe { libc::sysconf(libc::_SC_CLK_TCK) };
    let hz = if hz <= 0 { 100.0 } else { hz as f64 };
    Ok((utime + stime) as f64 / hz)
}

/// A calibrated-model session observing one process.
pub struct CalibratedSession {
    pid: i32,
    model: CounterModel,
    frequency_hz: f64,
    baseline_cpu: f64,
    /// Last CPU reading, kept so a vanished process still yields the
    /// final snapshot instead of an error mid-teardown.
    last_cpu: f64,
}

impl CounterSession for CalibratedSession {
    fn snapshot(&mut self) -> Result<CounterSnapshot, PerfError> {
        match cpu_seconds_of(self.pid) {
            Ok(cpu) => {
                self.last_cpu = cpu;
                Ok(self
                    .model
                    .snapshot_for_cpu_seconds(cpu - self.baseline_cpu, self.frequency_hz))
            }
            Err(PerfError::ProcessGone(_)) => Ok(self
                .model
                .snapshot_for_cpu_seconds(self.last_cpu - self.baseline_cpu, self.frequency_hz)),
            Err(e) => Err(e),
        }
    }
}

/// The calibrated-model provider.
#[derive(Debug, Clone, Copy)]
pub struct CalibratedProvider {
    model: CounterModel,
}

impl CalibratedProvider {
    /// Provider with the default model (calibrating frequency lazily).
    pub fn new() -> Self {
        CalibratedProvider {
            model: CounterModel::default(),
        }
    }

    /// Provider with a custom model.
    pub fn with_model(model: CounterModel) -> Self {
        CalibratedProvider { model }
    }

    /// The configured model.
    pub fn model(&self) -> CounterModel {
        self.model
    }
}

impl Default for CalibratedProvider {
    fn default() -> Self {
        Self::new()
    }
}

impl CounterProvider for CalibratedProvider {
    fn name(&self) -> &'static str {
        "calibrated-model"
    }

    fn attach(&self, pid: i32) -> Result<Box<dyn CounterSession>, PerfError> {
        let frequency_hz = self.model.frequency_hz.unwrap_or_else(calibrate_frequency);
        let baseline_cpu = cpu_seconds_of(pid)?;
        Ok(Box::new(CalibratedSession {
            pid,
            model: self.model,
            frequency_hz,
            baseline_cpu,
            last_cpu: baseline_cpu,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::spin_cycles;

    #[test]
    fn model_snapshot_arithmetic() {
        let m = CounterModel {
            frequency_hz: Some(1e9),
            ipc: 2.0,
            efficiency: 0.8,
            frontend_fraction: 0.25,
        };
        let s = m.snapshot_for_cpu_seconds(2.0, 1e9);
        assert_eq!(s.cycles, 2_000_000_000);
        assert_eq!(s.instructions, 4_000_000_000);
        // stalled = cycles * 0.25/1 -> eff = c/(c+s) = 0.8
        let eff = s.cycles as f64 / (s.cycles + s.stalled_frontend + s.stalled_backend) as f64;
        assert!((eff - 0.8).abs() < 1e-6);
        // frontend fraction
        let total_stall = s.stalled_frontend + s.stalled_backend;
        assert!((s.stalled_frontend as f64 / total_stall as f64 - 0.25).abs() < 1e-6);
    }

    #[test]
    fn negative_cpu_clamps_to_zero() {
        let m = CounterModel::default();
        let s = m.snapshot_for_cpu_seconds(-1.0, 1e9);
        assert_eq!(s.cycles, 0);
        assert_eq!(s.instructions, 0);
    }

    #[test]
    fn session_observes_own_cpu_burn() {
        let provider = CalibratedProvider::with_model(CounterModel {
            frequency_hz: Some(1e9), // skip calibration in tests
            ..CounterModel::default()
        });
        let mut session = provider.attach(0).unwrap();
        let before = session.snapshot().unwrap();
        // Burn a measurable amount of CPU (~50ms at any realistic clock).
        std::hint::black_box(spin_cycles(60_000_000));
        let after = session.snapshot().unwrap();
        assert!(
            after.cycles > before.cycles,
            "cycles should grow: {} -> {}",
            before.cycles,
            after.cycles
        );
        assert!(
            after.instructions >= after.cycles,
            "ipc >= 1 in default model"
        );
    }

    #[test]
    fn attach_to_missing_pid_fails() {
        let provider = CalibratedProvider::new();
        assert!(provider.attach(i32::MAX - 2).is_err());
    }

    #[test]
    fn cpu_seconds_of_self_is_nonnegative_and_growing() {
        let a = cpu_seconds_of(0).unwrap();
        std::hint::black_box(spin_cycles(20_000_000));
        let b = cpu_seconds_of(0).unwrap();
        assert!(b >= a);
    }

    #[test]
    fn provider_name_and_model_access() {
        let p = CalibratedProvider::new();
        assert_eq!(p.name(), "calibrated-model");
        assert_eq!(p.model().ipc, 2.0);
    }
}
