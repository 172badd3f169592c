#![warn(missing_docs)]

//! Hardware performance counters for the Synapse profiler.
//!
//! The paper's CPU watcher wraps `perf stat` to count cycles, retired
//! instructions and stalled (frontend/backend) cycles. This crate
//! provides the same measurements through two backends behind one
//! interface:
//!
//! * [`perf::PerfProvider`] — a direct `perf_event_open(2)` wrapper.
//!   Exactly what `perf stat` uses, with no subprocess. Requires
//!   kernel permission (`perf_event_paranoid`); many containers deny
//!   it.
//! * [`calibrated::CalibratedProvider`] — a documented **substitution**
//!   (see the README's "Paper experiments" section): when hardware
//!   counters are unavailable, cycles are modelled as `cpu_time ×
//!   calibrated_frequency` and instructions as `cycles × ipc`, with
//!   the frequency measured by a timed spin loop at startup. The model
//!   preserves the relationships the paper's experiments rely on
//!   (cycles ≈ Tx·f for compute-bound code; per-kernel IPC
//!   differences).
//!
//! [`provider::default_provider`] picks the perf backend when the
//! kernel permits it and falls back to the calibrated model otherwise,
//! so all profiling code runs unchanged on both kinds of hosts.

pub mod calibrated;
pub mod calibration;
pub mod error;
pub mod event;
pub mod perf;
pub mod provider;

pub use calibrated::{CalibratedProvider, CounterModel};
pub use calibration::{calibrate_frequency, spin_cycles};
pub use error::PerfError;
pub use event::{CounterSnapshot, HardwareEvent};
pub use perf::{perf_available, PerfProvider};
pub use provider::{default_provider, CounterProvider, CounterSession};
