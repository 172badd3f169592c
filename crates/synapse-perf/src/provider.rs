//! Backend-independent counter interface and runtime selection.

use crate::calibrated::CalibratedProvider;
use crate::error::PerfError;
use crate::event::CounterSnapshot;
use crate::perf::{perf_available, PerfProvider};

/// A live counter session attached to one process. Snapshots are
/// cumulative since attach; callers difference consecutive snapshots
/// into per-sample deltas with [`CounterSnapshot::delta_since`].
pub trait CounterSession: Send {
    /// Read the cumulative counters.
    fn snapshot(&mut self) -> Result<CounterSnapshot, PerfError>;
}

/// A counter backend.
pub trait CounterProvider: Send + Sync {
    /// Backend name, recorded in profiles for provenance.
    fn name(&self) -> &'static str;

    /// Attach to a process (pid 0 = the calling process).
    fn attach(&self, pid: i32) -> Result<Box<dyn CounterSession>, PerfError>;
}

/// Pick the best available backend: real hardware counters when the
/// kernel permits them, the calibrated model otherwise. This is the
/// "profile once, emulate anywhere" enabling decision — profiling code
/// never needs to care which backend is active.
pub fn default_provider() -> Box<dyn CounterProvider> {
    if perf_available() {
        Box::new(PerfProvider)
    } else {
        Box::new(CalibratedProvider::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_provider_attaches_to_self() {
        let provider = default_provider();
        assert!(!provider.name().is_empty());
        let mut session = provider.attach(0).expect("attach to self");
        let snap = session.snapshot().expect("snapshot");
        // Counters are cumulative and non-negative by type; a second
        // snapshot never goes backwards.
        let snap2 = session.snapshot().expect("snapshot2");
        assert!(snap2.cycles >= snap.cycles || snap.cycles == 0);
    }

    #[test]
    fn default_provider_is_deterministic_choice() {
        let a = default_provider().name();
        let b = default_provider().name();
        assert_eq!(a, b);
    }
}

#[cfg(test)]
#[expect(unsafe_code, reason = "gettid is a raw syscall")]
mod tid_tests {
    use super::*;

    #[test]
    fn attach_to_own_tid_counts_this_thread() {
        let provider = default_provider();
        // SAFETY: gettid takes no arguments and cannot fail.
        let tid = unsafe { libc::syscall(libc::SYS_gettid) } as i32;
        let mut s = provider.attach(tid).expect("attach to own tid");
        let mut acc = 1u64;
        for i in 1..50_000_000u64 {
            acc = acc.wrapping_mul(i).wrapping_add(i);
        }
        std::hint::black_box(acc);
        let snap = s.snapshot().expect("snapshot");
        assert!(
            snap.cycles > 0,
            "provider {} must count this thread's burn",
            provider.name()
        );
    }
}
