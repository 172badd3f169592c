//! Direct `perf_event_open(2)` counter sessions.
//!
//! This is the native equivalent of wrapping `perf stat`: one fd per
//! hardware event, attached to the observed pid, read on demand. The
//! counters are opened with `inherit` so threads spawned by the
//! observed process are included — matching `perf stat`'s default
//! process-tree accounting.

#![expect(
    unsafe_code,
    reason = "perf_event_open, ioctl, read and close on the counter fd are FFI calls"
)]

use std::io;

use crate::error::PerfError;
use crate::event::{CounterSnapshot, HardwareEvent};
use crate::provider::{CounterProvider, CounterSession};

// ioctl request values from include/uapi/linux/perf_event.h.
const PERF_EVENT_IOC_ENABLE: libc::c_ulong = 0x2400;
const PERF_EVENT_IOC_DISABLE: libc::c_ulong = 0x2401;
const PERF_EVENT_IOC_RESET: libc::c_ulong = 0x2403;
const PERF_TYPE_HARDWARE: u32 = 0;
const PERF_FLAG_FD_CLOEXEC: libc::c_ulong = 1 << 3;

// perf_event_attr flag bits (the bitfield word after read_format).
const ATTR_DISABLED: u64 = 1 << 0;
const ATTR_INHERIT: u64 = 1 << 1;
const ATTR_EXCLUDE_KERNEL: u64 = 1 << 5;
const ATTR_EXCLUDE_HV: u64 = 1 << 6;

/// `struct perf_event_attr` from include/uapi/linux/perf_event.h,
/// defined locally because this environment's libc does not ship the
/// binding. Field layout follows the kernel ABI; the flags bitfield is
/// a single u64 word.
#[repr(C)]
#[derive(Clone, Copy)]
struct PerfEventAttr {
    type_: u32,
    size: u32,
    config: u64,
    sample_period_or_freq: u64,
    sample_type: u64,
    read_format: u64,
    flags: u64,
    wakeup: u32,
    bp_type: u32,
    config1: u64,
    config2: u64,
    branch_sample_type: u64,
    sample_regs_user: u64,
    sample_stack_user: u32,
    clockid: i32,
    sample_regs_intr: u64,
    aux_watermark: u32,
    sample_max_stack: u16,
    reserved_2: u16,
    aux_sample_size: u32,
    reserved_3: u32,
}

/// A single opened hardware counter (one fd).
struct Counter {
    fd: libc::c_int,
    event: HardwareEvent,
}

impl Counter {
    /// Open a counter for `event` on `pid` (any CPU), disabled,
    /// inherited by children threads.
    fn open(event: HardwareEvent, pid: i32) -> Result<Counter, PerfError> {
        // SAFETY: PerfEventAttr is a plain-data repr(C) struct for
        // which all-zero bytes are a valid (default) value.
        let mut attr: PerfEventAttr = unsafe { std::mem::zeroed() };
        attr.type_ = PERF_TYPE_HARDWARE;
        attr.size = std::mem::size_of::<PerfEventAttr>() as u32;
        attr.config = event.perf_config();
        attr.flags = ATTR_DISABLED | ATTR_INHERIT | ATTR_EXCLUDE_KERNEL | ATTR_EXCLUDE_HV;
        // SAFETY: attr is a valid perf_event_attr; remaining args follow
        // the syscall ABI (pid, cpu = -1 -> any, group_fd = -1, flags).
        let fd = unsafe {
            libc::syscall(
                libc::SYS_perf_event_open,
                &attr as *const PerfEventAttr,
                pid as libc::pid_t,
                -1 as libc::c_int,
                -1 as libc::c_int,
                PERF_FLAG_FD_CLOEXEC,
            )
        } as libc::c_int;
        if fd < 0 {
            let errno = io::Error::last_os_error().raw_os_error().unwrap_or(0);
            return Err(match errno {
                libc::EACCES | libc::EPERM => PerfError::NotPermitted(errno),
                libc::ESRCH => PerfError::ProcessGone(pid),
                _ => PerfError::Sys {
                    call: "perf_event_open",
                    errno,
                },
            });
        }
        Ok(Counter { fd, event })
    }

    fn ioctl(&self, request: libc::c_ulong) -> Result<(), PerfError> {
        // SAFETY: fd is a live perf event fd; request is a valid
        // perf ioctl without an argument.
        let rc = unsafe { libc::ioctl(self.fd, request, 0) };
        if rc != 0 {
            return Err(PerfError::Sys {
                call: "ioctl(perf)",
                errno: io::Error::last_os_error().raw_os_error().unwrap_or(0),
            });
        }
        Ok(())
    }

    fn read(&self) -> Result<u64, PerfError> {
        let mut value: u64 = 0;
        // SAFETY: value is 8 writable bytes; perf counter reads return
        // a u64 for non-grouped counters.
        let n = unsafe {
            libc::read(
                self.fd,
                &mut value as *mut u64 as *mut libc::c_void,
                std::mem::size_of::<u64>(),
            )
        };
        if n != std::mem::size_of::<u64>() as isize {
            return Err(PerfError::BadRead(format!(
                "{}: read returned {n}",
                self.event.name()
            )));
        }
        Ok(value)
    }
}

impl Drop for Counter {
    fn drop(&mut self) {
        // SAFETY: fd was returned by perf_event_open and not closed.
        unsafe {
            libc::close(self.fd);
        }
    }
}

/// A live counter group observing one process.
pub struct PerfSession {
    counters: Vec<Counter>,
}

impl PerfSession {
    /// Open the four Table 1 hardware events on `pid` and enable them.
    ///
    /// Stalled-cycle events are optional: some PMUs (and most VMs) do
    /// not expose them; those counters then read as zero, which the
    /// paper's efficiency metric tolerates.
    pub fn attach(pid: i32) -> Result<PerfSession, PerfError> {
        let mut counters = Vec::new();
        for event in HardwareEvent::ALL {
            match Counter::open(event, pid) {
                Ok(c) => counters.push(c),
                Err(PerfError::NotPermitted(e)) => return Err(PerfError::NotPermitted(e)),
                Err(_e)
                    if matches!(
                        event,
                        HardwareEvent::StalledFrontend | HardwareEvent::StalledBackend
                    ) =>
                {
                    // Optional event unsupported on this PMU: skip.
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
        if counters.is_empty() {
            return Err(PerfError::Sys {
                call: "perf_event_open",
                errno: libc::ENOENT,
            });
        }
        for c in &counters {
            c.ioctl(PERF_EVENT_IOC_RESET)?;
            c.ioctl(PERF_EVENT_IOC_ENABLE)?;
        }
        Ok(PerfSession { counters })
    }

    /// Stop counting (used at post-processing time).
    pub fn disable(&self) -> Result<(), PerfError> {
        for c in &self.counters {
            c.ioctl(PERF_EVENT_IOC_DISABLE)?;
        }
        Ok(())
    }
}

impl CounterSession for PerfSession {
    fn snapshot(&mut self) -> Result<CounterSnapshot, PerfError> {
        let mut snap = CounterSnapshot::default();
        for c in &self.counters {
            let v = c.read()?;
            match c.event {
                HardwareEvent::Cycles => snap.cycles = v,
                HardwareEvent::Instructions => snap.instructions = v,
                HardwareEvent::StalledFrontend => snap.stalled_frontend = v,
                HardwareEvent::StalledBackend => snap.stalled_backend = v,
            }
        }
        Ok(snap)
    }
}

/// The perf-backed provider.
#[derive(Debug, Clone, Copy, Default)]
pub struct PerfProvider;

impl CounterProvider for PerfProvider {
    fn name(&self) -> &'static str {
        "perf_event"
    }

    fn attach(&self, pid: i32) -> Result<Box<dyn CounterSession>, PerfError> {
        Ok(Box::new(PerfSession::attach(pid)?))
    }
}

/// Whether `perf_event_open` works here (probed by opening a cycles
/// counter on the current process).
pub fn perf_available() -> bool {
    PerfSession::attach(0).is_ok() // pid 0 = calling process
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Burn CPU so counters have something to count.
    fn burn() -> u64 {
        let mut acc = 1u64;
        for i in 1..2_000_000u64 {
            acc = acc.wrapping_mul(i).wrapping_add(i);
        }
        acc
    }

    #[test]
    fn attach_probes_cleanly() {
        // Either perf works here or it reports NotPermitted/Sys —
        // never a panic or a hang.
        match PerfSession::attach(0) {
            Ok(mut s) => {
                std::hint::black_box(burn());
                let snap = s.snapshot().unwrap();
                assert!(snap.cycles > 0, "cycles counted");
                assert!(snap.instructions > 0, "instructions counted");
                s.disable().unwrap();
            }
            Err(PerfError::NotPermitted(_)) | Err(PerfError::Sys { .. }) => {
                // Expected inside restricted containers.
            }
            Err(other) => panic!("unexpected attach error: {other}"),
        }
    }

    #[test]
    fn counters_grow_monotonically_when_available() {
        if !perf_available() {
            return; // substitution documented; calibrated tests cover this path
        }
        let mut s = PerfSession::attach(0).unwrap();
        std::hint::black_box(burn());
        let a = s.snapshot().unwrap();
        std::hint::black_box(burn());
        let b = s.snapshot().unwrap();
        assert!(b.cycles >= a.cycles);
        assert!(b.instructions > a.instructions);
    }

    #[test]
    fn provider_name() {
        assert_eq!(PerfProvider.name(), "perf_event");
    }

    #[test]
    fn attach_to_absent_process_fails() {
        if !perf_available() {
            return;
        }
        // A pid that cannot exist.
        let r = PerfSession::attach(i32::MAX - 1);
        assert!(r.is_err());
    }
}
