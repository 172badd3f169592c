//! POSIX `getrusage(2)` / `wait4(2)` process accounting.
//!
//! The paper uses "the POSIX rusage call to obtain runtime process
//! information" (§4.1). We wrap both the self/children queries and the
//! `wait4` variant that atomically reaps a child while collecting its
//! resource usage (what the `time -v` wrapper relies on).

#![expect(unsafe_code, reason = "getrusage and wait4 are FFI calls")]

use std::time::Duration;

use crate::error::ProcError;

/// Process accounting snapshot (subset of `struct rusage`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResourceUsage {
    /// User-mode CPU time.
    pub user_time: Duration,
    /// Kernel-mode CPU time.
    pub system_time: Duration,
    /// Peak resident set size in bytes.
    pub max_rss: u64,
    /// Voluntary context switches.
    pub voluntary_ctxt: u64,
    /// Involuntary context switches.
    pub involuntary_ctxt: u64,
    /// Block input operations.
    pub inblock: u64,
    /// Block output operations.
    pub oublock: u64,
}

impl ResourceUsage {
    /// Total CPU time (user + system).
    pub fn cpu_time(&self) -> Duration {
        self.user_time + self.system_time
    }

    fn from_libc(ru: &libc::rusage) -> ResourceUsage {
        let tv = |t: libc::timeval| {
            Duration::new(t.tv_sec.max(0) as u64, (t.tv_usec.max(0) as u32) * 1000)
        };
        ResourceUsage {
            user_time: tv(ru.ru_utime),
            system_time: tv(ru.ru_stime),
            // ru_maxrss is kilobytes on Linux.
            max_rss: (ru.ru_maxrss.max(0) as u64) * 1024,
            voluntary_ctxt: ru.ru_nvcsw.max(0) as u64,
            involuntary_ctxt: ru.ru_nivcsw.max(0) as u64,
            inblock: ru.ru_inblock.max(0) as u64,
            oublock: ru.ru_oublock.max(0) as u64,
        }
    }
}

fn getrusage(who: libc::c_int) -> Result<ResourceUsage, ProcError> {
    // SAFETY: rusage is plain old data; all-zero bytes are valid.
    let mut ru: libc::rusage = unsafe { std::mem::zeroed() };
    // SAFETY: ru is a valid, writable rusage struct.
    let rc = unsafe { libc::getrusage(who, &mut ru) };
    if rc != 0 {
        return Err(ProcError::Sys {
            call: "getrusage",
            errno: std::io::Error::last_os_error().raw_os_error().unwrap_or(0),
        });
    }
    Ok(ResourceUsage::from_libc(&ru))
}

/// Resource usage of the calling process.
pub fn rusage_self() -> Result<ResourceUsage, ProcError> {
    getrusage(libc::RUSAGE_SELF)
}

/// Aggregated resource usage of reaped children.
pub fn rusage_children() -> Result<ResourceUsage, ProcError> {
    getrusage(libc::RUSAGE_CHILDREN)
}

/// Reap a child with `wait4(2)`, returning its exit status and
/// resource usage atomically.
pub fn wait4(pid: i32) -> Result<(i32, ResourceUsage), ProcError> {
    let mut status: libc::c_int = 0;
    // SAFETY: rusage is plain old data; all-zero bytes are valid.
    let mut ru: libc::rusage = unsafe { std::mem::zeroed() };
    // SAFETY: status and ru are valid writable out-parameters.
    let rc = unsafe { libc::wait4(pid, &mut status, 0, &mut ru) };
    if rc < 0 {
        return Err(ProcError::Sys {
            call: "wait4",
            errno: std::io::Error::last_os_error().raw_os_error().unwrap_or(0),
        });
    }
    let exit_code = if libc::WIFEXITED(status) {
        libc::WEXITSTATUS(status)
    } else if libc::WIFSIGNALED(status) {
        128 + libc::WTERMSIG(status)
    } else {
        -1
    };
    Ok((exit_code, ResourceUsage::from_libc(&ru)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_usage_is_sane() {
        let ru = rusage_self().unwrap();
        assert!(ru.max_rss > 0, "the test process has resident memory");
        // CPU time is non-negative by construction; touch it so the
        // Duration arithmetic is exercised.
        assert!(ru.cpu_time() >= ru.user_time);
    }

    #[test]
    fn children_usage_grows_after_spawning() {
        let before = rusage_children().unwrap();
        // Spawn a short child that does a little work.
        let status = std::process::Command::new("/bin/sh")
            .args(["-c", "i=0; while [ $i -lt 20000 ]; do i=$((i+1)); done"])
            .status()
            .expect("spawn sh");
        assert!(status.success());
        let after = rusage_children().unwrap();
        assert!(after.cpu_time() >= before.cpu_time());
        assert!(after.max_rss >= before.max_rss);
    }

    #[test]
    fn wait4_reaps_child_with_usage() {
        use std::process::Command;
        let child = Command::new("/bin/sh")
            .args(["-c", "exit 7"])
            .spawn()
            .unwrap();
        let pid = child.id() as i32;
        // Do NOT call child.wait(): wait4 must reap it.
        let (code, ru) = wait4(pid).unwrap();
        assert_eq!(code, 7);
        assert!(ru.max_rss > 0);
        // Prevent the Child drop from waiting again on an already
        // reaped pid panicking: dropping Child after external reap is
        // fine (kill/wait fail silently in drop).
        std::mem::forget(child);
    }

    #[test]
    fn wait4_on_nonchild_errors() {
        let r = wait4(1); // init is not our child
        assert!(matches!(r, Err(ProcError::Sys { call: "wait4", .. })));
    }

    #[test]
    fn cpu_time_sums_components() {
        let ru = ResourceUsage {
            user_time: Duration::from_millis(300),
            system_time: Duration::from_millis(200),
            ..Default::default()
        };
        assert_eq!(ru.cpu_time(), Duration::from_millis(500));
    }
}
