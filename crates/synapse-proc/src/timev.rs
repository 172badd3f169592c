//! A `time -v` analogue: spawn a command, measure wall time precisely
//! from the moment of spawning, and collect exit status plus resource
//! usage on completion.
//!
//! The paper wraps the profiled process "into the POSIX tool `time
//! -v`, which allows us to correct some of the effects of that offset"
//! between process spawn and the first watcher sample (§4.1). This
//! module provides the same capability in-process: the spawn timestamp
//! is taken immediately around `fork/exec`, so the measured `Tx` does
//! not include profiler start-up.

#![expect(unsafe_code, reason = "waitid is an FFI call")]

use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::error::ProcError;
use crate::rusage::{wait4, ResourceUsage};

/// A child process with a precise spawn timestamp.
pub struct TimedChild {
    child: Child,
    started: Instant,
    command_line: String,
}

/// Final measurements of a timed child.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedResult {
    /// Wall-clock execution time (spawn → reap), the paper's `Tx`.
    pub wall_time: Duration,
    /// Exit code (128+signal if killed by a signal).
    pub exit_code: i32,
    /// Resource usage reported by `wait4`.
    pub usage: ResourceUsage,
}

impl TimedChild {
    /// Spawn `program args...` with stdout/stderr silenced (profiling
    /// must not mix application output into profiler output).
    pub fn spawn(program: &str, args: &[&str]) -> Result<TimedChild, ProcError> {
        let mut cmd = Command::new(program);
        cmd.args(args).stdout(Stdio::null()).stderr(Stdio::null());
        Self::spawn_command(cmd)
    }

    /// Spawn a prepared [`Command`]; the caller controls stdio and
    /// environment.
    pub fn spawn_command(mut cmd: Command) -> Result<TimedChild, ProcError> {
        let command_line = format!("{cmd:?}");
        let started = Instant::now();
        let child = cmd.spawn()?;
        Ok(TimedChild {
            child,
            started,
            command_line,
        })
    }

    /// PID of the running child (handed to the watcher threads).
    pub fn pid(&self) -> i32 {
        self.child.id() as i32
    }

    /// The command line, for profile keys and diagnostics.
    pub fn command_line(&self) -> &str {
        &self.command_line
    }

    /// Elapsed wall time since spawn.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Non-blocking liveness check.
    pub fn is_running(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(None))
    }

    /// Block until the child has exited *without reaping it*
    /// (`waitid` with `WNOWAIT`). The child stays a zombie, so its
    /// `/proc` entries — including the cumulative I/O counters —
    /// remain readable for the watchers' final samples. Follow up
    /// with [`TimedChild::wait`] to reap and collect rusage.
    pub fn wait_without_reaping(&self) -> Result<Duration, ProcError> {
        // SAFETY: siginfo_t is plain old data; all-zero bytes are
        // a valid value for an out-parameter about to be overwritten.
        let mut info: libc::siginfo_t = unsafe { std::mem::zeroed() };
        // SAFETY: info is a valid out-parameter; the pid belongs to a
        // child of this process.
        let rc = unsafe {
            libc::waitid(
                libc::P_PID,
                self.child.id() as libc::id_t,
                &mut info,
                libc::WEXITED | libc::WNOWAIT,
            )
        };
        if rc != 0 {
            return Err(ProcError::Sys {
                call: "waitid",
                errno: std::io::Error::last_os_error().raw_os_error().unwrap_or(0),
            });
        }
        Ok(self.started.elapsed())
    }

    /// Block until the child exits; returns the `time -v`-style
    /// measurements. Uses `wait4` so the rusage belongs to exactly
    /// this child.
    pub fn wait(mut self) -> Result<TimedResult, ProcError> {
        let pid = self.pid();
        let (exit_code, usage) = match wait4(pid) {
            Ok(r) => r,
            Err(_) => {
                // If something else reaped it (shouldn't happen), fall
                // back to the std wait for the exit code; rusage is
                // then unavailable.
                let status = self.child.wait()?;
                return Ok(TimedResult {
                    wall_time: self.started.elapsed(),
                    exit_code: status.code().unwrap_or(-1),
                    usage: ResourceUsage::default(),
                });
            }
        };
        let wall_time = self.started.elapsed();
        // wait4 already reaped the process; forget the Child so its
        // Drop does not wait on a stale pid.
        std::mem::forget(self.child);
        Ok(TimedResult {
            wall_time,
            exit_code,
            usage,
        })
    }

    /// Kill the child (failure injection / cancellation).
    pub fn kill(&mut self) -> Result<(), ProcError> {
        self.child.kill()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_wall_time_of_sleep() {
        let child = TimedChild::spawn("/bin/sleep", &["0.2"]).unwrap();
        assert!(child.command_line().contains("sleep"));
        let result = child.wait().unwrap();
        assert_eq!(result.exit_code, 0);
        assert!(
            result.wall_time >= Duration::from_millis(190),
            "wall {:?} must cover the sleep",
            result.wall_time
        );
        assert!(
            result.wall_time < Duration::from_secs(5),
            "wall {:?} absurdly long",
            result.wall_time
        );
    }

    #[test]
    fn captures_exit_codes() {
        let child = TimedChild::spawn("/bin/sh", &["-c", "exit 3"]).unwrap();
        assert_eq!(child.wait().unwrap().exit_code, 3);
    }

    #[test]
    fn captures_signal_deaths() {
        let mut child = TimedChild::spawn("/bin/sleep", &["30"]).unwrap();
        assert!(child.is_running());
        child.kill().unwrap();
        let result = child.wait().unwrap();
        assert_eq!(result.exit_code, 128 + libc::SIGKILL);
    }

    #[test]
    fn pid_is_observable_while_running() {
        let mut child = TimedChild::spawn("/bin/sleep", &["0.3"]).unwrap();
        let pid = child.pid();
        assert!(pid > 0);
        // The watcher can read its /proc entry.
        let stat = crate::pidstat::read_pid_stat(pid).unwrap();
        assert_eq!(stat.pid, pid);
        assert!(child.is_running());
        let result = child.wait().unwrap();
        assert_eq!(result.exit_code, 0);
    }

    #[test]
    fn usage_reflects_cpu_burn() {
        let child = TimedChild::spawn(
            "/bin/sh",
            &["-c", "i=0; while [ $i -lt 60000 ]; do i=$((i+1)); done"],
        )
        .unwrap();
        let result = child.wait().unwrap();
        assert_eq!(result.exit_code, 0);
        assert!(result.usage.cpu_time() > Duration::ZERO);
        assert!(result.usage.max_rss > 0);
    }

    #[test]
    fn spawn_failure_is_reported() {
        assert!(TimedChild::spawn("/no/such/binary", &[]).is_err());
    }
}
