//! The profiling engine: spawn, watch, combine.
//!
//! Synapse "spawns the application process \[and\] communicates the
//! application process' PID to the watcher threads, which monitor the
//! application process" (§4.1). The process is wrapped in a `time -v`
//! analogue so the measured `Tx` starts at spawn, correcting the small
//! offset before the first watcher sample.

#![expect(unsafe_code, reason = "gettid is a raw syscall")]

use std::process::Command;

use synapse_model::{Profile, ProfileKey, Tags};
use synapse_perf::{CalibratedProvider, CounterProvider};
use synapse_proc::{host_system_info, TimedChild, TimedResult};

use crate::config::ProfilerConfig;
use crate::error::SynapseError;
use crate::watcher::{combine_series, spawn_watcher, WatcherHandle};
use crate::watchers::{CpuWatcher, IoWatcher, MemWatcher};

/// Everything a profiling run produces.
#[derive(Debug, Clone)]
pub struct ProfileOutcome {
    /// The combined profile (stored by the caller or by
    /// [`crate::api::profile`]).
    pub profile: Profile,
    /// Wall time, exit code and rusage of the application.
    pub timed: TimedResult,
}

/// The profiler.
pub struct Profiler {
    config: ProfilerConfig,
}

impl Profiler {
    /// A profiler with the given configuration.
    pub fn new(config: ProfilerConfig) -> Self {
        Profiler { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &ProfilerConfig {
        &self.config
    }

    /// Profile a command line (program + args) under a profile key.
    ///
    /// This is the black-box path: the application needs no changes;
    /// stdout/stderr are silenced so profiling output stays clean.
    pub fn profile_command(
        &self,
        program: &str,
        args: &[&str],
        key: ProfileKey,
    ) -> Result<ProfileOutcome, SynapseError> {
        let mut cmd = Command::new(program);
        cmd.args(args)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null());
        self.profile_spawned(cmd, key)
    }

    /// Profile a prepared [`Command`] (caller controls stdio/env).
    pub fn profile_spawned(
        &self,
        cmd: Command,
        key: ProfileKey,
    ) -> Result<ProfileOutcome, SynapseError> {
        let schedule = self.config.schedule()?;

        let child = TimedChild::spawn_command(cmd)?;
        let pid = child.pid();
        let handles = self.spawn_watchers(pid, schedule)?;

        // Wait for exit WITHOUT reaping: the child stays a zombie so
        // the watchers' final samples can still read its cumulative
        // /proc counters (otherwise activity in the last partial
        // period would be lost).
        let wall = child.wait_without_reaping()?;

        // Stop sampling; each watcher takes one final sample so the
        // tail of the run is captured in a closing full period.
        for h in &handles {
            h.terminate();
        }
        let mut all_series = Vec::with_capacity(handles.len());
        for h in handles {
            all_series.push(h.join()?);
        }

        // Now reap, collecting exit status and rusage.
        let mut timed = child.wait()?;
        timed.wall_time = wall;

        let samples = combine_series(all_series, &schedule);
        let mut profile = Profile::new(key, host_system_info()?, schedule.steady_hz());
        profile.runtime = timed.wall_time.as_secs_f64();
        for s in samples {
            profile.push(s)?;
        }
        // Fold the rusage peak into the profile: the paper corrects
        // startup effects via `time -v`, whose max-RSS covers the
        // window before the first watcher sample.
        if let Some(first) = profile.samples.first_mut() {
            first.memory.peak = first.memory.peak.max(timed.usage.max_rss);
        }
        Ok(ProfileOutcome { profile, timed })
    }

    /// Profile a Rust closure running in-process (the paper's "command
    /// is either a shell command line or a Python callable"). The
    /// watchers observe the *current* process, so the closure should
    /// dominate its activity.
    pub fn profile_fn<T>(
        &self,
        key: ProfileKey,
        f: impl FnOnce() -> T,
    ) -> Result<(ProfileOutcome, T), SynapseError> {
        let schedule = self.config.schedule()?;
        let pid = std::process::id() as i32;
        // Hardware counters attach to a *task*: observing the process
        // would count the (idle) main thread, not the calling thread
        // the closure runs on. Attach the CPU watcher to this thread's
        // tid; the /proc watchers observe the whole process.
        // SAFETY: gettid has no preconditions.
        let tid = unsafe { libc::syscall(libc::SYS_gettid) } as i32;
        let handles = self.spawn_watchers_split(tid, pid, schedule)?;
        // The closure must not start before the counters are attached.
        for h in &handles {
            h.wait_ready();
        }

        let start = std::time::Instant::now();
        let value = f();
        let wall = start.elapsed();

        for h in &handles {
            h.terminate();
        }
        let mut all_series = Vec::with_capacity(handles.len());
        for h in handles {
            all_series.push(h.join()?);
        }
        let samples = combine_series(all_series, &schedule);
        let mut profile = Profile::new(key, host_system_info()?, schedule.steady_hz());
        profile.runtime = wall.as_secs_f64();
        for s in samples {
            profile.push(s)?;
        }
        let timed = TimedResult {
            wall_time: wall,
            exit_code: 0,
            usage: synapse_proc::rusage_self()?,
        };
        Ok((ProfileOutcome { profile, timed }, value))
    }

    fn spawn_watchers(
        &self,
        pid: i32,
        schedule: crate::schedule::SampleSchedule,
    ) -> Result<Vec<WatcherHandle>, SynapseError> {
        self.spawn_watchers_split(pid, pid, schedule)
    }

    /// Spawn the watcher set with distinct targets for the counter
    /// watcher (`cpu_pid`, may be a thread id) and the `/proc`
    /// watchers (`proc_pid`, a process id).
    fn spawn_watchers_split(
        &self,
        cpu_pid: i32,
        proc_pid: i32,
        schedule: crate::schedule::SampleSchedule,
    ) -> Result<Vec<WatcherHandle>, SynapseError> {
        let mut handles = Vec::new();
        let provider: Box<dyn CounterProvider> = if self.config.use_hardware_counters {
            synapse_perf::default_provider()
        } else {
            Box::new(CalibratedProvider::new())
        };
        handles.push(spawn_watcher(
            Box::new(CpuWatcher::new(cpu_pid, provider)),
            schedule,
        )?);
        if self.config.watch_memory {
            handles.push(spawn_watcher(
                Box::new(MemWatcher::new(proc_pid)),
                schedule,
            )?);
        }
        if self.config.watch_io {
            handles.push(spawn_watcher(Box::new(IoWatcher::new(proc_pid)), schedule)?);
        }
        Ok(handles)
    }
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler::new(ProfilerConfig::default())
    }
}

/// Build the canonical [`ProfileKey`] for a shell-style command line
/// plus optional tags (the `(command, tags)` database index of §4).
pub fn key_for(command: &str, tags: Option<Tags>) -> ProfileKey {
    ProfileKey::new(command.trim(), tags.unwrap_or_default())
}

/// Split a shell-style command line into program and arguments
/// (whitespace splitting; quoting is the caller's job — the paper's
/// API takes the command string the same way).
pub fn split_command(command: &str) -> Result<(String, Vec<String>), SynapseError> {
    let mut parts = command.split_whitespace().map(String::from);
    let program = parts
        .next()
        .ok_or_else(|| SynapseError::Config("empty command".into()))?;
    Ok((program, parts.collect()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config() -> ProfilerConfig {
        ProfilerConfig {
            sample_rate_hz: 10.0,
            // The calibrated provider with lazy calibration measures
            // frequency once per process; fine in tests.
            ..Default::default()
        }
    }

    #[test]
    fn profiles_a_short_sleep() {
        let p = Profiler::new(fast_config());
        let key = key_for("sleep 0.25", None);
        let outcome = p
            .profile_command("/bin/sleep", &["0.25"], key.clone())
            .unwrap();
        assert_eq!(outcome.timed.exit_code, 0);
        let profile = &outcome.profile;
        assert_eq!(profile.key, key);
        assert!(profile.runtime >= 0.24, "runtime {}", profile.runtime);
        assert!(profile.runtime < 5.0);
        assert!(profile.len() >= 2, "got {} samples", profile.len());
        assert!(profile.validate().is_ok());
        // A sleeping process burns almost nothing.
        let d = profile.derived();
        if let Some(util) = d.utilization {
            assert!(util < 0.5, "sleep must not look busy: {util}");
        }
    }

    #[test]
    fn profiles_a_cpu_burner_and_sees_cycles() {
        let p = Profiler::new(fast_config());
        let key = key_for("sh busy", None);
        let outcome = p
            .profile_command(
                "/bin/sh",
                &["-c", "i=0; while [ $i -lt 300000 ]; do i=$((i+1)); done"],
                key,
            )
            .unwrap();
        let totals = outcome.profile.totals();
        assert!(
            totals.cycles > 10_000_000,
            "busy loop must show cycles, got {}",
            totals.cycles
        );
        assert!(outcome.timed.usage.cpu_time().as_secs_f64() > 0.0);
    }

    #[test]
    fn profile_fn_observes_in_process_work() {
        let p = Profiler::new(fast_config());
        let key = key_for("callable", None);
        let (outcome, value) = p
            .profile_fn(key, || {
                std::hint::black_box(synapse_perf::calibration::spin_cycles(300_000_000))
            })
            .unwrap();
        assert_ne!(value, 0);
        assert!(outcome.profile.runtime > 0.0);
        assert!(outcome.profile.totals().cycles > 0);
    }

    #[test]
    fn spawn_failure_reports_cleanly() {
        let p = Profiler::new(fast_config());
        let r = p.profile_command("/no/such/program", &[], key_for("x", None));
        assert!(r.is_err());
    }

    #[test]
    fn command_splitting() {
        let (prog, args) = split_command("gromacs mdrun -s topol").unwrap();
        assert_eq!(prog, "gromacs");
        assert_eq!(args, vec!["mdrun", "-s", "topol"]);
        assert!(split_command("   ").is_err());
    }

    #[test]
    fn key_for_trims_and_defaults() {
        let k = key_for("  sleep 1 ", None);
        assert_eq!(k.command, "sleep 1");
        assert!(k.tags.is_empty());
        let k2 = key_for("app", Some(Tags::parse("a=1")));
        assert_eq!(k2.tags.get("a"), Some("1"));
    }
}
