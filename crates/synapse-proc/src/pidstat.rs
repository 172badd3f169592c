//! `/proc/<pid>/stat` parsing: CPU time, thread count and state.

#![expect(unsafe_code, reason = "sysconf is an FFI call")]

use std::fs;

use crate::error::ProcError;

/// Clock ticks per second (`sysconf(_SC_CLK_TCK)`), the unit of
/// `utime`/`stime` in `/proc/<pid>/stat`.
pub fn clock_ticks_per_sec() -> f64 {
    // SAFETY: sysconf with a valid name has no preconditions.
    let hz = unsafe { libc::sysconf(libc::_SC_CLK_TCK) };
    if hz <= 0 {
        100.0 // POSIX default
    } else {
        hz as f64
    }
}

/// Selected fields of `/proc/<pid>/stat`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PidStat {
    /// Process id (field 1).
    pub pid: i32,
    /// Single-character process state (field 3): R, S, D, Z, T, ...
    pub state: char,
    /// User-mode CPU time in clock ticks (field 14).
    pub utime_ticks: u64,
    /// Kernel-mode CPU time in clock ticks (field 15).
    pub stime_ticks: u64,
    /// Number of threads (field 20).
    pub num_threads: u32,
    /// Process start time after boot, in clock ticks (field 22).
    pub starttime_ticks: u64,
    /// Virtual memory size in bytes (field 23).
    pub vsize: u64,
    /// Resident set size in pages (field 24).
    pub rss_pages: i64,
}

impl PidStat {
    /// Total CPU time (user + system) in seconds.
    pub fn cpu_seconds(&self) -> f64 {
        (self.utime_ticks + self.stime_ticks) as f64 / clock_ticks_per_sec()
    }

    /// Resident set size in bytes.
    pub fn rss_bytes(&self) -> u64 {
        // SAFETY: sysconf takes no pointers and has no preconditions.
        let page = unsafe { libc::sysconf(libc::_SC_PAGESIZE) };
        let page = if page <= 0 { 4096 } else { page as u64 };
        self.rss_pages.max(0) as u64 * page
    }

    /// Whether the process is a zombie (exited, not yet reaped).
    pub fn is_zombie(&self) -> bool {
        self.state == 'Z'
    }
}

/// Parse the content of a `/proc/<pid>/stat` file.
///
/// The second field (`comm`) may contain spaces and parentheses, so we
/// locate the *last* `)` and split the remainder, as procfs(5)
/// prescribes.
pub fn parse_pid_stat(content: &str) -> Result<PidStat, ProcError> {
    let content = content.trim();
    let open = content.find('(').ok_or_else(|| ProcError::Parse {
        what: "pid/stat",
        reason: "missing '(' around comm".into(),
    })?;
    let close = content.rfind(')').ok_or_else(|| ProcError::Parse {
        what: "pid/stat",
        reason: "missing ')' around comm".into(),
    })?;
    if close < open {
        return Err(ProcError::Parse {
            what: "pid/stat",
            reason: "mismatched comm parentheses".into(),
        });
    }
    let pid: i32 = content[..open]
        .trim()
        .parse()
        .map_err(|e| ProcError::Parse {
            what: "pid/stat",
            reason: format!("pid field: {e}"),
        })?;
    // Fields after the comm, 1-indexed from field 3 (state).
    let rest: Vec<&str> = content[close + 1..].split_whitespace().collect();
    // state is rest[0] (field 3); utime field 14 -> rest[11]; stime 15 ->
    // rest[12]; num_threads 20 -> rest[17]; starttime 22 -> rest[19];
    // vsize 23 -> rest[20]; rss 24 -> rest[21].
    if rest.len() < 22 {
        return Err(ProcError::Parse {
            what: "pid/stat",
            reason: format!("expected >= 22 fields after comm, got {}", rest.len()),
        });
    }
    let field = |idx: usize, name: &'static str| -> Result<u64, ProcError> {
        rest[idx].parse().map_err(|e| ProcError::Parse {
            what: "pid/stat",
            reason: format!("{name}: {e}"),
        })
    };
    Ok(PidStat {
        pid,
        state: rest[0].chars().next().unwrap_or('?'),
        utime_ticks: field(11, "utime")?,
        stime_ticks: field(12, "stime")?,
        num_threads: field(17, "num_threads")? as u32,
        starttime_ticks: field(19, "starttime")?,
        vsize: field(20, "vsize")?,
        rss_pages: rest[21].parse().map_err(|e| ProcError::Parse {
            what: "pid/stat",
            reason: format!("rss: {e}"),
        })?,
    })
}

/// Read and parse `/proc/<pid>/stat` for a live process.
pub fn read_pid_stat(pid: i32) -> Result<PidStat, ProcError> {
    let path = format!("/proc/{pid}/stat");
    match fs::read_to_string(&path) {
        Ok(content) => parse_pid_stat(&content),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Err(ProcError::ProcessGone(pid)),
        Err(e) => Err(e.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // A realistic stat line (trimmed from a live kernel) with a comm
    // containing a space and parentheses.
    const LINE: &str = "1234 (my (weird) app) S 1 1234 1234 0 -1 4194304 \
        1000 0 0 0 250 50 0 0 20 0 3 0 567890 123456789 456 \
        18446744073709551615 0 0 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";

    #[test]
    fn parses_fields_past_hostile_comm() {
        let s = parse_pid_stat(LINE).unwrap();
        assert_eq!(s.pid, 1234);
        assert_eq!(s.state, 'S');
        assert_eq!(s.utime_ticks, 250);
        assert_eq!(s.stime_ticks, 50);
        assert_eq!(s.num_threads, 3);
        assert_eq!(s.starttime_ticks, 567890);
        assert_eq!(s.vsize, 123456789);
        assert_eq!(s.rss_pages, 456);
        assert!(!s.is_zombie());
    }

    #[test]
    fn cpu_seconds_uses_clock_ticks() {
        let s = parse_pid_stat(LINE).unwrap();
        let hz = clock_ticks_per_sec();
        assert!((s.cpu_seconds() - 300.0 / hz).abs() < 1e-9);
        assert!(hz > 0.0);
    }

    #[test]
    fn rss_bytes_is_pages_times_pagesize() {
        let s = parse_pid_stat(LINE).unwrap();
        assert!(s.rss_bytes() >= 456 * 4096 / 16); // page size sanity
        assert_eq!(s.rss_bytes() % 456, 0);
    }

    #[test]
    fn zombie_detection() {
        let line = LINE.replacen(") S ", ") Z ", 1);
        assert!(parse_pid_stat(&line).unwrap().is_zombie());
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_pid_stat("").is_err());
        assert!(parse_pid_stat("1234 no-parens S 1").is_err());
        assert!(parse_pid_stat("1234 (x) S 1 2 3").is_err()); // too short
        assert!(parse_pid_stat(") 1234 ( S").is_err()); // mismatched
    }

    #[test]
    fn negative_rss_clamps_to_zero_bytes() {
        let line = LINE.replace(" 456 ", " -1 ");
        let s = parse_pid_stat(&line).unwrap();
        assert_eq!(s.rss_pages, -1);
        assert_eq!(s.rss_bytes(), 0);
    }

    #[test]
    fn reads_own_process() {
        let me = std::process::id() as i32;
        let s = read_pid_stat(me).unwrap();
        assert_eq!(s.pid, me);
        assert!(s.num_threads >= 1);
        assert!(s.vsize > 0);
    }

    #[test]
    fn vanished_process_reports_gone() {
        // PID 0 never has a /proc entry accessible this way; very large
        // PIDs beyond pid_max do not exist either.
        let r = read_pid_stat(i32::MAX);
        assert!(matches!(r, Err(ProcError::ProcessGone(_))));
    }
}
