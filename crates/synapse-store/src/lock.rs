//! Advisory cross-process file locking for shared store directories.
//!
//! Several processes (cluster workers, concurrent CLI runs) may share
//! one [`ShardedDb`](crate::ShardedDb) directory. Each file is
//! replaced whole (temp + rename), but a save reads, merges and
//! rewrites files and then commits a new manifest, and two such
//! sequences must not interleave between processes, or one commit
//! could drop the files of another. [`FileLock`] wraps `flock(2)` on a
//! dedicated lock file inside the store directory: exclusive,
//! advisory, released on drop — and by the kernel if the holder dies,
//! so a process that crashes mid-save leaves no stale lock, only what
//! the store's crash model allows (see [`crate::sharded`]).
//!
//! Acquisition first tries non-blocking so contention is *observable*:
//! the store counts how often a save had to wait on another process,
//! and `/store/stats` reports it — the number that says whether a
//! shared cache directory is a win or a bottleneck.

#![expect(unsafe_code, reason = "flock is an FFI call")]

use std::fs::{File, OpenOptions};
use std::io;
use std::path::Path;

/// Held advisory lock on a file; released on drop.
#[derive(Debug)]
pub struct FileLock {
    // Kept only for its open file description: dropping closes the fd,
    // which releases the flock.
    _file: File,
}

impl FileLock {
    /// Acquire an exclusive advisory lock on `path`, creating the file
    /// if needed. Returns the held lock and whether the acquisition
    /// was *contended* (another process held it and we had to block).
    pub fn exclusive(path: &Path) -> io::Result<(FileLock, bool)> {
        let file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(path)?;
        let contended = lock_exclusive(&file)?;
        Ok((FileLock { _file: file }, contended))
    }
}

#[cfg(unix)]
fn lock_exclusive(file: &File) -> io::Result<bool> {
    use std::os::unix::io::AsRawFd;
    let fd = file.as_raw_fd();
    // Probe non-blocking first: success means no contention.
    // SAFETY: fd is the raw descriptor of `file`, which outlives this
    // call; flock has no memory preconditions.
    if unsafe { libc::flock(fd, libc::LOCK_EX | libc::LOCK_NB) } == 0 {
        return Ok(false);
    }
    let err = io::Error::last_os_error();
    // EWOULDBLOCK (EAGAIN) means held elsewhere; anything else is a
    // real failure.
    if err.kind() != io::ErrorKind::WouldBlock {
        return Err(err);
    }
    loop {
        // SAFETY: same fd as above, still owned by `file`.
        if unsafe { libc::flock(fd, libc::LOCK_EX) } == 0 {
            return Ok(true);
        }
        let err = io::Error::last_os_error();
        // flock restarts are the caller's job when a signal lands.
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

#[cfg(not(unix))]
fn lock_exclusive(_file: &File) -> io::Result<bool> {
    // Advisory locking is best-effort; without flock the store falls
    // back to single-process semantics.
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lock_path(tag: &str) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!("synapse-lock-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn uncontended_acquisition_reports_no_contention() {
        let path = lock_path("free");
        let (lock, contended) = FileLock::exclusive(&path).unwrap();
        assert!(!contended);
        drop(lock);
        // Re-acquirable after release.
        let (_again, contended) = FileLock::exclusive(&path).unwrap();
        assert!(!contended);
        let _ = std::fs::remove_file(&path);
    }

    #[cfg(unix)]
    #[test]
    fn a_second_holder_blocks_until_release_and_observes_contention() {
        // flock is per open file description, so two locks *within one
        // process* contend the same way two processes do.
        let path = lock_path("contend");
        let (first, _) = FileLock::exclusive(&path).unwrap();
        let path2 = path.clone();
        let waiter = std::thread::spawn(move || {
            let (_lock, contended) = FileLock::exclusive(&path2).unwrap();
            contended
        });
        // Give the waiter time to hit the blocking path, then release.
        std::thread::sleep(std::time::Duration::from_millis(50));
        drop(first);
        assert!(waiter.join().unwrap(), "waiter saw contention");
        let _ = std::fs::remove_file(&path);
    }
}
