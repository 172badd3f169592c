//! The one filesystem seam of [`ShardedDb`](crate::ShardedDb): every
//! call the store makes on its directory — reads, temp-file writes,
//! renames, removals, listings, the manifest's change stamp and the
//! directory lock — goes through an [`Fs`]. Production stores use
//! [`RealFs`] (`std::fs` plus `flock`); the crate's crash property runs
//! the store over an in-memory fake that crashes at a seeded step.

use std::io;
use std::path::Path;

use crate::lock::FileLock;

/// A file's inode number, mtime and length.
#[expect(
    clippy::disallowed_types,
    reason = "a file mtime is compared for change only; it never reaches a result or a trace"
)]
pub(crate) type Stamp = (u64, std::time::SystemTime, u64);

/// A held directory lock, released when dropped.
pub(crate) type Lock = Box<dyn Send>;

/// The filesystem calls a store directory needs.
pub(crate) trait Fs: Send + Sync {
    /// The whole file as text.
    fn read(&self, path: &Path) -> io::Result<String>;
    /// Create or truncate `path` and write `contents` into it.
    fn write(&self, path: &Path, contents: &str) -> io::Result<()>;
    /// Move `from` over `to`, replacing it.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Delete a file.
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// Create a directory and its parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Names of the files in `dir` (none if it does not exist).
    fn list(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// The file's [`Stamp`], or `None` if it does not exist.
    fn stamp(&self, path: &Path) -> Option<Stamp>;
    /// Take the exclusive advisory lock on `path`: the held lock, and
    /// whether another holder made this call wait.
    fn lock(&self, path: &Path) -> io::Result<(Lock, bool)>;
}

/// The real filesystem.
pub(crate) struct RealFs;

impl Fs for RealFs {
    fn read(&self, path: &Path) -> io::Result<String> {
        std::fs::read_to_string(path)
    }

    fn write(&self, path: &Path, contents: &str) -> io::Result<()> {
        std::fs::write(path, contents)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let entries = match std::fs::read_dir(dir) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            entries => entries?,
        };
        let mut names = Vec::new();
        for entry in entries {
            if let Ok(name) = entry?.file_name().into_string() {
                names.push(name);
            }
        }
        Ok(names)
    }

    fn stamp(&self, path: &Path) -> Option<Stamp> {
        use std::os::unix::fs::MetadataExt as _;
        let meta = std::fs::metadata(path).ok()?;
        Some((meta.ino(), meta.modified().ok()?, meta.len()))
    }

    fn lock(&self, path: &Path) -> io::Result<(Lock, bool)> {
        let (lock, contended) = FileLock::exclusive(path)?;
        Ok((Box::new(lock), contended))
    }
}

#[cfg(test)]
pub(crate) mod fake;
