//! The storage atom: file read/write with tunable block sizes and
//! target filesystem (§4.2, E.5).
//!
//! "The I/O can be emulated toward any available filesystem, any
//! number of files, and any combination of I/O granularity for those
//! files." The atom owns a scratch file in a configurable directory
//! (pointing it at a different mount emulates a different filesystem),
//! writes append in `write_block`-sized calls, reads stream from the
//! start in `read_block`-sized calls, wrapping around as needed.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::atom::AtomReport;

/// Default I/O block size (1 MiB — the paper's "large blocks where
/// possible" default assumption).
pub const DEFAULT_IO_BLOCK: u64 = 1 << 20;

/// The storage emulation atom.
pub struct StorageAtom {
    path: PathBuf,
    write_block: u64,
    read_block: u64,
    /// Rewind point: written bytes wrap at this size so long
    /// emulations do not fill the disk.
    max_file_bytes: u64,
    written_total: u64,
    read_total: u64,
}

impl StorageAtom {
    /// Atom writing to a scratch file in `dir` with default blocks and
    /// a 256 MiB file-size cap.
    pub fn new(dir: impl AsRef<Path>) -> std::io::Result<Self> {
        Self::with_config(dir, DEFAULT_IO_BLOCK, DEFAULT_IO_BLOCK, 256 << 20)
    }

    /// Fully configured atom.
    pub fn with_config(
        dir: impl AsRef<Path>,
        write_block: u64,
        read_block: u64,
        max_file_bytes: u64,
    ) -> std::io::Result<Self> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        // Unique per atom, not per process: emulations running
        // concurrently in one process must not share, truncate or
        // clean up each other's scratch file.
        static NEXT_SCRATCH: AtomicU64 = AtomicU64::new(0);
        let seq = NEXT_SCRATCH.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("synapse-storage-{}-{seq}.dat", std::process::id()));
        Ok(StorageAtom {
            path,
            write_block: write_block.max(1),
            read_block: read_block.max(1),
            max_file_bytes: max_file_bytes.max(1 << 20),
            written_total: 0,
            read_total: 0,
        })
    }

    /// Configured write block size.
    pub fn write_block(&self) -> u64 {
        self.write_block
    }

    /// Configured read block size.
    pub fn read_block(&self) -> u64 {
        self.read_block
    }

    /// Scratch file path (for tests and diagnostics).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Total bytes written over the atom's lifetime.
    pub fn written_total(&self) -> u64 {
        self.written_total
    }

    /// Total bytes read over the atom's lifetime.
    pub fn read_total(&self) -> u64 {
        self.read_total
    }

    /// Write `bytes` to the scratch file in write-block-sized calls.
    pub fn write(&mut self, bytes: u64) -> std::io::Result<AtomReport> {
        if bytes == 0 {
            return Ok(AtomReport::default());
        }
        let start = Instant::now();
        let block = self.write_block as usize;
        let buf = vec![0x5au8; block];
        let mut f = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(&self.path)?;
        let mut pos = f.metadata()?.len() % self.max_file_bytes;
        f.seek(SeekFrom::Start(pos))?;
        let mut remaining = bytes;
        let mut ops = 0u64;
        while remaining > 0 {
            let n = remaining.min(block as u64) as usize;
            f.write_all(&buf[..n])?;
            pos += n as u64;
            if pos >= self.max_file_bytes {
                f.seek(SeekFrom::Start(0))?;
                pos = 0;
            }
            ops += 1;
            remaining -= n as u64;
        }
        f.flush()?;
        self.written_total += bytes;
        Ok(AtomReport {
            cycles_consumed: 0,
            bytes_processed: bytes,
            operations: ops,
            elapsed: start.elapsed(),
        })
    }

    /// Read `bytes` from the scratch file in read-block-sized calls,
    /// wrapping to the start as needed. The file is grown first if it
    /// cannot satisfy a single wrap (reads before any write).
    pub fn read(&mut self, bytes: u64) -> std::io::Result<AtomReport> {
        if bytes == 0 {
            return Ok(AtomReport::default());
        }
        // Ensure there is something to read.
        let existing = std::fs::metadata(&self.path).map(|m| m.len()).unwrap_or(0);
        if existing < self.read_block {
            let grow = self.read_block.max(1 << 20).min(self.max_file_bytes);
            self.write(grow)?;
        }
        let start = Instant::now();
        let block = self.read_block as usize;
        let mut buf = vec![0u8; block];
        let mut f = File::open(&self.path)?;
        let mut remaining = bytes;
        let mut ops = 0u64;
        while remaining > 0 {
            let want = remaining.min(block as u64) as usize;
            let n = f.read(&mut buf[..want])?;
            if n == 0 {
                f.seek(SeekFrom::Start(0))?;
                continue;
            }
            ops += 1;
            remaining -= n as u64;
        }
        self.read_total += bytes;
        Ok(AtomReport {
            cycles_consumed: 0,
            bytes_processed: bytes,
            operations: ops,
            elapsed: start.elapsed(),
        })
    }

    /// One sample's worth of storage activity (reads then writes, both
    /// optional).
    pub fn consume(&mut self, bytes_read: u64, bytes_written: u64) -> std::io::Result<AtomReport> {
        let mut rep = self.read(bytes_read)?;
        rep.accumulate(&self.write(bytes_written)?);
        Ok(rep)
    }

    /// Remove the scratch file (end of emulation).
    pub fn cleanup(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

impl Drop for StorageAtom {
    fn drop(&mut self) {
        self.cleanup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("synapse-storage-test-{tag}"));
        let _ = std::fs::create_dir_all(&d);
        d
    }

    #[test]
    fn write_produces_bytes_and_ops() {
        let mut a = StorageAtom::with_config(dir("w"), 4096, 4096, 1 << 24).unwrap();
        let rep = a.write(10_000).unwrap();
        assert_eq!(rep.bytes_processed, 10_000);
        assert_eq!(rep.operations, 3); // 4096+4096+1808
        assert!(a.path().exists());
        assert_eq!(a.written_total(), 10_000);
    }

    #[test]
    fn read_streams_with_wraparound() {
        let mut a = StorageAtom::with_config(dir("r"), 1 << 16, 8192, 1 << 24).unwrap();
        a.write(20_000).unwrap();
        // Read more than the file holds: must wrap, not hang.
        let rep = a.read(100_000).unwrap();
        assert_eq!(rep.bytes_processed, 100_000);
        assert!(rep.operations >= 13);
    }

    #[test]
    fn read_before_write_materializes_data() {
        let mut a = StorageAtom::with_config(dir("rbw"), 4096, 4096, 1 << 24).unwrap();
        let rep = a.read(8192).unwrap();
        assert_eq!(rep.bytes_processed, 8192);
    }

    #[test]
    fn file_size_capped_by_wraparound() {
        let cap = 1 << 20;
        let mut a = StorageAtom::with_config(dir("cap"), 1 << 16, 1 << 16, cap).unwrap();
        a.write(5 * cap).unwrap();
        let size = std::fs::metadata(a.path()).unwrap().len();
        assert!(size <= cap, "file {size} exceeds cap {cap}");
        assert_eq!(a.written_total(), 5 * cap);
    }

    #[test]
    fn consume_combines_read_and_write() {
        let mut a = StorageAtom::new(dir("c")).unwrap();
        let rep = a.consume(4096, 8192).unwrap();
        assert_eq!(rep.bytes_processed, 4096 + 8192);
        assert_eq!(a.read_total(), 4096);
        assert_eq!(a.written_total(), 8192 + a.read_block().max(1 << 20));
    }

    #[test]
    fn zero_requests_are_noops() {
        let mut a = StorageAtom::new(dir("z")).unwrap();
        let rep = a.consume(0, 0).unwrap();
        assert_eq!(rep.bytes_processed, 0);
        assert_eq!(rep.operations, 0);
    }

    #[test]
    fn smaller_blocks_mean_more_operations() {
        let mut small = StorageAtom::with_config(dir("bs1"), 1024, 1024, 1 << 24).unwrap();
        let mut large = StorageAtom::with_config(dir("bs2"), 1 << 20, 1 << 20, 1 << 24).unwrap();
        let bytes = 1 << 20;
        let rs = small.write(bytes).unwrap();
        let rl = large.write(bytes).unwrap();
        assert_eq!(rs.operations, 1024);
        assert_eq!(rl.operations, 1);
    }

    #[test]
    fn two_atoms_in_one_dir_keep_separate_scratch_files() {
        let d = dir("pair");
        let barrier = std::sync::Barrier::new(2);
        let emulate = |bytes: u64, cleans_up: bool| {
            let (d, barrier) = (&d, &barrier);
            move || {
                let mut a = StorageAtom::with_config(d, 4096, 4096, 1 << 24).unwrap();
                a.write(bytes).unwrap();
                barrier.wait(); // both have written
                assert_eq!(std::fs::metadata(a.path()).unwrap().len(), bytes);
                if cleans_up {
                    a.cleanup();
                }
                barrier.wait(); // one has cleaned up
                if !cleans_up {
                    assert_eq!(a.read(3 * bytes).unwrap().bytes_processed, 3 * bytes);
                    // The file was still there: read() did not have
                    // to re-materialize it.
                    assert_eq!(a.written_total(), bytes);
                }
            }
        };
        std::thread::scope(|s| {
            s.spawn(emulate(10_000, true));
            s.spawn(emulate(30_000, false));
        });
    }

    #[test]
    fn cleanup_removes_scratch() {
        let mut a = StorageAtom::new(dir("clean")).unwrap();
        a.write(1024).unwrap();
        let p = a.path().to_path_buf();
        a.cleanup();
        assert!(!p.exists());
    }
}
