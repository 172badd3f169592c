//! An in-memory [`Fs`] that crashes at one seeded mutating step.
//!
//! A [`Disk`] is the durable state that every process of one test
//! shares; a [`FakeFs`] is one process's view of it. Only mutating
//! calls — a write, a rename, a removal, a lock release — count as
//! steps, so the order in which a parallel loader reads cannot move a
//! seed. At the crash step the acting process dies: a write lands torn
//! (a seeded prefix), a rename or removal lands or not (the seed
//! picks), and every later call of that process fails. Each rename
//! gives the file a fresh inode, and every mtime is one coarse tick, so
//! only the inode tells two equal-length manifests apart.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use super::{Fs, Lock, Stamp};

/// Files by path, with inode and contents, and what was done to them.
#[derive(Default)]
pub(crate) struct Disk {
    pub(crate) files: BTreeMap<PathBuf, (u64, String)>,
    /// Inodes handed out.
    pub(crate) inodes: u64,
    /// Mutating steps taken, by every process.
    pub(crate) steps: u64,
    /// Files read, by every process.
    pub(crate) reads: u64,
    /// The step that crashes, and the seed that shapes the crash.
    pub(crate) crash: Option<(u64, u64)>,
    /// One line per mutating step.
    pub(crate) log: Vec<String>,
}

impl Disk {
    /// Put a file in place under a fresh inode, as a rename does.
    pub(crate) fn put(&mut self, path: &Path, text: String) {
        self.inodes += 1;
        self.files.insert(path.to_path_buf(), (self.inodes, text));
    }
}

/// One process over a shared [`Disk`].
#[derive(Clone)]
pub(crate) struct FakeFs {
    disk: Arc<Mutex<Disk>>,
    dead: Arc<AtomicBool>,
}

fn crashed() -> io::Error {
    io::Error::other("the process crashed")
}

impl FakeFs {
    /// A new process over `disk`.
    pub(crate) fn new(disk: &Arc<Mutex<Disk>>) -> Arc<FakeFs> {
        Arc::new(FakeFs {
            disk: Arc::clone(disk),
            dead: Arc::default(),
        })
    }

    /// Whether this process crashed.
    pub(crate) fn dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    fn disk(&self) -> io::Result<MutexGuard<'_, Disk>> {
        if self.dead() {
            return Err(crashed());
        }
        Ok(self.disk.lock().expect("fake disk lock"))
    }

    /// Take one mutating step; `apply` gets the crash seed if the step
    /// crashes, and then the process dies.
    fn step(&self, what: String, apply: impl FnOnce(&mut Disk, Option<u64>)) -> io::Result<()> {
        let mut disk = self.disk()?;
        let crash = disk.crash.filter(|c| c.0 == disk.steps).map(|c| c.1);
        disk.steps += 1;
        disk.log.push(format!(
            "{what}{}",
            if crash.is_some() { "  <- crash" } else { "" }
        ));
        apply(&mut disk, crash);
        if crash.is_some() {
            self.dead.store(true, Ordering::SeqCst);
            return Err(crashed());
        }
        Ok(())
    }

    /// Take `path` away (a rename's source, a removal) unless the step
    /// crashes before it does, and hand its text to `then`.
    fn take(
        &self,
        what: String,
        path: &Path,
        then: impl FnOnce(&mut Disk, String),
    ) -> io::Result<()> {
        if !self.disk()?.files.contains_key(path) {
            return Err(io::ErrorKind::NotFound.into());
        }
        self.step(what, |disk, crash| {
            if crash.is_none_or(|seed| seed % 2 == 1) {
                let (_, text) = disk.files.remove(path).expect("checked above");
                then(disk, text);
            }
        })
    }
}

impl Fs for FakeFs {
    fn read(&self, path: &Path) -> io::Result<String> {
        let mut disk = self.disk()?;
        disk.reads += 1;
        let file = disk.files.get(path).ok_or(io::ErrorKind::NotFound)?;
        Ok(file.1.clone())
    }

    fn write(&self, path: &Path, contents: &str) -> io::Result<()> {
        self.step(format!("write {}", path.display()), |disk, crash| {
            let torn = crash.map_or(contents.len(), |seed| seed as usize % (contents.len() + 1));
            let keep = (0..=torn).rev().find(|&at| contents.is_char_boundary(at));
            let text = contents[..keep.unwrap_or(0)].to_string();
            match disk.files.get_mut(path) {
                Some(file) => file.1 = text,
                None => disk.put(path, text),
            }
        })
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let what = format!("rename {} -> {}", from.display(), to.display());
        self.take(what, from, |disk, text| disk.put(to, text))
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.take(format!("remove {}", path.display()), path, |_, _| {})
    }

    fn create_dir_all(&self, _: &Path) -> io::Result<()> {
        self.disk().map(drop)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let disk = self.disk()?;
        let names = disk.files.keys().filter(|path| path.parent() == Some(dir));
        Ok(names
            .filter_map(|path| Some(path.file_name()?.to_str()?.to_string()))
            .collect())
    }

    fn stamp(&self, path: &Path) -> Option<Stamp> {
        let disk = self.disk().ok()?;
        let (ino, text) = disk.files.get(path)?;
        Some((*ino, std::time::UNIX_EPOCH, text.len() as u64))
    }

    fn lock(&self, path: &Path) -> io::Result<(Lock, bool)> {
        drop(self.disk()?);
        Ok((Box::new(Held(self.clone(), path.to_path_buf())), false))
    }
}

/// A held fake lock: its release is a mutating step.
struct Held(FakeFs, PathBuf);

impl Drop for Held {
    fn drop(&mut self) {
        let _ = self
            .0
            .step(format!("unlock {}", self.1.display()), |_, _| {});
    }
}
