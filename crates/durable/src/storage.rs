//! Storage abstraction: a real directory-backed store and a deterministic
//! in-memory simulation with kill-at-any-point semantics.
//!
//! The durability layer never touches the filesystem directly; everything
//! goes through the [`Storage`] trait so the same WAL/checkpoint/recovery
//! code runs against [`DiskStorage`] in production and [`SimStorage`] in
//! tests. `SimStorage` models the property that makes crash consistency
//! hard: bytes written but not yet fsynced live in a *pending* buffer that
//! a [`SimStorage::kill`] destroys — cleanly, or torn at a seeded offset
//! when a [`StorageFaultPlan`](crate::fault::StorageFaultPlan) says so.

use crate::fault::{ReadTamper, StorageFaultPlan};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::rc::Rc;

/// Flat namespace of named byte files with explicit durability boundaries.
///
/// `append` buffers bytes that only become crash-safe after `sync` returns
/// `Ok`; `write_atomic` publishes a complete file all-or-nothing (temp +
/// fsync + rename). Names are flat (no path separators).
pub trait Storage {
    /// All file names present, sorted ascending.
    fn list(&self) -> io::Result<Vec<String>>;
    /// Full current contents of a file (durable plus still-pending bytes).
    fn read(&mut self, name: &str) -> io::Result<Vec<u8>>;
    /// Appends bytes to a file, creating it if absent. Not durable until
    /// the next successful `sync` of the same file.
    fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<()>;
    /// Makes all previously appended bytes of `name` crash-safe.
    fn sync(&mut self, name: &str) -> io::Result<()>;
    /// Atomically replaces `name` with `bytes`: on return the file holds
    /// either its old contents or exactly `bytes`, never a mix.
    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> io::Result<()>;
    /// Removes a file; absent files are not an error (compaction retries).
    fn remove(&mut self, name: &str) -> io::Result<()>;
}

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// fsync, rename over the target, best-effort directory fsync. A crash at
/// any point leaves either the old file or the new one, never a torn mix.
/// Shared by the checkpoint writer and the CLI's JSON artifact exports.
#[expect(
    clippy::disallowed_methods,
    reason = "the atomic-replace primitive itself — the temp file is synced before the rename makes it visible, so a crash leaves the old file or the new one"
)]
pub fn atomic_write_file(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // Persist the rename itself; failure here is not data loss (the rename
    // is already visible), so it is deliberately best-effort.
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// [`Storage`] over a real directory. Each name is one file under `root`.
#[derive(Debug)]
pub struct DiskStorage {
    root: PathBuf,
}

impl DiskStorage {
    /// Opens (creating if needed) the directory backing the store.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(DiskStorage { root })
    }

    /// The backing directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl Storage for DiskStorage {
    fn list(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                if let Some(name) = entry.file_name().to_str() {
                    names.push(name.to_string());
                }
            }
        }
        names.sort();
        Ok(names)
    }

    fn read(&mut self, name: &str) -> io::Result<Vec<u8>> {
        fs::read(self.path(name))
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        #[expect(
            clippy::disallowed_methods,
            reason = "the WAL append path itself — durability comes from the explicit sync() group-commit marker that follows a batch, not from atomic replace"
        )]
        let mut f = OpenOptions::new()
            .append(true)
            .create(true)
            .open(self.path(name))?;
        f.write_all(bytes)
    }

    fn sync(&mut self, name: &str) -> io::Result<()> {
        File::open(self.path(name))?.sync_all()
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        atomic_write_file(&self.path(name), bytes)
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        match fs::remove_file(self.path(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }
}

/// Counters describing what the simulated store has seen and injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// `append` calls.
    pub appends: u64,
    /// `sync` calls that succeeded.
    pub fsyncs: u64,
    /// `sync` calls failed by the fault plan (torn durable prefix).
    pub fsync_failures: u64,
    /// Atomic writes that published successfully.
    pub renames: u64,
    /// Atomic writes failed at the rename step (temp debris left behind).
    pub rename_failures: u64,
    /// `read` calls.
    pub reads: u64,
    /// Reads truncated by the fault plan.
    pub short_reads: u64,
    /// Reads with a bit flipped by the fault plan.
    pub flipped_reads: u64,
    /// `kill` invocations.
    pub kills: u64,
    /// Un-fsynced bytes destroyed across all kills.
    pub bytes_lost: u64,
    /// Bytes of torn (partially surviving) tails across all kills.
    pub bytes_torn: u64,
}

#[derive(Debug, Default, Clone)]
struct SimFile {
    /// Crash-safe bytes: survive `kill` intact.
    durable: Vec<u8>,
    /// Appended but not yet fsynced: destroyed (or torn) by `kill`.
    pending: Vec<u8>,
}

#[derive(Debug, Default)]
struct SimInner {
    files: BTreeMap<String, SimFile>,
    plan: Option<StorageFaultPlan>,
    stats: SimStats,
}

/// Deterministic in-memory [`Storage`] with kill-at-any-point semantics.
///
/// Cloning yields another handle to the same store, so a test can keep one
/// handle to call [`SimStorage::kill`]/[`SimStorage::stats`] while the
/// durability layer owns the other.
#[derive(Debug, Clone, Default)]
pub struct SimStorage {
    inner: Rc<RefCell<SimInner>>,
}

impl SimStorage {
    /// Fault-free simulated store: fsyncs succeed, kills drop pending bytes
    /// cleanly.
    pub fn new() -> Self {
        SimStorage::default()
    }

    /// Simulated store with a seeded fault schedule.
    pub fn with_faults(plan: StorageFaultPlan) -> Self {
        let s = SimStorage::default();
        s.inner.borrow_mut().plan = Some(plan);
        s
    }

    /// Simulates `kill -9`: every file keeps its durable bytes; pending
    /// bytes are destroyed — cleanly, or (per the fault plan) torn at a
    /// seeded offset with a possible bit flip inside the surviving prefix.
    pub fn kill(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.stats.kills += 1;
        // Split the borrow: decide tears with the plan, then apply.
        let mut tears: Vec<(String, usize, Option<usize>)> = Vec::new();
        for (name, file) in inner.files.iter() {
            if file.pending.is_empty() {
                continue;
            }
            tears.push((name.clone(), file.pending.len(), None));
        }
        for t in tears.iter_mut() {
            let (keep, flip) = match inner.plan.as_mut() {
                Some(plan) => plan.tear(t.1),
                None => (0, None),
            };
            t.2 = flip;
            t.1 = keep;
        }
        for (name, keep, flip) in tears {
            if let Some(file) = inner.files.get_mut(&name) {
                let pending = std::mem::take(&mut file.pending);
                let lost = pending.len() - keep;
                if keep > 0 {
                    file.durable.extend_from_slice(&pending[..keep]);
                    if let Some(bit) = flip {
                        let pos = file.durable.len() - keep + bit / 8;
                        file.durable[pos] ^= 1 << (bit % 8);
                    }
                }
                inner.stats.bytes_torn += keep as u64;
                inner.stats.bytes_lost += lost as u64;
            }
        }
    }

    /// Snapshot of the injection/traffic counters.
    pub fn stats(&self) -> SimStats {
        self.inner.borrow().stats
    }

    /// Durable length of a file, if present (test introspection).
    pub fn durable_len(&self, name: &str) -> Option<usize> {
        self.inner.borrow().files.get(name).map(|f| f.durable.len())
    }

    /// Flips one bit of a file's durable image (media-corruption tests).
    pub fn flip_durable_bit(&self, name: &str, bit: usize) -> bool {
        let mut inner = self.inner.borrow_mut();
        match inner.files.get_mut(name) {
            Some(f) if bit / 8 < f.durable.len() => {
                f.durable[bit / 8] ^= 1 << (bit % 8);
                true
            }
            _ => false,
        }
    }

    /// Truncates a file's durable image (manual torn-tail tests).
    pub fn truncate_durable(&self, name: &str, len: usize) -> bool {
        let mut inner = self.inner.borrow_mut();
        match inner.files.get_mut(name) {
            Some(f) if len <= f.durable.len() => {
                f.durable.truncate(len);
                f.pending.clear();
                true
            }
            _ => false,
        }
    }
}

fn injected(kind: &str) -> io::Error {
    io::Error::other(format!("injected {kind} failure"))
}

impl Storage for SimStorage {
    fn list(&self) -> io::Result<Vec<String>> {
        Ok(self.inner.borrow().files.keys().cloned().collect())
    }

    fn read(&mut self, name: &str) -> io::Result<Vec<u8>> {
        let mut inner = self.inner.borrow_mut();
        inner.stats.reads += 1;
        let mut image = match inner.files.get(name) {
            Some(f) => {
                let mut v = f.durable.clone();
                v.extend_from_slice(&f.pending);
                v
            }
            None => {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("no such file: {name}"),
                ))
            }
        };
        let tamper = match inner.plan.as_mut() {
            Some(plan) => plan.read_tamper(image.len()),
            None => ReadTamper::None,
        };
        match tamper {
            ReadTamper::None => {}
            ReadTamper::Short(at) => {
                image.truncate(at);
                inner.stats.short_reads += 1;
            }
            ReadTamper::FlipBit(bit) => {
                image[bit / 8] ^= 1 << (bit % 8);
                inner.stats.flipped_reads += 1;
            }
        }
        Ok(image)
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let mut inner = self.inner.borrow_mut();
        inner.stats.appends += 1;
        inner
            .files
            .entry(name.to_string())
            .or_default()
            .pending
            .extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self, name: &str) -> io::Result<()> {
        let mut inner = self.inner.borrow_mut();
        let pending_len = inner.files.get(name).map_or(0, |f| f.pending.len());
        let failure = match inner.plan.as_mut() {
            Some(plan) => plan.fsync_failure(pending_len),
            None => None,
        };
        match failure {
            Some(keep) => {
                // Torn write: a prefix reached the platter, the rest is gone,
                // and the caller gets an error — it must not trust the tail.
                if let Some(f) = inner.files.get_mut(name) {
                    let pending = std::mem::take(&mut f.pending);
                    f.durable.extend_from_slice(&pending[..keep]);
                    inner.stats.bytes_torn += keep as u64;
                    inner.stats.bytes_lost += (pending.len() - keep) as u64;
                }
                inner.stats.fsync_failures += 1;
                Err(injected("fsync"))
            }
            None => {
                if let Some(f) = inner.files.get_mut(name) {
                    let pending = std::mem::take(&mut f.pending);
                    f.durable.extend_from_slice(&pending);
                }
                inner.stats.fsyncs += 1;
                Ok(())
            }
        }
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let mut inner = self.inner.borrow_mut();
        let fails = match inner.plan.as_mut() {
            Some(plan) => plan.rename_fails(),
            None => false,
        };
        if fails {
            // The temp file survives as debris; the target is untouched.
            inner.stats.rename_failures += 1;
            inner.files.insert(
                format!("{name}.tmp"),
                SimFile {
                    durable: bytes.to_vec(),
                    pending: Vec::new(),
                },
            );
            return Err(injected("rename"));
        }
        inner.stats.renames += 1;
        inner.files.remove(&format!("{name}.tmp"));
        inner.files.insert(
            name.to_string(),
            SimFile {
                durable: bytes.to_vec(),
                pending: Vec::new(),
            },
        );
        Ok(())
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        self.inner.borrow_mut().files.remove(name);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::StorageFaults;

    #[test]
    fn sim_kill_drops_pending_keeps_durable() {
        let sim = SimStorage::new();
        let mut s = sim.clone();
        s.append("f", b"durable").ok();
        s.sync("f").ok();
        s.append("f", b"-pending").ok();
        assert_eq!(s.read("f").ok().as_deref(), Some(&b"durable-pending"[..]));
        sim.kill();
        assert_eq!(s.read("f").ok().as_deref(), Some(&b"durable"[..]));
        assert_eq!(sim.stats().bytes_lost, 8);
    }

    #[test]
    fn sim_atomic_write_is_all_or_nothing() {
        let sim = SimStorage::new();
        let mut s = sim.clone();
        s.write_atomic("a", b"v1").ok();
        s.write_atomic("a", b"v2").ok();
        assert_eq!(s.read("a").ok().as_deref(), Some(&b"v2"[..]));
        sim.kill();
        assert_eq!(s.read("a").ok().as_deref(), Some(&b"v2"[..]));
    }

    #[test]
    fn sim_injected_rename_failure_leaves_old_value_and_debris() {
        let plan = StorageFaultPlan::new(
            11,
            StorageFaults {
                p_fail_rename: 1.0,
                ..StorageFaults::none()
            },
        );
        let sim = SimStorage::with_faults(plan);
        let mut s = sim.clone();
        // Seed an old value without going through the faulty rename path.
        s.append("a", b"old").ok();
        s.sync("a").ok();
        assert!(s.write_atomic("a", b"new").is_err());
        assert_eq!(s.read("a").ok().as_deref(), Some(&b"old"[..]));
        assert!(s.list().ok().iter().flatten().any(|n| n == "a.tmp"));
        assert_eq!(sim.stats().rename_failures, 1);
    }

    #[test]
    fn sim_injected_fsync_failure_tears_the_tail() {
        let plan = StorageFaultPlan::new(
            5,
            StorageFaults {
                p_fail_fsync: 1.0,
                ..StorageFaults::none()
            },
        );
        let sim = SimStorage::with_faults(plan);
        let mut s = sim.clone();
        s.append("w", &[0xAB; 100]).ok();
        assert!(s.sync("w").is_err());
        let n = sim.durable_len("w").unwrap_or(usize::MAX);
        assert!(n <= 100, "durable prefix only, got {n}");
        // Pending is gone either way: a retry cannot resurrect the lost bytes.
        s.append("w", &[0xCD; 4]).ok();
        sim.kill();
        assert!(sim.durable_len("w").unwrap_or(0) >= n);
    }

    #[test]
    fn disk_storage_round_trips() {
        let dir = std::env::temp_dir().join(format!("aa-durable-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut s = match DiskStorage::open(&dir) {
            Ok(s) => s,
            Err(e) => panic!("open: {e}"),
        };
        s.append("seg", b"hello ").ok();
        s.append("seg", b"world").ok();
        s.sync("seg").ok();
        s.write_atomic("ckpt", b"state").ok();
        assert_eq!(s.read("seg").ok().as_deref(), Some(&b"hello world"[..]));
        assert_eq!(s.read("ckpt").ok().as_deref(), Some(&b"state"[..]));
        let names = s.list().unwrap_or_default();
        assert_eq!(names, vec!["ckpt".to_string(), "seg".to_string()]);
        s.remove("seg").ok();
        s.remove("seg").ok(); // idempotent
        let _ = fs::remove_dir_all(&dir);
    }
}
