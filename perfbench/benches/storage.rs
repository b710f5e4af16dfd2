//! A timing decorator over [`aa_durable::Storage`].
//!
//! Installed only in the traced pass: it counts and times every storage
//! call the server and recovery make, and — through the shared [`Trace`] —
//! records each as a child span of whatever harness span is open, which is
//! how `durable.sync` ends up under `serve.turn`. With tracing off the
//! server gets the bare `DiskStorage`.

use crate::trace::Trace;
use aa_durable::Storage;
use std::cell::RefCell;
use std::io;
use std::rc::Rc;
use std::time::Instant;

/// Calls, seconds and bytes of one storage operation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpStats {
    pub calls: u64,
    pub seconds: f64,
    pub bytes: u64,
}

/// What passed through a [`TimedStorage`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StorageStats {
    pub append: OpStats,
    pub sync: OpStats,
    /// Atomic writes (temp file + fsync + rename): checkpoints and the
    /// header of every new WAL segment.
    pub write_atomic: OpStats,
    /// The checkpoint images among them.
    pub checkpoint: OpStats,
    pub read: OpStats,
}

/// The decorator. The stats handle outlives the server that owns the box.
pub struct TimedStorage<S: Storage> {
    inner: S,
    trace: Trace,
    stats: Rc<RefCell<StorageStats>>,
}

impl<S: Storage> TimedStorage<S> {
    pub fn new(inner: S, trace: Trace) -> (Self, Rc<RefCell<StorageStats>>) {
        let stats = Rc::new(RefCell::new(StorageStats::default()));
        let timed = TimedStorage {
            inner,
            trace,
            stats: Rc::clone(&stats),
        };
        (timed, stats)
    }

    fn timed<T>(
        &mut self,
        name: &'static str,
        bytes: usize,
        pick: fn(&mut StorageStats) -> &mut OpStats,
        call: impl FnOnce(&mut S) -> io::Result<T>,
    ) -> io::Result<T> {
        let inner = &mut self.inner;
        let t0 = Instant::now();
        let out = self.trace.span(name, || call(inner));
        let mut stats = self.stats.borrow_mut();
        let op = pick(&mut stats);
        op.calls += 1;
        op.seconds += t0.elapsed().as_secs_f64();
        op.bytes += bytes as u64;
        out
    }
}

impl<S: Storage> Storage for TimedStorage<S> {
    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }

    fn read(&mut self, name: &str) -> io::Result<Vec<u8>> {
        let out = self.timed("durable.read", 0, |s| &mut s.read, |i| i.read(name));
        if let Ok(bytes) = &out {
            self.stats.borrow_mut().read.bytes += bytes.len() as u64;
        }
        out
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.timed(
            "durable.append",
            bytes.len(),
            |s| &mut s.append,
            |i| i.append(name, bytes),
        )
    }

    fn sync(&mut self, name: &str) -> io::Result<()> {
        self.timed("durable.sync", 0, |s| &mut s.sync, |i| i.sync(name))
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let t0 = Instant::now();
        let out = self.timed(
            "durable.write_atomic",
            bytes.len(),
            |s| &mut s.write_atomic,
            |i| i.write_atomic(name, bytes),
        );
        if aa_durable::store::parse_checkpoint_name(name).is_some() {
            let mut stats = self.stats.borrow_mut();
            stats.checkpoint.calls += 1;
            stats.checkpoint.seconds += t0.elapsed().as_secs_f64();
            stats.checkpoint.bytes += bytes.len() as u64;
        }
        out
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        self.inner.remove(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aa_durable::SimStorage;

    #[test]
    fn counts_bytes_and_nests_under_the_open_span() {
        let trace = Trace::on();
        let (mut s, stats) = TimedStorage::new(SimStorage::new(), trace.clone());
        trace.span("serve.turn", || {
            s.append("wal", b"abcd").unwrap();
            s.append("wal", b"ef").unwrap();
            s.sync("wal").unwrap();
        });
        s.write_atomic("ckpt", &[0u8; 100]).unwrap();
        s.write_atomic(&aa_durable::store::checkpoint_name(7), &[0u8; 50])
            .unwrap();
        assert_eq!(s.read("wal").unwrap(), b"abcdef");
        let st = *stats.borrow();
        assert_eq!((st.append.calls, st.append.bytes), (2, 6));
        assert_eq!(st.sync.calls, 1);
        assert_eq!((st.write_atomic.calls, st.write_atomic.bytes), (2, 150));
        assert_eq!((st.checkpoint.calls, st.checkpoint.bytes), (1, 50));
        assert_eq!((st.read.calls, st.read.bytes), (1, 6));
        let spans = trace.since(0);
        let turn = spans.iter().find(|s| s.name == "serve.turn").unwrap().id;
        let under_turn = spans.iter().filter(|s| s.parent == turn).count();
        assert_eq!(under_turn, 3, "two appends and a sync sit under the turn");
        let outside = spans.iter().filter(|s| s.name == "durable.write_atomic");
        assert!(outside.clone().count() == 2 && outside.into_iter().all(|s| s.parent == 0));
    }
}
