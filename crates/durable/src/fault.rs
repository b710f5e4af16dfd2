//! Deterministic storage-fault injection.
//!
//! Seeded, replayable decisions keyed by operation index. Every fault
//! decision is a pure function of `(seed, fault-class salt, per-class op
//! counter)` through a SplitMix64 finalizer, so a failing storage schedule
//! replays bit-for-bit from its seed — no RNG state is shared between fault
//! classes, and adding a new class never perturbs existing draws.
//!
//! Supported fault classes:
//!
//! * **failed fsync** — `sync` returns an error; a seeded *prefix* of the
//!   pending bytes still reached the platter (a torn write), the rest is
//!   lost. This is the nastiest real-world fsync semantic: the caller must
//!   treat the tail of the file as garbage.
//! * **failed rename** — the atomic-publish rename step errors; the temp
//!   file may survive as debris.
//! * **torn tail on kill** — on process kill, un-fsynced bytes are torn at
//!   a seeded offset (and possibly bit-flipped) instead of cleanly dropped.
//! * **short read** — a read returns a seeded prefix of the file.
//! * **bit flip on read** — media corruption: one seeded bit of the read
//!   image is inverted.

/// Per-class fault probabilities, each in `[0, 1]` (clamped on use).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageFaults {
    /// Probability a `sync` call fails, leaving a torn durable prefix.
    pub p_fail_fsync: f64,
    /// Probability the rename step of an atomic write fails.
    pub p_fail_rename: f64,
    /// Probability un-fsynced bytes are torn (vs. cleanly dropped) on kill.
    pub p_torn_tail: f64,
    /// Probability a read is truncated to a seeded prefix.
    pub p_short_read: f64,
    /// Probability one bit of a read image is flipped.
    pub p_bit_flip: f64,
}

impl StorageFaults {
    /// No faults: every storage op succeeds, kills drop pending bytes cleanly.
    pub fn none() -> Self {
        StorageFaults {
            p_fail_fsync: 0.0,
            p_fail_rename: 0.0,
            p_torn_tail: 0.0,
            p_short_read: 0.0,
            p_bit_flip: 0.0,
        }
    }

    /// Write-side faults only (failed fsync/rename, torn tails on kill).
    /// These preserve the durability invariant — recovery must still be
    /// oracle-exact — unlike read corruption, which destroys data.
    pub fn write_side(p: f64) -> Self {
        StorageFaults {
            p_fail_fsync: p,
            p_fail_rename: p,
            p_torn_tail: p.max(0.5),
            p_short_read: 0.0,
            p_bit_flip: 0.0,
        }
    }
}

impl Default for StorageFaults {
    fn default() -> Self {
        StorageFaults::none()
    }
}

/// Distinct salt per fault class; draws for one class never shift another's.
const SALT_FSYNC: u64 = 0xF5;
const SALT_RENAME: u64 = 0x4E;
const SALT_KILL: u64 = 0xC4;
const SALT_READ: u64 = 0x2D;

/// What (if anything) to do to a read image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadTamper {
    /// Return the bytes as stored.
    None,
    /// Truncate the image to this many bytes.
    Short(usize),
    /// Invert this bit index (over the whole image).
    FlipBit(usize),
}

/// Seeded, deterministic storage-fault schedule.
///
/// Each fault class keeps its own op counter; the n-th decision of a class
/// is `finalize(seed ^ salt, n)` and nothing else, so schedules are stable
/// under refactors that reorder unrelated storage traffic.
#[derive(Debug, Clone)]
pub struct StorageFaultPlan {
    seed: u64,
    faults: StorageFaults,
    fsync_idx: u64,
    rename_idx: u64,
    kill_idx: u64,
    read_idx: u64,
}

/// SplitMix64 finalizer — same mixing constants as the serve workload
/// generator and the runtime fault plan.
fn finalize(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl StorageFaultPlan {
    /// Builds a plan from a seed and per-class probabilities.
    pub fn new(seed: u64, faults: StorageFaults) -> Self {
        StorageFaultPlan {
            seed,
            faults,
            fsync_idx: 0,
            rename_idx: 0,
            kill_idx: 0,
            read_idx: 0,
        }
    }

    /// The plan's seed (for reporting a failing schedule).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn draw(&self, salt: u64, idx: u64, lane: u64) -> u64 {
        finalize(
            self.seed
                ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ idx.wrapping_mul(0x100_0193)
                ^ lane.wrapping_mul(0x1_0001),
        )
    }

    fn unit(&self, salt: u64, idx: u64, lane: u64) -> f64 {
        (self.draw(salt, idx, lane) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Decides whether the next `sync` call fails. On failure, a seeded
    /// **strict** prefix of `pending_len` bytes is still durable: returns
    /// `Some(kept_prefix_len)` with `kept < pending_len` — a failed fsync
    /// loses at least one byte, it never silently persists everything (if
    /// every byte reached the platter the sync did not fail). `None` means
    /// the sync succeeds.
    pub fn fsync_failure(&mut self, pending_len: usize) -> Option<usize> {
        let idx = self.fsync_idx;
        self.fsync_idx += 1;
        if self.unit(SALT_FSYNC, idx, 0) < self.faults.p_fail_fsync.clamp(0.0, 1.0) {
            let keep = if pending_len == 0 {
                0
            } else {
                (self.draw(SALT_FSYNC, idx, 1) % pending_len as u64) as usize
            };
            Some(keep)
        } else {
            None
        }
    }

    /// Decides whether the next rename (atomic publish) fails.
    pub fn rename_fails(&mut self) -> bool {
        let idx = self.rename_idx;
        self.rename_idx += 1;
        self.unit(SALT_RENAME, idx, 0) < self.faults.p_fail_rename.clamp(0.0, 1.0)
    }

    /// Decides what happens to one file's un-fsynced bytes on kill:
    /// `(kept_prefix_len, bit_to_flip_in_kept_prefix)`. A clean drop is
    /// `(0, None)`; a torn tail keeps a seeded prefix and may flip one bit
    /// inside it (the classic torn-sector corruption).
    pub fn tear(&mut self, pending_len: usize) -> (usize, Option<usize>) {
        let idx = self.kill_idx;
        self.kill_idx += 1;
        if pending_len == 0
            || self.unit(SALT_KILL, idx, 0) >= self.faults.p_torn_tail.clamp(0.0, 1.0)
        {
            return (0, None);
        }
        let keep = (self.draw(SALT_KILL, idx, 1) % (pending_len as u64 + 1)) as usize;
        if keep == 0 {
            return (0, None);
        }
        // Half of torn tails also corrupt a bit inside the kept prefix.
        let flip = if self.unit(SALT_KILL, idx, 2) < 0.5 {
            Some((self.draw(SALT_KILL, idx, 3) % (keep as u64 * 8)) as usize)
        } else {
            None
        };
        (keep, flip)
    }

    /// Decides whether (and how) the next read image is tampered with.
    pub fn read_tamper(&mut self, len: usize) -> ReadTamper {
        let idx = self.read_idx;
        self.read_idx += 1;
        if len == 0 {
            return ReadTamper::None;
        }
        let roll = self.unit(SALT_READ, idx, 0);
        let p_short = self.faults.p_short_read.clamp(0.0, 1.0);
        let p_flip = self.faults.p_bit_flip.clamp(0.0, 1.0);
        if roll < p_short {
            ReadTamper::Short((self.draw(SALT_READ, idx, 1) % len as u64) as usize)
        } else if roll < p_short + p_flip {
            ReadTamper::FlipBit((self.draw(SALT_READ, idx, 2) % (len as u64 * 8)) as usize)
        } else {
            ReadTamper::None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let faults = StorageFaults {
            p_fail_fsync: 0.5,
            p_fail_rename: 0.5,
            p_torn_tail: 0.5,
            p_short_read: 0.3,
            p_bit_flip: 0.3,
        };
        let mut a = StorageFaultPlan::new(42, faults);
        let mut b = StorageFaultPlan::new(42, faults);
        for len in [0usize, 1, 100, 4096] {
            assert_eq!(a.fsync_failure(len), b.fsync_failure(len));
            assert_eq!(a.rename_fails(), b.rename_fails());
            assert_eq!(a.tear(len), b.tear(len));
            assert_eq!(a.read_tamper(len), b.read_tamper(len));
        }
    }

    #[test]
    fn zero_probabilities_never_fault() {
        let mut p = StorageFaultPlan::new(7, StorageFaults::none());
        for _ in 0..64 {
            assert_eq!(p.fsync_failure(128), None);
            assert!(!p.rename_fails());
            assert_eq!(p.tear(128), (0, None));
            assert_eq!(p.read_tamper(128), ReadTamper::None);
        }
    }

    #[test]
    fn probabilities_bite_eventually() {
        let mut p = StorageFaultPlan::new(9, StorageFaults::write_side(0.5));
        let mut fsync_failures = 0;
        let mut torn = 0;
        for _ in 0..64 {
            if p.fsync_failure(256).is_some() {
                fsync_failures += 1;
            }
            if p.tear(256).0 > 0 {
                torn += 1;
            }
        }
        assert!(fsync_failures > 8, "fsync failures: {fsync_failures}");
        assert!(torn > 8, "torn tails: {torn}");
    }

    #[test]
    fn tear_respects_pending_len() {
        let mut p = StorageFaultPlan::new(3, StorageFaults::write_side(1.0));
        for len in [1usize, 2, 17, 333] {
            let (keep, flip) = p.tear(len);
            assert!(keep <= len);
            if let Some(bit) = flip {
                assert!(bit < keep * 8);
            }
        }
        assert_eq!(p.tear(0), (0, None));
    }
}
