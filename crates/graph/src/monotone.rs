//! The queue [`crate::search`] pops from: a radix heap.
//!
//! A Dijkstra never pushes a key below the one it popped last, and for such a
//! *monotone* sequence a key needs no finer place than "the highest bit in
//! which it differs from the last pop": bucket 0 holds the keys equal to it,
//! bucket `i` those that first differ in bit `i − 1`. A push is one XOR and
//! one `Vec::push`; a pop that finds bucket 0 empty takes the lowest
//! non-empty bucket, makes its minimum the new reference key and deals the
//! bucket's entries out again — every one of them into a lower bucket, since
//! they all agree with the new minimum above the bit that put them there. An
//! entry moves at most 32 times over its life, whatever the weights are: one
//! code path for unit weights and for 10⁶.

use crate::VertexId;

/// Buckets of a queue over `u32` keys: "equal" plus one per bit.
const BUCKETS: usize = u32::BITS as usize + 1;

/// A monotone min-queue of `(key, vertex)` pairs. Entries with equal keys pop
/// in no particular order.
#[derive(Debug, Clone)]
pub(crate) struct MonotoneQueue {
    buckets: [Vec<(u32, VertexId)>; BUCKETS],
    /// Bit `i` is set iff bucket `i` is non-empty.
    occupied: u64,
    /// The key popped last (0 before the first pop).
    last: u32,
}

impl Default for MonotoneQueue {
    fn default() -> Self {
        MonotoneQueue {
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            last: 0,
        }
    }
}

impl MonotoneQueue {
    /// The bucket of `key` relative to `last`.
    fn bucket_of(key: u32, last: u32) -> usize {
        (u32::BITS - (key ^ last).leading_zeros()) as usize
    }

    /// Adds an entry. `key` must not be below the key popped last.
    pub(crate) fn push(&mut self, key: u32, v: VertexId) {
        debug_assert!(key >= self.last, "key {key} below last pop {}", self.last);
        let b = Self::bucket_of(key, self.last);
        self.buckets[b].push((key, v));
        self.occupied |= 1 << b;
    }

    /// Removes and returns an entry of minimum key.
    pub(crate) fn pop(&mut self) -> Option<(u32, VertexId)> {
        if self.occupied & 1 == 0 {
            if self.occupied == 0 {
                return None;
            }
            let b = self.occupied.trailing_zeros() as usize;
            let mut bucket = std::mem::take(&mut self.buckets[b]);
            self.last = bucket.iter().map(|&(key, _)| key).min()?;
            for (key, v) in bucket.drain(..) {
                let lower = Self::bucket_of(key, self.last);
                debug_assert!(lower < b);
                self.buckets[lower].push((key, v));
                self.occupied |= 1 << lower;
            }
            // Nothing above was dealt back into `b`: it keeps its allocation.
            self.buckets[b] = bucket;
            self.occupied &= !(1 << b);
        }
        let entry = self.buckets[0].pop();
        if self.buckets[0].is_empty() {
            self.occupied &= !1;
        }
        entry
    }

    /// Empties the queue for a new search, keeping the buckets' allocations.
    pub(crate) fn clear(&mut self) {
        while self.occupied != 0 {
            let b = self.occupied.trailing_zeros() as usize;
            self.buckets[b].clear();
            self.occupied &= self.occupied - 1;
        }
        self.last = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// A xorshift step: enough to vary keys without a dependency.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// Interleaved pushes and pops of a monotone sequence, as a Dijkstra
    /// with edge weights below `max_step` would issue them: the keys come
    /// out exactly as a binary heap orders them.
    fn pops_like_a_binary_heap(max_step: u64, seed: u64) {
        let mut state = seed;
        let mut queue = MonotoneQueue::default();
        let mut heap = BinaryHeap::new();
        queue.push(0, 0);
        heap.push(Reverse(0u32));
        let (mut pushed, mut popped) = (1, 0);
        while let Some(Reverse(want)) = heap.pop() {
            let (got, _) = queue.pop().expect("as many entries as the heap");
            assert_eq!(got, want, "pop {popped}, max_step {max_step}, seed {seed}");
            popped += 1;
            for _ in 0..1 + next(&mut state) % 3 {
                if pushed == 2000 {
                    break;
                }
                // Past the top of the key space everything ties at the top.
                let key = u64::from(got) + next(&mut state) % max_step;
                let key = u32::try_from(key).unwrap_or(u32::MAX);
                queue.push(key, pushed);
                heap.push(Reverse(key));
                pushed += 1;
            }
        }
        assert_eq!(queue.pop(), None);
        assert_eq!(popped, 2000);
    }

    #[test]
    fn monotone_sequences_pop_in_key_order_whatever_the_weights() {
        for seed in 1..40 {
            // Ties only; small weights; weights up to 10^6; steps that flip
            // the top bits of a u32.
            for max_step in [1, 2, 6, 1_000_001, 1 << 31] {
                pops_like_a_binary_heap(max_step, seed);
            }
        }
    }

    #[test]
    fn equal_keys_all_come_out_and_clear_starts_over() {
        let mut q = MonotoneQueue::default();
        for v in 0..5 {
            q.push(7, v);
        }
        q.push(u32::MAX, 9);
        let mut seen: Vec<VertexId> = (0..5).map(|_| q.pop().expect("five sevens").1).collect();
        seen.sort_unstable();
        assert_eq!(seen, [0, 1, 2, 3, 4]);
        assert_eq!(q.pop(), Some((u32::MAX, 9)));
        assert_eq!(q.pop(), None);
        // A cleared queue takes keys below the old reference again.
        q.push(u32::MAX, 1);
        q.clear();
        assert_eq!(q.pop(), None);
        q.push(3, 2);
        q.push(1, 4);
        assert_eq!(
            (q.pop(), q.pop(), q.pop()),
            (Some((1, 4)), Some((3, 2)), None)
        );
    }
}
