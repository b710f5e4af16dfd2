//! Communication schedules.
//!
//! The papers use a *personalized all-to-all* schedule in which "only one
//! message traverses the network at any given time … Although our
//! communication schedule takes Θ(P²) steps for P processors, it mitigates
//! network flooding." [`serialized_all_to_all`] reproduces that schedule, and
//! [`tree_broadcast`] is the binomial-tree broadcast used to distribute
//! distance-vector rows during edge additions.

/// The paper's serialized personalized all-to-all: every ordered pair `(src,
/// dst)` with `src != dst`, in an order that cycles senders so no processor
/// monopolizes the network. Exactly `P·(P−1)` transfers; at most one in
/// flight at a time.
pub fn serialized_all_to_all(p: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::with_capacity(p.saturating_sub(1) * p);
    for offset in 1..p {
        for src in 0..p {
            out.push((src, (src + offset) % p));
        }
    }
    out
}

/// Binomial-tree broadcast from `root`: returns rounds of `(src, dst)`
/// transfers; in round `r` every processor that already holds the data and
/// has a partner `2^r` away (in root-relative rank space) forwards it.
/// `ceil(log2 P)` rounds.
pub fn tree_broadcast(p: usize, root: usize) -> Vec<Vec<(usize, usize)>> {
    assert!(root < p, "root {root} out of range for {p} processors");
    let mut rounds = Vec::new();
    let mut span = 1usize;
    while span < p {
        let mut pairs = Vec::new();
        for rank in 0..span.min(p) {
            let dst_rank = rank + span;
            if dst_rank < p {
                pairs.push(((rank + root) % p, (dst_rank + root) % p));
            }
        }
        rounds.push(pairs);
        span *= 2;
    }
    rounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn serialized_covers_all_ordered_pairs_once() {
        for p in [2usize, 3, 4, 7, 16] {
            let sched = serialized_all_to_all(p);
            assert_eq!(sched.len(), p * (p - 1));
            let set: HashSet<_> = sched.iter().copied().collect();
            assert_eq!(set.len(), p * (p - 1), "duplicates for p={p}");
            assert!(sched.iter().all(|&(s, d)| s != d && s < p && d < p));
        }
    }

    #[test]
    fn serialized_trivial_cases() {
        assert!(serialized_all_to_all(0).is_empty());
        assert!(serialized_all_to_all(1).is_empty());
    }

    #[test]
    fn tree_broadcast_reaches_everyone() {
        for p in [1usize, 2, 3, 8, 13, 16] {
            for root in [0, p - 1] {
                let rounds = tree_broadcast(p, root);
                let mut have: HashSet<usize> = HashSet::from([root]);
                for round in &rounds {
                    let snapshot = have.clone();
                    for &(s, d) in round {
                        assert!(snapshot.contains(&s), "p={p}: {s} sends before it has data");
                        assert!(!snapshot.contains(&d), "p={p}: {d} receives twice");
                        have.insert(d);
                    }
                }
                assert_eq!(have.len(), p, "p={p} root={root}: broadcast incomplete");
                let log2 = (p as f64).log2().ceil() as usize;
                assert_eq!(rounds.len(), log2, "p={p}: round count");
            }
        }
    }

    #[test]
    fn tree_broadcast_parallelism() {
        // In every round no processor appears in more than one pair.
        let rounds = tree_broadcast(16, 5);
        for round in rounds {
            let mut used = HashSet::new();
            for (s, d) in round {
                assert!(used.insert(s));
                assert!(used.insert(d));
            }
        }
    }
}
