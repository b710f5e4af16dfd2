//! Heartbeat/timeout failure detection and straggler flagging.
//!
//! The detector is deliberately dumb and local: it never talks to the
//! network itself. The protocol layer feeds it *evidence* — "I heard from
//! rank r at step s" (an inbound message or a positive delivery receipt) and
//! "this step, each rank charged this much compute" — and reads back
//! per-rank verdicts. Crash suspicion is the classic heartbeat timeout: a
//! rank that has produced no evidence of life for more than `timeout`
//! consecutive recombination steps is suspected fail-stopped. Straggler
//! flagging compares each rank's per-step compute against the live median;
//! a rank that exceeds `straggler_factor ×` the median (and an absolute
//! floor, to ignore measurement noise on tiny graphs) for
//! `straggler_patience` consecutive steps is flagged. A step in which the
//! rank exceeds the multiple but not the floor is no evidence either way: it
//! neither extends nor resets a streak and leaves a verdict standing, so an
//! idle or merely fast cluster does not un-flag a straggler; a charge back in
//! line with the median clears it, however small.
//!
//! Steps, not wall seconds, drive the timeout: the simulation's notion of
//! time is the LogP virtual clock, which advances per recombination step, so
//! "k silent steps" is the faithful analogue of "k missed heartbeat
//! intervals" in a real deployment.

/// Per-rank health verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankHealth {
    /// Evidence of life within the timeout, compute within bounds.
    Healthy,
    /// Alive but repeatedly exceeding the straggler threshold.
    Straggling,
    /// No evidence of life for more than the timeout: presumed crashed.
    Suspected,
    /// Confirmed down (the supervisor acted on the suspicion).
    Down,
}

impl std::fmt::Display for RankHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RankHealth::Healthy => "healthy",
            RankHealth::Straggling => "straggling",
            RankHealth::Suspected => "suspected",
            RankHealth::Down => "down",
        })
    }
}

/// Heartbeat-timeout crash detector + median-based straggler detector.
#[derive(Debug, Clone)]
pub struct FailureDetector {
    timeout: u64,
    straggler_factor: f64,
    straggler_floor_us: f64,
    straggler_patience: u32,
    /// Last step at which each rank produced evidence of life.
    last_heard: Vec<u64>,
    /// Consecutive steps each rank exceeded the straggler threshold.
    slow_streak: Vec<u32>,
    down: Vec<bool>,
    straggling: Vec<bool>,
}

impl FailureDetector {
    /// A detector for `p` ranks. `timeout` is in recombination steps;
    /// `straggler_factor` is the multiple of the live median per-step
    /// compute a rank must exceed (for `straggler_patience` consecutive
    /// steps, and above `straggler_floor_us`) to be flagged.
    pub fn new(
        p: usize,
        timeout: u64,
        straggler_factor: f64,
        straggler_floor_us: f64,
        straggler_patience: u32,
    ) -> Self {
        assert!(p >= 1);
        assert!(timeout >= 1, "a zero timeout would suspect everyone");
        assert!(straggler_factor > 1.0 && straggler_patience >= 1);
        FailureDetector {
            timeout,
            straggler_factor,
            straggler_floor_us,
            straggler_patience,
            last_heard: vec![0; p],
            slow_streak: vec![0; p],
            down: vec![false; p],
            straggling: vec![false; p],
        }
    }

    /// The configured crash timeout (steps).
    pub fn timeout(&self) -> u64 {
        self.timeout
    }

    /// Records evidence that `rank` was alive at `step`: an inbound message
    /// from it, or a positive delivery receipt for a transfer sent to it.
    pub fn observe_contact(&mut self, rank: usize, step: u64) {
        self.last_heard[rank] = self.last_heard[rank].max(step);
    }

    /// Feeds one step's per-rank compute charges (µs, already accumulated
    /// deltas) to the straggler detector. `skip[r]` masks ranks that should
    /// not participate this step (down ranks, the step's crash victims).
    pub fn observe_step_compute(&mut self, per_rank_us: &[f64], skip: &[bool]) {
        let mut live: Vec<f64> = per_rank_us
            .iter()
            .zip(skip)
            .filter(|&(_, &s)| !s)
            .map(|(&us, _)| us)
            .collect();
        if live.len() < 2 {
            return; // a median of one rank flags nothing
        }
        live.sort_by(f64::total_cmp);
        // Lower median: with an even live count the upper median could be
        // the straggler itself, inflating its own threshold.
        let median = live[(live.len() - 1) / 2];
        let relative = median * self.straggler_factor;
        let threshold = relative.max(self.straggler_floor_us);
        for (r, (&us, &s)) in per_rank_us.iter().zip(skip).enumerate() {
            if s {
                self.slow_streak[r] = 0;
                continue;
            }
            if us > relative && us <= threshold {
                // Out of line with its peers but under the floor: too small
                // to judge. An idle or merely fast step says nothing about
                // a slowdown, so streak and verdict stand.
                continue;
            }
            if us > threshold {
                self.slow_streak[r] += 1;
            } else {
                self.slow_streak[r] = 0;
                self.straggling[r] = false;
            }
            if self.slow_streak[r] >= self.straggler_patience {
                self.straggling[r] = true;
            }
        }
    }

    /// Ranks whose silence has exceeded the timeout at `now` and that are
    /// not already marked down — the supervisor should recover these.
    pub fn suspects(&self, now: u64) -> Vec<usize> {
        (0..self.last_heard.len())
            .filter(|&r| !self.down[r] && now.saturating_sub(self.last_heard[r]) > self.timeout)
            .collect()
    }

    /// Confirms `rank` as down (stops it from being re-suspected while the
    /// supervisor recovers it).
    pub fn mark_down(&mut self, rank: usize) {
        self.down[rank] = true;
    }

    /// Marks `rank` recovered at `step`: its heartbeat clock restarts and
    /// any straggler streak is cleared.
    pub fn mark_up(&mut self, rank: usize, step: u64) {
        self.down[rank] = false;
        self.last_heard[rank] = step;
        self.slow_streak[rank] = 0;
        self.straggling[rank] = false;
    }

    /// The current verdict for `rank` as of step `now`.
    pub fn health(&self, rank: usize, now: u64) -> RankHealth {
        if self.down[rank] {
            RankHealth::Down
        } else if now.saturating_sub(self.last_heard[rank]) > self.timeout {
            RankHealth::Suspected
        } else if self.straggling[rank] {
            RankHealth::Straggling
        } else {
            RankHealth::Healthy
        }
    }

    /// Last step at which `rank` showed evidence of life.
    pub fn last_heard(&self, rank: usize) -> u64 {
        self.last_heard[rank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silence_beyond_timeout_is_suspected() {
        let mut d = FailureDetector::new(3, 2, 4.0, 0.0, 2);
        for step in 1..=5 {
            d.observe_contact(0, step);
            d.observe_contact(2, step);
        }
        d.observe_contact(1, 3); // rank 1 goes silent after step 3
        assert_eq!(d.suspects(5), Vec::<usize>::new(), "within timeout");
        assert_eq!(d.suspects(6), vec![1], "3 silent steps > timeout 2");
        assert_eq!(d.health(1, 6), RankHealth::Suspected);
        assert_eq!(d.health(0, 6), RankHealth::Healthy);
    }

    #[test]
    fn down_ranks_are_not_re_suspected_until_marked_up() {
        let mut d = FailureDetector::new(2, 1, 4.0, 0.0, 2);
        for step in 1..=14 {
            d.observe_contact(0, step); // rank 0 stays chatty throughout
        }
        assert_eq!(d.suspects(12), vec![1]);
        d.mark_down(1);
        assert_eq!(d.suspects(12), Vec::<usize>::new());
        assert_eq!(d.health(1, 12), RankHealth::Down);
        d.mark_up(1, 12);
        assert_eq!(d.health(1, 12), RankHealth::Healthy);
        assert_eq!(d.suspects(14), vec![1], "the clock restarted at step 12");
    }

    #[test]
    fn straggler_needs_patience_and_clears_on_recovery() {
        let mut d = FailureDetector::new(4, 5, 4.0, 0.0, 3);
        let skip = [false; 4];
        // Rank 2 charges 10× the median.
        for _ in 0..2 {
            d.observe_step_compute(&[10.0, 10.0, 100.0, 10.0], &skip);
        }
        assert_eq!(d.health(2, 0), RankHealth::Healthy, "patience not met");
        d.observe_step_compute(&[10.0, 10.0, 100.0, 10.0], &skip);
        assert_eq!(d.health(2, 0), RankHealth::Straggling);
        // One normal step clears the flag.
        d.observe_step_compute(&[10.0, 10.0, 10.0, 10.0], &skip);
        assert_eq!(d.health(2, 0), RankHealth::Healthy);
    }

    #[test]
    fn straggler_floor_masks_noise() {
        let mut d = FailureDetector::new(3, 5, 2.0, 50.0, 1);
        // 10× the median but under the 50µs floor: noise, not a straggler.
        d.observe_step_compute(&[1.0, 1.0, 10.0], &[false; 3]);
        assert_eq!(d.health(2, 0), RankHealth::Healthy);
        d.observe_step_compute(&[10.0, 10.0, 200.0], &[false; 3]);
        assert_eq!(d.health(2, 0), RankHealth::Straggling);
    }

    #[test]
    fn sub_floor_steps_are_no_evidence_either_way() {
        let mut d = FailureDetector::new(3, 5, 2.0, 50.0, 2);
        let skip = [false; 3];
        d.observe_step_compute(&[60.0, 60.0, 600.0], &skip);
        // An idle step between two slow ones does not reset the streak...
        d.observe_step_compute(&[1.0, 1.0, 10.0], &skip);
        d.observe_step_compute(&[60.0, 60.0, 600.0], &skip);
        assert_eq!(d.health(2, 0), RankHealth::Straggling);
        // ...and a quiet cluster does not clear the verdict while the rank
        // is still out of line with its peers.
        d.observe_step_compute(&[1.0, 1.0, 10.0], &skip);
        assert_eq!(d.health(2, 0), RankHealth::Straggling);
        // A step back in line with the median does, idle or not.
        d.observe_step_compute(&[1.0, 1.0, 1.5], &skip);
        assert_eq!(d.health(2, 0), RankHealth::Healthy);
    }

    #[test]
    fn skipped_ranks_do_not_distort_the_median() {
        let mut d = FailureDetector::new(3, 5, 2.0, 0.0, 1);
        // Rank 0 is down (skipped) with zero compute; the median comes from
        // ranks 1 and 2 only, so rank 2 at 3× rank 1 is flagged.
        d.observe_step_compute(&[0.0, 10.0, 30.0], &[true, false, false]);
        assert_eq!(d.health(2, 0), RankHealth::Straggling);
        assert_eq!(d.health(0, 100), RankHealth::Suspected, "down, not flagged");
    }
}
