//! The anytime progress probe's sample type and its replayable JSONL
//! encoding, plus the Kendall tau-b rank correlation it reports.
//!
//! One [`ProgressSample`] is taken per RC step (when the probe is enabled)
//! and captures how far the engine's monotone distance overestimates are
//! from the exact oracle at that instant — the raw material for the paper's
//! quality-vs-time curves. Samples serialize one-per-line so a run's
//! `progress.jsonl` can be replayed by the bench harness without rerunning
//! the engine.

use crate::json::{fmt_f64, num_field, parse_flat_object, uint_field};
use std::fmt::Write as _;

/// One probe sample: the engine's anytime quality at the end of an RC step.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressSample {
    /// RC step the sample was taken after (0 = after initial approximation).
    pub rc_step: u64,
    /// LogP-modeled virtual clock at the sample (microseconds). Excluded
    /// from golden comparisons: measured compute makes it nondeterministic.
    pub makespan_us: f64,
    /// Max over finite pairs of `estimate - exact` (0 when converged).
    pub max_overestimate: f64,
    /// Mean over finite pairs of `estimate - exact`.
    pub mean_overestimate: f64,
    /// Kendall tau-b between estimated and exact closeness rankings.
    pub kendall_tau: f64,
    /// Fraction of live-owned rows exactly equal to the oracle rows.
    pub converged_row_fraction: f64,
    /// Pairs the estimate still thinks are unreachable but the oracle does
    /// not (plus the reverse); nonzero means coverage gaps, not just error.
    pub unreached_pairs: u64,
    /// Rows marked dirty (scheduled for the next exchange).
    pub dirty_rows: u64,
    /// Entries whose estimate *increased* since the previous sample. Zero
    /// between mutations (anytime monotonicity); a mutation resets the
    /// comparison.
    pub estimate_regressions: u64,
}

impl ProgressSample {
    /// Encodes the sample as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(out, "\"rc_step\": {}", self.rc_step);
        let _ = write!(out, ", \"makespan_us\": {}", fmt_f64(self.makespan_us));
        let _ = write!(
            out,
            ", \"max_overestimate\": {}",
            fmt_f64(self.max_overestimate)
        );
        let _ = write!(
            out,
            ", \"mean_overestimate\": {}",
            fmt_f64(self.mean_overestimate)
        );
        let _ = write!(out, ", \"kendall_tau\": {}", fmt_f64(self.kendall_tau));
        let _ = write!(
            out,
            ", \"converged_row_fraction\": {}",
            fmt_f64(self.converged_row_fraction)
        );
        let _ = write!(out, ", \"unreached_pairs\": {}", self.unreached_pairs);
        let _ = write!(out, ", \"dirty_rows\": {}", self.dirty_rows);
        let _ = write!(
            out,
            ", \"estimate_regressions\": {}",
            self.estimate_regressions
        );
        out.push('}');
        out
    }

    /// Decodes a sample from one JSON line.
    pub fn from_json_line(line: &str) -> Result<ProgressSample, String> {
        let pairs = parse_flat_object(line)?;
        Ok(ProgressSample {
            rc_step: uint_field(&pairs, "rc_step")?,
            makespan_us: num_field(&pairs, "makespan_us")?,
            max_overestimate: num_field(&pairs, "max_overestimate")?,
            mean_overestimate: num_field(&pairs, "mean_overestimate")?,
            kendall_tau: num_field(&pairs, "kendall_tau")?,
            converged_row_fraction: num_field(&pairs, "converged_row_fraction")?,
            unreached_pairs: uint_field(&pairs, "unreached_pairs")?,
            dirty_rows: uint_field(&pairs, "dirty_rows")?,
            estimate_regressions: uint_field(&pairs, "estimate_regressions")?,
        })
    }
}

/// Encodes a timeline as JSONL (one sample per line, trailing newline).
pub fn encode_jsonl(samples: &[ProgressSample]) -> String {
    let mut out = String::new();
    for s in samples {
        out.push_str(&s.to_json_line());
        out.push('\n');
    }
    out
}

/// Decodes a JSONL timeline; blank lines are skipped.
pub fn decode_jsonl(text: &str) -> Result<Vec<ProgressSample>, String> {
    let mut samples = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let s = ProgressSample::from_json_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        samples.push(s);
    }
    Ok(samples)
}

/// Kendall tau-b rank correlation between two equal-length samples.
///
/// Tau-b corrects for ties on either side; when one side is entirely tied
/// (zero denominator — e.g. both rankings are constant) the rankings carry
/// no ordering information to disagree on, and the probe reports `1.0`
/// (perfect agreement) so a fully-converged trivial graph doesn't read as
/// uncorrelated.
pub fn kendall_tau(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len().min(ys.len());
    if n < 2 {
        return 1.0;
    }
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    let mut ties_x = 0i64;
    let mut ties_y = 0i64;
    for i in 0..n {
        for j in (i + 1)..n {
            let dx = xs[i].total_cmp(&xs[j]);
            let dy = ys[i].total_cmp(&ys[j]);
            match (dx, dy) {
                (std::cmp::Ordering::Equal, std::cmp::Ordering::Equal) => {}
                (std::cmp::Ordering::Equal, _) => ties_x += 1,
                (_, std::cmp::Ordering::Equal) => ties_y += 1,
                (a, b) if a == b => concordant += 1,
                _ => discordant += 1,
            }
        }
    }
    let n0 = concordant + discordant;
    let denom = (((n0 + ties_x) as f64) * ((n0 + ties_y) as f64)).sqrt();
    if denom <= 0.0 {
        return 1.0;
    }
    (concordant - discordant) as f64 / denom
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(step: u64) -> ProgressSample {
        ProgressSample {
            rc_step: step,
            makespan_us: 1234.5 * step as f64,
            max_overestimate: 3.0 / (step + 1) as f64,
            mean_overestimate: 1.0 / (step + 1) as f64,
            kendall_tau: 0.5,
            converged_row_fraction: 0.25 * step as f64,
            unreached_pairs: 2,
            dirty_rows: 3,
            estimate_regressions: 0,
        }
    }

    #[test]
    fn sample_round_trips_through_json() {
        let s = sample(3);
        assert_eq!(
            ProgressSample::from_json_line(&s.to_json_line()).unwrap(),
            s
        );
    }

    #[test]
    fn timeline_round_trips() {
        let timeline: Vec<ProgressSample> = (0..4).map(sample).collect();
        let text = encode_jsonl(&timeline);
        assert_eq!(decode_jsonl(&text).unwrap(), timeline);
        assert_eq!(decode_jsonl("").unwrap(), vec![]);
    }

    #[test]
    fn decode_reports_line_numbers() {
        let err = decode_jsonl("{\"rc_step\": 1}\n").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
    }

    #[test]
    fn tau_perfect_agreement_and_reversal() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys_rev = [4.0, 3.0, 2.0, 1.0];
        assert_eq!(kendall_tau(&xs, &xs), 1.0);
        assert_eq!(kendall_tau(&xs, &ys_rev), -1.0);
    }

    #[test]
    fn tau_handles_ties_and_degenerate_input() {
        assert_eq!(kendall_tau(&[], &[]), 1.0);
        assert_eq!(kendall_tau(&[1.0], &[2.0]), 1.0);
        assert_eq!(kendall_tau(&[1.0, 1.0, 1.0], &[3.0, 2.0, 1.0]), 1.0);
        let t = kendall_tau(&[1.0, 1.0, 2.0], &[1.0, 2.0, 3.0]);
        assert!(t > 0.0 && t < 1.0, "partial ties give partial tau, got {t}");
    }

    #[test]
    fn tau_is_symmetric_under_swap() {
        let xs = [0.3, 0.9, 0.1, 0.4];
        let ys = [0.2, 0.8, 0.4, 0.1];
        assert_eq!(kendall_tau(&xs, &ys), kendall_tau(&ys, &xs));
    }
}
