//! Cost accounting: messages, bytes and virtual time per algorithm phase.

use std::fmt;

/// Algorithm phases, matching the papers' decomposition plus the dynamic-
/// update activities measured in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Domain decomposition (graph partitioning + distribution).
    DomainDecomposition,
    /// Initial approximation (local APSP via Dijkstra).
    InitialApproximation,
    /// Recombination steps (boundary DV exchange + refinement).
    Recombination,
    /// Dynamic update incorporation (vertex/edge additions/deletions).
    DynamicUpdate,
    /// Partial-result migration during repartitioning.
    Migration,
}

impl Phase {
    /// All phases in reporting order.
    pub const ALL: [Phase; 5] = [
        Phase::DomainDecomposition,
        Phase::InitialApproximation,
        Phase::Recombination,
        Phase::DynamicUpdate,
        Phase::Migration,
    ];
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Phase::DomainDecomposition => "domain-decomposition",
            Phase::InitialApproximation => "initial-approximation",
            Phase::Recombination => "recombination",
            Phase::DynamicUpdate => "dynamic-update",
            Phase::Migration => "migration",
        };
        f.write_str(s)
    }
}

/// Accumulated costs for one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseStats {
    /// Number of model messages sent.
    pub messages: u64,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Virtual compute time charged (µs, summed over processors).
    pub compute_us: f64,
}

/// Ledger of communication and computation per phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CostLedger {
    stats: [PhaseStats; Phase::ALL.len()],
}

impl CostLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    #[expect(
        clippy::unwrap_used,
        reason = "Phase::ALL lists every Phase variant by definition"
    )]
    fn idx(phase: Phase) -> usize {
        Phase::ALL.iter().position(|&p| p == phase).unwrap()
    }

    /// Records `messages` model messages carrying `bytes` payload bytes.
    pub fn record_transfer(&mut self, phase: Phase, messages: u64, bytes: u64) {
        let s = &mut self.stats[Self::idx(phase)];
        s.messages += messages;
        s.bytes += bytes;
    }

    /// Records `us` microseconds of compute.
    pub fn record_compute(&mut self, phase: Phase, us: f64) {
        self.stats[Self::idx(phase)].compute_us += us;
    }

    /// Stats for one phase.
    pub fn phase(&self, phase: Phase) -> PhaseStats {
        self.stats[Self::idx(phase)]
    }

    /// Totals across all phases.
    pub fn totals(&self) -> PhaseStats {
        let mut t = PhaseStats::default();
        for s in &self.stats {
            t.messages += s.messages;
            t.bytes += s.bytes;
            t.compute_us += s.compute_us;
        }
        t
    }

    /// Merges another ledger into this one.
    pub fn merge(&mut self, other: &CostLedger) {
        for (i, s) in other.stats.iter().enumerate() {
            self.stats[i].messages += s.messages;
            self.stats[i].bytes += s.bytes;
            self.stats[i].compute_us += s.compute_us;
        }
    }

    /// A human-readable multi-line report.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str("phase                      messages        bytes   compute_ms\n");
        let mut row = |name: &str, s: PhaseStats| {
            out.push_str(&format!(
                "{:<24} {:>10} {:>12} {:>12.2}\n",
                name,
                s.messages,
                s.bytes,
                s.compute_us / 1000.0
            ));
        };
        for &p in &Phase::ALL {
            row(&p.to_string(), self.phase(p));
        }
        row("total", self.totals());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let mut l = CostLedger::new();
        l.record_transfer(Phase::Recombination, 3, 300);
        l.record_transfer(Phase::Recombination, 2, 200);
        l.record_compute(Phase::Recombination, 50.0);
        let s = l.phase(Phase::Recombination);
        assert_eq!(s.messages, 5);
        assert_eq!(s.bytes, 500);
        assert_eq!(s.compute_us, 50.0);
        assert_eq!(l.phase(Phase::Migration), PhaseStats::default());
    }

    #[test]
    fn totals_span_phases() {
        let mut l = CostLedger::new();
        l.record_transfer(Phase::DomainDecomposition, 1, 10);
        l.record_transfer(Phase::DynamicUpdate, 2, 20);
        l.record_compute(Phase::InitialApproximation, 7.0);
        let t = l.totals();
        assert_eq!(t.messages, 3);
        assert_eq!(t.bytes, 30);
        assert_eq!(t.compute_us, 7.0);
    }

    #[test]
    fn merge_combines() {
        let mut a = CostLedger::new();
        a.record_transfer(Phase::Migration, 1, 100);
        let mut b = CostLedger::new();
        b.record_transfer(Phase::Migration, 2, 50);
        b.record_compute(Phase::Migration, 1.5);
        a.merge(&b);
        let s = a.phase(Phase::Migration);
        assert_eq!((s.messages, s.bytes), (3, 150));
        assert_eq!(s.compute_us, 1.5);
    }

    #[test]
    fn report_contains_every_phase() {
        let l = CostLedger::new();
        let r = l.report();
        for p in Phase::ALL {
            assert!(r.contains(&p.to_string()), "missing {p}");
        }
        assert!(r.contains("total"));
    }
}
