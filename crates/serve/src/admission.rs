//! The per-turn write budget and the serve-side configuration.

use aa_ingest::IngestConfig;

/// A per-turn token bucket: each turn boundary adds the turn's refill,
/// capped at `burst`; serving one request takes one token. Integer
/// arithmetic keeps replenishment deterministic.
#[derive(Debug, Clone, Copy)]
pub struct TokenBucket {
    burst: u32,
    tokens: u32,
}

impl TokenBucket {
    /// A bucket starting full.
    pub fn new(burst: u32) -> Self {
        TokenBucket {
            burst,
            tokens: burst,
        }
    }

    /// Adds `amount` tokens, capped at the burst size.
    pub fn refill(&mut self, amount: u32) {
        self.tokens = (self.tokens.saturating_add(amount)).min(self.burst);
    }

    /// Takes one token if available.
    pub fn take(&mut self) -> bool {
        if self.tokens > 0 {
            self.tokens -= 1;
            true
        } else {
            false
        }
    }
}

/// Server configuration: the ingest pipeline's bounds. The read queue's
/// capacity and the write budget are constants of the server. Kept as a
/// struct, with its `Default`, because the benchmark harness builds servers
/// through it.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeConfig {
    /// Ingest pipeline configuration (write queue bounds, drain policy).
    pub ingest: IngestConfig,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_refills_to_burst_and_drains_by_one() {
        let mut b = TokenBucket::new(3);
        let drain = |b: &mut TokenBucket| (0..5).filter(|_| b.take()).count();
        assert_eq!(drain(&mut b), 3, "the bucket starts full");
        b.refill(2);
        assert_eq!(drain(&mut b), 2);
        b.refill(2);
        b.refill(2);
        assert_eq!(drain(&mut b), 3, "burst caps the refill");
    }
}
