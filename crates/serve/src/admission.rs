//! Per-class token budgets and the serve-side admission configuration.

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

    /// Tokens currently available.
    pub fn available(&self) -> u32 {
        self.tokens
    }
}

/// Server configuration: the default read deadline and the ingest
/// pipeline's bounds. The read queue's bounds, the token budgets and the
/// degraded-mode hysteresis are constants of the server.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Default read deadline, relative to submission (virtual µs).
    pub default_deadline_us: f64,
    /// Ingest pipeline configuration (write queue bounds, drain policy).
    pub ingest: IngestConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            default_deadline_us: 5_000_000.0,
            ingest: IngestConfig::default(),
        }
    }
}

impl ServeConfig {
    /// Validates the default deadline.
    pub fn validate(&self) -> Result<(), String> {
        if self.default_deadline_us.is_nan() || self.default_deadline_us <= 0.0 {
            return Err("default deadline must be positive".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_refills_to_burst_and_drains_by_one() {
        let mut b = TokenBucket::new(3);
        assert_eq!(b.available(), 3);
        assert!(b.take());
        assert!(b.take());
        assert!(b.take());
        assert!(!b.take());
        b.refill(2);
        assert_eq!(b.available(), 2);
        b.refill(2);
        b.refill(2);
        assert_eq!(b.available(), 3, "burst caps the refill");
    }

    #[test]
    fn config_validation_catches_bad_bounds() {
        let ok = ServeConfig::default();
        assert!(ok.validate().is_ok());
        assert!(ServeConfig {
            default_deadline_us: 0.0,
            ..ok
        }
        .validate()
        .is_err());
    }
}
