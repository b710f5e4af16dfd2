//! Per-class token budgets and the serve-side admission configuration.

use aa_ingest::IngestConfig;

/// A per-turn token bucket: `refill` tokens are added at each turn
/// boundary, capped at `burst`; serving one request takes one token.
/// Integer arithmetic keeps replenishment deterministic.
#[derive(Debug, Clone, Copy)]
pub struct TokenBucket {
    refill: u32,
    burst: u32,
    tokens: u32,
}

impl TokenBucket {
    /// A bucket starting full.
    pub fn new(refill: u32, burst: u32) -> Self {
        TokenBucket {
            refill,
            burst,
            tokens: burst,
        }
    }

    /// Adds `amount` tokens, capped at the burst size.
    pub fn refill_by(&mut self, amount: u32) {
        self.tokens = (self.tokens.saturating_add(amount)).min(self.burst);
    }

    /// Adds the configured per-turn refill, capped at the burst size.
    pub fn refill(&mut self) {
        self.refill_by(self.refill);
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

/// Server configuration: queue bounds, per-class token budgets, deadlines,
/// and the degraded-mode state machine's hysteresis.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Hard capacity of the read queue; reads beyond it are shed.
    pub read_queue_cap: usize,
    /// Read-queue throttling threshold (admitted-but-`Throttled` above it).
    pub read_queue_hwm: usize,
    /// Read tokens added per turn (reads served per turn, steady state).
    pub read_tokens_per_turn: u32,
    /// Read token burst cap.
    pub read_burst: u32,
    /// Write tokens added per turn.
    pub write_tokens_per_turn: u32,
    /// Write token burst cap.
    pub write_burst: u32,
    /// Default read deadline, relative to submission (virtual µs).
    pub default_deadline_us: f64,
    /// In degraded mode the write refill is divided by this factor, so
    /// refinement work is not starved by update traffic. Must be at least 1.
    pub degraded_write_divisor: u32,
    /// Consecutive overloaded turns before entering degraded mode.
    pub overload_turns: usize,
    /// Consecutive clear turns before leaving degraded mode.
    pub recovery_turns: usize,
    /// RC steps attempted per turn while unconverged. A turn whose flush
    /// applied a deletion steps on past this to convergence (bounded by the
    /// deletion barrier's budget): the next deletion barrier would run those
    /// steps anyway.
    pub steps_per_turn: usize,
    /// Ingest pipeline configuration (write queue bounds, drain policy).
    pub ingest: IngestConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            read_queue_cap: 1024,
            read_queue_hwm: 768,
            read_tokens_per_turn: 64,
            read_burst: 128,
            write_tokens_per_turn: 64,
            write_burst: 128,
            default_deadline_us: 5_000_000.0,
            degraded_write_divisor: 4,
            overload_turns: 3,
            recovery_turns: 3,
            steps_per_turn: 1,
            ingest: IngestConfig::default(),
        }
    }
}

impl ServeConfig {
    /// Validates bounds and hysteresis parameters.
    pub fn validate(&self) -> Result<(), String> {
        if self.read_queue_cap == 0 {
            return Err("read queue capacity must be positive".to_string());
        }
        if self.read_queue_hwm > self.read_queue_cap {
            return Err(format!(
                "read high watermark {} exceeds queue capacity {}",
                self.read_queue_hwm, self.read_queue_cap
            ));
        }
        if self.degraded_write_divisor == 0 {
            return Err("degraded write divisor must be at least 1".to_string());
        }
        if self.steps_per_turn == 0 {
            return Err("steps per turn must be at least 1".to_string());
        }
        if self.overload_turns == 0 || self.recovery_turns == 0 {
            return Err("mode hysteresis needs at least one turn".to_string());
        }
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
        let mut b = TokenBucket::new(2, 3);
        assert_eq!(b.available(), 3);
        assert!(b.take());
        assert!(b.take());
        assert!(b.take());
        assert!(!b.take());
        b.refill();
        assert_eq!(b.available(), 2);
        b.refill();
        b.refill();
        assert_eq!(b.available(), 3, "burst caps the refill");
    }

    #[test]
    fn config_validation_catches_bad_bounds() {
        let ok = ServeConfig::default();
        assert!(ok.validate().is_ok());
        assert!(ServeConfig {
            read_queue_cap: 0,
            ..ok
        }
        .validate()
        .is_err());
        assert!(ServeConfig {
            read_queue_hwm: 2048,
            read_queue_cap: 1024,
            ..ok
        }
        .validate()
        .is_err());
        assert!(ServeConfig {
            degraded_write_divisor: 0,
            ..ok
        }
        .validate()
        .is_err());
        assert!(ServeConfig {
            default_deadline_us: 0.0,
            ..ok
        }
        .validate()
        .is_err());
    }
}
