//! Pluggable batch drain policies.

use std::fmt;

/// When the scheduler flushes the coalescing buffer into the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DrainPolicy {
    /// Flush once the queue holds at least this many raw ops.
    SizeTriggered(usize),
    /// Flush whenever at least this many RC steps have completed since the
    /// last flush (and something is buffered) — updates ride the natural
    /// recombination cadence.
    RcStepInterleaved(usize),
}

impl DrainPolicy {
    /// Validates policy parameters.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            DrainPolicy::SizeTriggered(0) => {
                Err("size-triggered drain needs a batch target of at least 1".to_string())
            }
            DrainPolicy::RcStepInterleaved(0) => {
                Err("rc-step-interleaved drain needs a step interval of at least 1".to_string())
            }
            _ => Ok(()),
        }
    }

    /// Decides whether to flush given the current queue depth and RC steps
    /// since the last flush. A flush is never requested with an empty
    /// buffer.
    pub fn should_flush(&self, pending: usize, steps_since_flush: usize) -> bool {
        if pending == 0 {
            return false;
        }
        match *self {
            DrainPolicy::SizeTriggered(n) => pending >= n,
            DrainPolicy::RcStepInterleaved(k) => steps_since_flush >= k,
        }
    }

    /// Metric label for flushes this policy triggers.
    pub fn trigger_label(&self) -> &'static str {
        match self {
            DrainPolicy::SizeTriggered(_) => "size",
            DrainPolicy::RcStepInterleaved(_) => "steps",
        }
    }
}

impl fmt::Display for DrainPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DrainPolicy::SizeTriggered(n) => write!(f, "size:{n}"),
            DrainPolicy::RcStepInterleaved(k) => write!(f, "steps:{k}"),
        }
    }
}
