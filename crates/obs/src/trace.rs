//! Span-style phase tracing.
//!
//! A [`SpanRecord`] covers one engine activity — domain decomposition,
//! initial approximation, a single recombination step, a dynamic-update
//! batch, or a snapshot — and carries both the LogP-*modeled* cost (the
//! virtual-clock makespan delta across the span) and the *measured* compute
//! charged inside it, plus the ledger's byte and message deltas. This subsumes the
//! event-level `aa_runtime::TraceEvent` stream: events say what each rank
//! did, spans say what each engine phase cost.

use crate::json::{escape, fmt_f64, num_field, parse_flat_object, uint_field};
use std::fmt::Write as _;

/// One traced span. All costs are deltas over the span, not totals.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span kind, e.g. `domain-decomposition`, `recombination`, `snapshot`.
    pub name: String,
    /// Free-form detail, e.g. the step number or update description.
    pub detail: String,
    /// Engine RC step counter when the span closed.
    pub rc_step: u64,
    /// Virtual-clock makespan at span start (LogP-modeled, microseconds).
    pub start_us: f64,
    /// Virtual-clock makespan at span end.
    pub end_us: f64,
    /// Measured compute charged during the span (ledger `compute_us` delta).
    pub compute_us: f64,
    /// Payload bytes moved during the span.
    pub bytes: u64,
    /// Messages sent during the span.
    pub messages: u64,
}

impl SpanRecord {
    /// The LogP-modeled duration of the span (virtual microseconds).
    pub fn modeled_us(&self) -> f64 {
        (self.end_us - self.start_us).max(0.0)
    }

    /// Encodes the span as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(out, "\"span\": \"{}\"", escape(&self.name));
        let _ = write!(out, ", \"detail\": \"{}\"", escape(&self.detail));
        let _ = write!(out, ", \"rc_step\": {}", self.rc_step);
        let _ = write!(out, ", \"start_us\": {}", fmt_f64(self.start_us));
        let _ = write!(out, ", \"end_us\": {}", fmt_f64(self.end_us));
        let _ = write!(out, ", \"compute_us\": {}", fmt_f64(self.compute_us));
        let _ = write!(out, ", \"bytes\": {}", self.bytes);
        let _ = write!(out, ", \"messages\": {}", self.messages);
        out.push('}');
        out
    }

    /// Decodes a span from one JSON line.
    pub fn from_json_line(line: &str) -> Result<SpanRecord, String> {
        let pairs = parse_flat_object(line)?;
        let text = |key: &str| -> Result<String, String> {
            match crate::json::field(&pairs, key) {
                Some(crate::json::Scalar::Str(s)) => Ok(s.clone()),
                _ => Err(format!("missing or non-string field {key:?}")),
            }
        };
        Ok(SpanRecord {
            name: text("span")?,
            detail: text("detail")?,
            rc_step: uint_field(&pairs, "rc_step")?,
            start_us: num_field(&pairs, "start_us")?,
            end_us: num_field(&pairs, "end_us")?,
            compute_us: num_field(&pairs, "compute_us")?,
            bytes: uint_field(&pairs, "bytes")?,
            messages: uint_field(&pairs, "messages")?,
        })
    }
}

/// An append-only log of spans in completion order.
#[derive(Debug, Clone, Default)]
pub struct SpanLog {
    spans: Vec<SpanRecord>,
}

impl SpanLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a completed span.
    pub fn push(&mut self, span: SpanRecord) {
        self.spans.push(span);
    }

    /// Iterates spans in completion order.
    pub fn iter(&self) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter()
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Encodes the whole log as JSONL (one span per line).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            out.push_str(&span.to_json_line());
            out.push('\n');
        }
        out
    }

    /// Decodes a JSONL log; blank lines are skipped.
    pub fn from_jsonl(text: &str) -> Result<SpanLog, String> {
        let mut log = SpanLog::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let span =
                SpanRecord::from_json_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            log.push(span);
        }
        Ok(log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span() -> SpanRecord {
        SpanRecord {
            name: "recombination".to_string(),
            detail: "step".to_string(),
            rc_step: 7,
            start_us: 100.5,
            end_us: 250.25,
            compute_us: 42.0,
            bytes: 1024,
            messages: 12,
        }
    }

    #[test]
    fn modeled_duration_is_clamped_nonnegative() {
        assert_eq!(span().modeled_us(), 149.75);
        let mut s = span();
        s.end_us = 0.0;
        assert_eq!(s.modeled_us(), 0.0);
    }

    #[test]
    fn span_round_trips_through_json() {
        let s = span();
        let line = s.to_json_line();
        assert_eq!(SpanRecord::from_json_line(&line).unwrap(), s);
    }

    #[test]
    fn log_round_trips_and_skips_blanks() {
        let mut log = SpanLog::new();
        log.push(span());
        let mut other = span();
        other.name = "dynamic-update".to_string();
        other.detail = "add-edges n=3".to_string();
        log.push(other);
        let text = format!("\n{}\n", log.to_jsonl());
        let decoded = SpanLog::from_jsonl(&text).unwrap();
        assert_eq!(decoded.len(), 2);
        assert!(decoded.iter().zip(log.iter()).all(|(a, b)| a == b));
    }

    #[test]
    fn bad_line_reports_line_number() {
        let err = SpanLog::from_jsonl("{\"span\": \"x\"}\n").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
    }
}
