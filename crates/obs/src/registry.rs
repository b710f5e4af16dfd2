//! Typed metrics registry: counters, gauges and fixed-bucket histograms with
//! labels, exported as JSON.
//!
//! All storage is `BTreeMap`-backed so the export walks metrics in a fixed
//! (name, labels) order — the JSON is byte-stable and golden-file testable.
//! Nothing in here reads a clock or an RNG; values only change when a caller
//! records them.

use crate::json::{escape, fmt_f64};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A metric identity: a name plus a sorted label set.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name, e.g. `aa_phase_bytes_total`.
    pub name: String,
    /// Label pairs, kept sorted by label name for stable ordering.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Builds a key, sorting the labels by name.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }

    /// Renders `name{k="v",...}` (or just `name` when label-free).
    pub fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let inner: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape(v)))
            .collect();
        format!("{}{{{}}}", self.name, inner.join(","))
    }
}

/// Cumulative histogram state over fixed bucket bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramData {
    /// Upper bounds of the finite buckets, ascending. An implicit `+Inf`
    /// bucket follows the last bound.
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts; `counts.len() == bounds.len() + 1`,
    /// the final slot being the `+Inf` bucket.
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: f64,
    /// Total number of observations.
    pub count: u64,
}

impl HistogramData {
    fn new(bounds: Vec<f64>) -> Self {
        let counts = vec![0; bounds.len() + 1];
        HistogramData {
            bounds,
            counts,
            sum: 0.0,
            count: 0,
        }
    }

    fn observe(&mut self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|b| v <= *b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += v;
        self.count += 1;
    }
}

/// One recorded metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotone counter.
    Counter(u64),
    /// Point-in-time gauge.
    Gauge(f64),
    /// Fixed-bucket histogram.
    Histogram(HistogramData),
}

/// The registry. Cheap to create; every engine run gets a fresh one.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    hist_bounds: BTreeMap<String, Vec<f64>>,
    metrics: BTreeMap<MetricKey, MetricValue>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments a counter, creating it at zero first if absent. A key
    /// already holding a non-counter value is left untouched (type
    /// mismatches are a programming error but must not panic in lib code).
    pub fn inc_counter(&mut self, name: &str, labels: &[(&str, &str)], by: u64) {
        let key = MetricKey::new(name, labels);
        if let MetricValue::Counter(c) = self.metrics.entry(key).or_insert(MetricValue::Counter(0))
        {
            *c = c.saturating_add(by);
        }
    }

    /// Sets a gauge to `v`. Same mismatch policy as [`Self::inc_counter`].
    pub fn set_gauge(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        let key = MetricKey::new(name, labels);
        if let MetricValue::Gauge(g) = self.metrics.entry(key).or_insert(MetricValue::Gauge(0.0)) {
            *g = v;
        }
    }

    /// Declares bucket bounds for a histogram name. Must be called before the
    /// first [`Self::observe`] for that name; bounds are sorted ascending.
    pub fn declare_histogram(&mut self, name: &str, bounds: &[f64]) {
        let mut bounds = bounds.to_vec();
        bounds.sort_by(f64::total_cmp);
        self.hist_bounds.insert(name.to_string(), bounds);
    }

    /// Records one observation into a declared histogram. Observations on an
    /// undeclared name are dropped (again: no panics in lib code).
    pub fn observe(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        let Some(bounds) = self.hist_bounds.get(name) else {
            return;
        };
        let key = MetricKey::new(name, labels);
        if let MetricValue::Histogram(h) = self
            .metrics
            .entry(key)
            .or_insert_with(|| MetricValue::Histogram(HistogramData::new(bounds.clone())))
        {
            h.observe(v);
        }
    }

    /// Looks up a metric value.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricValue> {
        self.metrics.get(&MetricKey::new(name, labels))
    }

    /// Convenience: counter value, zero if absent.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.get(name, labels) {
            Some(MetricValue::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Convenience: gauge value, if present.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self.get(name, labels) {
            Some(MetricValue::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// Whether the registry holds no series.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Folds another registry into this one: counters add, gauges take the
    /// other side's value, histograms merge bucket-wise when bounds match
    /// (and are replaced otherwise).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, bounds) in &other.hist_bounds {
            self.hist_bounds
                .entry(name.clone())
                .or_insert_with(|| bounds.clone());
        }
        for (key, value) in &other.metrics {
            match (self.metrics.get_mut(key), value) {
                (Some(MetricValue::Counter(a)), MetricValue::Counter(b)) => {
                    *a = a.saturating_add(*b)
                }
                (Some(MetricValue::Gauge(a)), MetricValue::Gauge(b)) => *a = *b,
                (Some(MetricValue::Histogram(a)), MetricValue::Histogram(b))
                    if a.bounds == b.bounds =>
                {
                    for (ca, cb) in a.counts.iter_mut().zip(&b.counts) {
                        *ca += cb;
                    }
                    a.sum += b.sum;
                    a.count += b.count;
                }
                _ => {
                    self.metrics.insert(key.clone(), value.clone());
                }
            }
        }
    }

    /// Machine JSON: an object mapping each rendered series name to either a
    /// scalar (counters/gauges) or a `{buckets, sum, count}` object
    /// (histograms). Key order is the registry's stable order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let mut first = true;
        for (key, value) in &self.metrics {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(out, "  \"{}\": ", escape(&key.render()));
            match value {
                MetricValue::Counter(c) => {
                    let _ = write!(out, "{c}");
                }
                MetricValue::Gauge(g) => out.push_str(&fmt_f64(*g)),
                MetricValue::Histogram(h) => {
                    out.push_str("{\"buckets\": [");
                    for (i, (bound, count)) in h.bounds.iter().zip(&h.counts).enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        let _ = write!(out, "[{}, {count}]", fmt_f64(*bound));
                    }
                    if !h.bounds.is_empty() {
                        out.push_str(", ");
                    }
                    let _ = write!(
                        out,
                        "[\"+Inf\", {}]], \"sum\": {}, \"count\": {}}}",
                        h.counts.last().copied().unwrap_or(0),
                        fmt_f64(h.sum),
                        h.count
                    );
                }
            }
        }
        out.push_str("\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        r.inc_counter("aa_rc_steps_total", &[], 3);
        r.inc_counter("aa_phase_bytes_total", &[("phase", "recombination")], 100);
        r.inc_counter(
            "aa_phase_bytes_total",
            &[("phase", "domain-decomposition")],
            40,
        );
        r.set_gauge("aa_dirty_rows", &[], 2.0);
        r.declare_histogram("aa_rc_step_bytes", &[10.0, 100.0]);
        r.observe("aa_rc_step_bytes", &[], 5.0);
        r.observe("aa_rc_step_bytes", &[], 50.0);
        r.observe("aa_rc_step_bytes", &[], 500.0);
        r
    }

    #[test]
    fn counters_accumulate_and_labels_sort() {
        let mut r = MetricsRegistry::new();
        r.inc_counter("c", &[("b", "2"), ("a", "1")], 1);
        r.inc_counter("c", &[("a", "1"), ("b", "2")], 2);
        assert_eq!(r.counter_value("c", &[("b", "2"), ("a", "1")]), 3);
        let key = MetricKey::new("c", &[("b", "2"), ("a", "1")]);
        assert_eq!(key.render(), "c{a=\"1\",b=\"2\"}");
    }

    #[test]
    fn histogram_buckets_fill_correctly() {
        let r = sample();
        let Some(MetricValue::Histogram(h)) = r.get("aa_rc_step_bytes", &[]) else {
            panic!("histogram missing");
        };
        assert_eq!(h.counts, vec![1, 1, 1]);
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 555.0);
    }

    #[test]
    fn observe_without_declare_is_dropped() {
        let mut r = MetricsRegistry::new();
        r.observe("missing", &[], 1.0);
        assert!(r.is_empty());
    }

    #[test]
    fn type_mismatch_does_not_clobber() {
        let mut r = MetricsRegistry::new();
        r.inc_counter("m", &[], 5);
        r.set_gauge("m", &[], 9.0);
        assert_eq!(r.counter_value("m", &[]), 5);
    }

    #[test]
    fn json_is_stable_and_ordered() {
        let r = sample();
        let json = r.to_json();
        let bytes_dd = json.find("domain-decomposition").unwrap();
        let bytes_rc = json.find("recombination").unwrap();
        assert!(bytes_dd < bytes_rc, "label values must sort");
        assert_eq!(json, r.clone().to_json(), "export must be deterministic");
        assert!(json.contains("\"aa_dirty_rows\": 2"));
        assert!(json.contains("[\"+Inf\", 1]"));
    }

    #[test]
    fn merge_adds_counters_and_buckets() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.counter_value("aa_rc_steps_total", &[]), 6);
        let Some(MetricValue::Histogram(h)) = a.get("aa_rc_step_bytes", &[]) else {
            panic!("histogram missing");
        };
        assert_eq!(h.counts, vec![2, 2, 2]);
        assert_eq!(a.gauge_value("aa_dirty_rows", &[]), Some(2.0));
    }
}
