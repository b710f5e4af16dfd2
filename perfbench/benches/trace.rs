//! Harness-side spans: one per public call into a layer crate, recorded in
//! memory and written out when the run ends.
//!
//! Spans are opened and closed only from the benchmark's own files (spans
//! inside the crates are a later change), so a layer's *self time* — its
//! span's duration minus the part its child spans cover — attributes time
//! to the outermost public call that spent it. With tracing off [`Trace`]
//! holds nothing and [`Trace::span`] is a plain call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// One recorded call. `id` is the index + 1; `parent` 0 means a root.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    /// Which part of the run (`primary`, `setup`, `reference.churn`, …) and
    /// the graph, update or turn index inside it.
    pub phase: &'static str,
    pub index: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    phase: &'static str,
    index: u32,
}

/// A handle on the run's span recorder, or nothing when tracing is off.
/// Cloned into the storage decorator so storage calls made inside
/// `Server::turn` become children of the `serve.turn` span.
#[derive(Debug, Clone, Default)]
pub struct Trace(Option<Rc<RefCell<Recorder>>>);

impl Trace {
    pub fn off() -> Trace {
        Trace(None)
    }

    pub fn on() -> Trace {
        Trace(Some(Rc::new(RefCell::new(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            phase: "",
            index: 0,
        }))))
    }

    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Labels the spans recorded from here on.
    pub fn set_phase(&self, phase: &'static str) {
        if let Some(r) = &self.0 {
            let mut r = r.borrow_mut();
            r.phase = phase;
            r.index = 0;
        }
    }

    /// Sets the graph/update/turn index stamped on following spans.
    pub fn set_index(&self, index: usize) {
        if let Some(r) = &self.0 {
            r.borrow_mut().index = index as u32;
        }
    }

    /// Runs `f` inside a span named `name`, child of whichever span is open.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(rec) = &self.0 else {
            return f();
        };
        let id = {
            let mut r = rec.borrow_mut();
            let id = r.spans.len() as u32 + 1;
            let start_ns = r.origin.elapsed().as_nanos() as u64;
            let span = Span {
                id,
                parent: r.open.last().copied().unwrap_or(0),
                phase: r.phase,
                index: r.index,
                name,
                start_ns,
                end_ns: start_ns,
            };
            r.spans.push(span);
            r.open.push(id);
            id
        };
        let out = f();
        let mut r = rec.borrow_mut();
        let end_ns = r.origin.elapsed().as_nanos() as u64;
        r.spans[id as usize - 1].end_ns = end_ns;
        r.open.pop();
        out
    }

    /// How many spans exist so far; pass it to [`Trace::since`] later.
    pub fn mark(&self) -> usize {
        self.0.as_ref().map_or(0, |r| r.borrow().spans.len())
    }

    /// Of the spans recorded after `mark`: the seconds their roots cover and
    /// how many there are, without copying them.
    pub fn coverage_since(&self, mark: usize) -> (f64, usize) {
        self.0.as_ref().map_or((0.0, 0), |r| {
            let spans = &r.borrow().spans[mark..];
            (root_seconds(spans), spans.len())
        })
    }

    /// The spans recorded after `mark` (none when tracing is off). Ids are
    /// global to the run, so a slice keeps its parent links.
    pub fn since(&self, mark: usize) -> Vec<Span> {
        match &self.0 {
            Some(r) => r.borrow().spans[mark..].to_vec(),
            None => Vec::new(),
        }
    }
}

/// Seconds one span costs the traced run: two clock reads and a push,
/// measured on a throw-away recorder. Tracing overhead is this times the
/// spans recorded in a timed region. (Timing an untraced twin of the run
/// and dividing was tried first: on this host the two passes differ by
/// −18 % to +8 % from allocator warm-up and CPU drift alone, which buries
/// an overhead of well under 1 %.)
pub fn span_cost_s() -> f64 {
    const N: u32 = 200_000;
    let scratch = Trace::on();
    let t = Instant::now();
    for _ in 0..N {
        scratch.span("calibrate", || std::hint::black_box(()));
    }
    t.elapsed().as_secs_f64() / f64::from(N)
}

/// Σ duration, in seconds, of the spans in `spans` that have no parent:
/// the part of a timed region spent inside some layer.
pub fn root_seconds(spans: &[Span]) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| s.dur_ns() as f64 / 1e9)
        .sum()
}

/// Self time per span: its duration minus its direct children's, keyed by
/// span id. The harness is single-threaded, so children never overlap.
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut own: BTreeMap<u32, u64> = spans.iter().map(|s| (s.id, s.dur_ns())).collect();
    for s in spans {
        if let Some(parent) = own.get_mut(&s.parent) {
            *parent = parent.saturating_sub(s.dur_ns());
        }
    }
    own
}

/// What a set of spans says about one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameStats {
    pub count: u64,
    /// Σ duration, seconds.
    pub total_s: f64,
    /// Σ self time, seconds.
    pub self_s: f64,
    /// Longest single span, seconds.
    pub max_s: f64,
}

/// Per-name totals over `spans`.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        let d = s.dur_ns() as f64 / 1e9;
        e.count += 1;
        e.total_s += d;
        e.self_s += own[&s.id] as f64 / 1e9;
        e.max_s = e.max_s.max(d);
    }
    out
}

/// Durations in seconds of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e9)
        .collect()
}

/// One JSON object per line: `{id, parent, run, name, start_ns, end_ns}`.
pub fn to_jsonl(workload: &str, spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"run\": \"{}/{}/{}\", \"name\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.parent, workload, s.phase, s.index, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            phase: "t",
            index: 0,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // turn [0,100] ── sync [10,40] ── inner [15,25]
        //              └─ append [50,60]
        let spans = vec![
            span(1, 0, "serve.turn", 0, 100),
            span(2, 1, "durable.sync", 10, 40),
            span(3, 2, "inner", 15, 25),
            span(4, 1, "durable.append", 50, 60),
            span(5, 0, "serve.turn", 100, 130),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 60);
        assert_eq!(own[&2], 20);
        assert_eq!(own[&3], 10);
        assert_eq!(own[&4], 10);
        assert_eq!(own[&5], 30);
        // Self times of a tree sum to its roots' durations.
        assert_eq!(own.values().sum::<u64>(), 130);
        assert!((root_seconds(&spans) - 130e-9).abs() < 1e-15);
        let names = by_name(&spans);
        assert_eq!(names["serve.turn"].count, 2);
        assert!((names["serve.turn"].self_s - 90e-9).abs() < 1e-15);
        assert!((names["serve.turn"].max_s - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn recorder_links_nested_calls_and_off_is_a_plain_call() {
        let t = Trace::on();
        t.set_phase("primary");
        t.set_index(3);
        let got = t.span("outer", || t.span("inner", || 7));
        assert_eq!(got, 7);
        let spans = t.since(0);
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", 0));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", 1));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!((spans[1].phase, spans[1].index), ("primary", 3));
        let line = to_jsonl("w", &spans);
        assert!(line.starts_with("{\"id\": 1, \"parent\": 0, \"run\": \"w/primary/3\""));
        assert_eq!(t.mark(), 2);
        assert!(t.since(2).is_empty());

        let off = Trace::off();
        assert_eq!(off.span("x", || 1), 1);
        assert!(off.since(off.mark()).is_empty() && !off.is_on());
    }
}
