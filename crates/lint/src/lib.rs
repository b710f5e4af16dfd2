#![forbid(unsafe_code)]
//! `aa-lint` — workspace-native static analysis for the anytime-anywhere
//! reproduction.
//!
//! The framework's correctness rests on invariants the compiler cannot see:
//! distance estimates are monotone upper bounds, recombination is
//! deterministic so seeded runs replay exactly, and rankings are
//! NaN-safe. This crate enforces those invariants mechanically on every
//! build, with its own comment/string-aware lexer (the environment is
//! offline; no syn, no regex):
//!
//! | rule | enforces |
//! |------|----------|
//! | AA01 | no `unwrap`/`expect`/`panic!`/`unreachable!` in non-test library code |
//! | AA02 | no `partial_cmp(..).unwrap()` — require `total_cmp` |
//! | AA03 | no `==`/`!=` against float literals — epsilon or integer hops |
//! | AA04 | deterministic core: no wall clocks, unseeded RNG, or hash-order iteration |
//! | AA05 | no lossy `as` casts on engine hot paths |
//! | AA06 | every library crate root declares `#![forbid(unsafe_code)]` |
//!
//! Findings are suppressed in source with
//! `// aa-lint: allow(AA04, reason)` (the reason is mandatory — AA00 flags
//! reason-less pragmas), and pre-existing findings are ratcheted through the
//! committed [`baseline`] (`lint-baseline.json`): new findings fail, counts
//! may only go down.
//!
//! Run as `cargo run -p aa-lint` from the workspace root, or through the
//! tier-1 gate in `tests/lint_gate.rs`.

pub mod baseline;
pub mod callgraph;
pub mod dataflow;
pub mod fix;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod sarif;
pub mod workspace;

pub use baseline::{Baseline, BucketDelta, RatchetReport};
pub use rules::{check_source, FileClass, Finding, RuleId};

use std::fs;
use std::path::Path;

/// Everything one workspace run produces.
#[derive(Debug, Default)]
pub struct WorkspaceReport {
    /// Unsuppressed findings, sorted by (file, line, col).
    pub findings: Vec<Finding>,
    /// Pragma-suppressed findings (audit trail).
    pub suppressed: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// The ratchet verdict against the committed baseline.
    pub ratchet: RatchetReport,
    /// Total findings the committed baseline admits.
    pub baseline_total: usize,
}

impl WorkspaceReport {
    /// The gate: clean when every bucket is at or below its baseline count.
    pub fn is_clean(&self) -> bool {
        self.ratchet.is_clean()
    }
}

/// Scans the workspace under `root` and ratchets against `baseline`
/// (`None` means an empty baseline: every finding is a failure).
pub fn run(root: &Path, baseline: Option<&Baseline>) -> Result<WorkspaceReport, String> {
    let files = workspace::collect(root).map_err(|e| format!("walking {}: {e}", root.display()))?;
    let mut report = WorkspaceReport {
        files_scanned: files.len(),
        ..Default::default()
    };
    let mut graph_builder = callgraph::Builder::default();
    for (path, class) in &files {
        let src =
            fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        let lexed = lexer::lex(&src);
        let mut file_report = rules::check_lexed(class, &lexed);
        report.findings.append(&mut file_report.findings);
        report.suppressed.append(&mut file_report.suppressed);
        // Test trees never enter the call graph: their panics are assertions.
        if !class.is_test_code {
            graph_builder.add_file(class, &lexed);
        }
    }
    let graph = graph_builder.finish();
    let (mut interproc, mut interproc_suppressed) = dataflow::analyze(&graph);
    report.findings.append(&mut interproc);
    report.suppressed.append(&mut interproc_suppressed);
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
    let empty = Baseline::new();
    let base = baseline.unwrap_or(&empty);
    report.ratchet = baseline::ratchet(&baseline::bucket_counts(&report.findings), base);
    report.baseline_total = baseline::total(base);
    Ok(report)
}

/// Loads `lint-baseline.json` if present.
pub fn load_baseline(path: &Path) -> Result<Option<Baseline>, String> {
    if !path.exists() {
        return Ok(None);
    }
    let src = fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    baseline::from_json(&src).map(Some)
}

/// Human-readable report (one `file:line:col RULE message` per finding).
pub fn render_human(report: &WorkspaceReport) -> String {
    let mut out = String::new();
    for f in &report.findings {
        out.push_str(&format!(
            "{}:{}:{}: {} {}\n",
            f.file,
            f.line,
            f.col,
            f.rule.as_str(),
            f.message
        ));
    }
    for d in &report.ratchet.regressions {
        out.push_str(&format!(
            "RATCHET {} {}: {} findings exceed the baseline of {}\n",
            d.rule, d.file, d.current, d.baseline
        ));
    }
    for d in &report.ratchet.stale {
        out.push_str(&format!(
            "stale baseline {} {}: {} admitted, {} found — tighten with --write-baseline\n",
            d.rule, d.file, d.baseline, d.current
        ));
    }
    out.push_str(&format!(
        "{} files scanned; {} findings ({} allowed by baseline), {} suppressed by pragma — {}\n",
        report.files_scanned,
        report.findings.len(),
        report.baseline_total,
        report.suppressed.len(),
        if report.is_clean() { "clean" } else { "FAIL" }
    ));
    out
}

/// Machine-readable report for CI artifacts.
pub fn render_json(report: &WorkspaceReport) -> String {
    use baseline::quote;
    let finding_json = |f: &Finding| {
        let symbol = match &f.symbol {
            Some(s) => format!(", \"symbol\": {}", quote(s)),
            None => String::new(),
        };
        format!(
            "{{\"rule\": {}, \"file\": {}, \"line\": {}, \"col\": {}, \"message\": {}{symbol}}}",
            quote(f.rule.as_str()),
            quote(&f.file),
            f.line,
            f.col,
            quote(&f.message)
        )
    };
    let delta_json = |d: &BucketDelta| {
        format!(
            "{{\"rule\": {}, \"file\": {}, \"baseline\": {}, \"current\": {}}}",
            quote(&d.rule),
            quote(&d.file),
            d.baseline,
            d.current
        )
    };
    let list = |items: Vec<String>| {
        if items.is_empty() {
            "[]".to_string()
        } else {
            format!("[\n    {}\n  ]", items.join(",\n    "))
        }
    };
    format!(
        "{{\n  \"clean\": {},\n  \"files_scanned\": {},\n  \"baseline_total\": {},\n  \
         \"findings\": {},\n  \"suppressed\": {},\n  \"regressions\": {},\n  \"stale\": {}\n}}\n",
        report.is_clean(),
        report.files_scanned,
        report.baseline_total,
        list(report.findings.iter().map(finding_json).collect()),
        list(report.suppressed.iter().map(finding_json).collect()),
        list(report.ratchet.regressions.iter().map(delta_json).collect()),
        list(report.ratchet.stale.iter().map(delta_json).collect()),
    )
}
