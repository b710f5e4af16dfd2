//! Workspace-wide symbol table and call graph.
//!
//! Every parsed fn becomes a node carrying the *direct* facts the dataflow
//! pass seeds from: unsuppressed panic sites (AA07), nondeterminism sources
//! (AA08), and durability-ordering facts (AA09). Edges are resolved
//! conservatively:
//!
//! * `Type::name(..)` / `Trait::name(..)` → every fn `name` whose impl type
//!   or trait matches the qualifier (`self`/`Self` use the caller's type);
//! * `recv.name(..)` → every impl method called `name` anywhere in the
//!   workspace (trait objects and generic receivers cannot be narrowed
//!   without type inference);
//! * `name(..)` → every free fn called `name`.
//!
//! Callees that resolve to nothing are assumed clean: they are std/vendor
//! fns the analyzer cannot see. That is the documented soundness tradeoff —
//! the graph over-approximates within the workspace and under-approximates
//! outside it, which is the right polarity for a ratcheted lint (workspace
//! regressions are caught; std's panics are the caller's contract to read).
//! `use` imports from `std`/`core`/`alloc` prune false edges when a
//! workspace fn shares a name with an imported std item.

use crate::lexer::{Lexed, TokenKind};
use crate::parser::{self, FnItem};
use crate::rules::{self, FileClass, RuleId};
use std::collections::BTreeMap;

/// A direct fact site inside a fn body.
#[derive(Debug, Clone)]
pub struct Site {
    /// What was found (`.unwrap()`, `panic!`, `indexing`, `Instant`, ...).
    pub what: String,
    pub line: u32,
    pub col: u32,
}

/// One fn in the workspace graph.
#[derive(Debug)]
pub struct FnNode {
    pub file: String,
    pub symbol: String,
    pub name: String,
    pub self_type: Option<String>,
    pub trait_name: Option<String>,
    pub line: u32,
    pub col: u32,
    pub crate_name: Option<String>,
    pub deterministic_core: bool,
    /// Crate whose contract is anytime availability — AA07 reports here.
    pub availability_critical: bool,
    pub allow_panics: bool,
    pub is_test: bool,
    /// Unsuppressed panic sources in the body (AA07 seeds).
    pub panic_sites: Vec<Site>,
    /// True when at least one panic site is of the kind AA01 already
    /// reports (unwrap/expect/panic-macro) — AA07 then skips the direct
    /// finding and only contributes propagation.
    pub panic_reported_by_aa01: bool,
    /// Unsuppressed nondeterminism sources in the body (AA08 seeds).
    pub taint_sites: Vec<Site>,
    /// Fn-level `allow(AA07/AA08/AA09)` pragmas (pragma on the `fn` line or
    /// the line above): the fn is vetted, and propagation stops here.
    pub blocked: Vec<RuleId>,
    /// AA09 local facts (only populated for durability-relevant crates).
    pub raw_write_sites: Vec<Site>,
    pub flush_before_commit: Option<Site>,
    pub ack_without_append: Option<Site>,
    /// Would-be direct findings silenced by a site-level pragma, for the
    /// suppression audit trail.
    pub suppressed_sites: Vec<(RuleId, Site)>,
}

/// The resolved workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    pub nodes: Vec<FnNode>,
    /// `edges[caller] = sorted, deduped callee indices`.
    pub edges: Vec<Vec<usize>>,
}

/// Crates whose file writes must go through `atomic_write_file` (AA09).
const DURABILITY_CRATES: &[&str] = &["durable", "cli", "serve"];

/// Crates whose contract is anytime availability: a panic anywhere in their
/// call closure aborts a superstep (engine), a recovery (durable), or a
/// resident query loop (serve). AA07 findings are *reported* only for fns in
/// these crates; panics elsewhere still seed propagation (a helper crate's
/// unwrap surfaces at the core fn that reaches it) and are AA01's direct
/// business at the leaf.
const AVAILABILITY_CRATES: &[&str] = &["core", "runtime", "durable", "serve", "query"];

/// Method names never resolved to workspace impls. These are the ubiquitous
/// std-container vocabulary: nearly every `.len()`/`.push(..)` in the
/// workspace targets a `Vec`/`BTreeMap`, and resolving them conservatively
/// to every same-named workspace impl would weld the graph into one giant
/// cone. The cost is a missed edge when a *workspace* `len()` panics — which
/// AA01/AA07 still catch directly at that fn's own site.
const STD_VOCAB_METHODS: &[&str] = &[
    "len",
    "is_empty",
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "contains",
    "contains_key",
    "clear",
    "clone",
    "default",
    "entry",
    "extend",
    "drain",
    "as_ref",
    "as_mut",
    "as_str",
    "to_string",
    "to_owned",
    "into",
    "from",
    "fmt",
    "eq",
    "cmp",
    "hash",
    "next",
];

/// Accumulates parsed files, then resolves the graph.
#[derive(Default)]
pub struct Builder {
    nodes: Vec<FnNode>,
    /// Per-node parse leftovers needed for edge resolution.
    calls: Vec<Vec<parser::CallSite>>,
    /// Per-node file index into `imports`.
    file_of: Vec<usize>,
    imports: Vec<BTreeMap<String, String>>,
}

impl Builder {
    /// Parses one non-test file into graph nodes.
    pub fn add_file(&mut self, class: &FileClass, lexed: &Lexed) {
        let parsed = parser::parse(&lexed.tokens);
        let pragmas = rules::pragma_lines(&lexed.comments);
        let file_idx = self.imports.len();
        self.imports.push(parsed.imports);
        let durability = class
            .crate_name
            .as_deref()
            .is_some_and(|c| DURABILITY_CRATES.contains(&c));
        for f in parsed.fns {
            let mut node = FnNode {
                file: class.rel_path.clone(),
                symbol: f.symbol(),
                name: f.name.clone(),
                self_type: f.self_type.clone(),
                trait_name: f.trait_name.clone(),
                line: f.line,
                col: f.col,
                crate_name: class.crate_name.clone(),
                deterministic_core: class.deterministic_core,
                availability_critical: class
                    .crate_name
                    .as_deref()
                    .is_some_and(|c| AVAILABILITY_CRATES.contains(&c)),
                allow_panics: class.allow_panics,
                is_test: f.is_test || class.is_test_code,
                panic_sites: Vec::new(),
                panic_reported_by_aa01: false,
                taint_sites: Vec::new(),
                blocked: fn_level_blocks(&pragmas, f.line),
                raw_write_sites: Vec::new(),
                flush_before_commit: None,
                ack_without_append: None,
                suppressed_sites: Vec::new(),
            };
            scan_panic_sites(lexed, &f, &pragmas, class.is_hot_path, &mut node);
            scan_taint_sites(lexed, &f, &pragmas, &mut node);
            if durability {
                scan_durability(lexed, &f, &pragmas, &mut node);
            }
            self.nodes.push(node);
            self.calls.push(f.calls);
            self.file_of.push(file_idx);
        }
    }

    /// Resolves every call site to node edges.
    pub fn finish(self) -> CallGraph {
        // Symbol tables. Methods keyed by name; typed lookups keyed by
        // (impl type or trait, name); free fns keyed by name.
        let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut typed: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, n) in self.nodes.iter().enumerate() {
            match (&n.self_type, &n.trait_name) {
                (Some(t), tr) => {
                    methods.entry(&n.name).or_default().push(i);
                    typed.entry((t.as_str(), &n.name)).or_default().push(i);
                    if let Some(tr) = tr {
                        if tr != t {
                            typed.entry((tr.as_str(), &n.name)).or_default().push(i);
                        }
                    }
                }
                (None, _) => free.entry(&n.name).or_default().push(i),
            }
        }
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); self.nodes.len()];
        for (caller, calls) in self.calls.iter().enumerate() {
            let imports = &self.imports[self.file_of[caller]];
            let mut out: Vec<usize> = Vec::new();
            for c in calls {
                // A callee imported from std/core/alloc shadows any
                // same-named workspace symbol in this file.
                if c.qualifier.is_none()
                    && imports
                        .get(&c.name)
                        .is_some_and(|path| is_external_path(path))
                {
                    continue;
                }
                match (&c.qualifier, c.is_method) {
                    (_, true) => {
                        if STD_VOCAB_METHODS.contains(&c.name.as_str()) {
                            continue;
                        }
                        if let Some(v) = methods.get(c.name.as_str()) {
                            out.extend_from_slice(v);
                        }
                    }
                    (Some(q), false) => {
                        let q_name = match q.as_str() {
                            // `Self::f()` / `self::f()` resolve in the
                            // caller's own impl.
                            "Self" | "self" => {
                                self.nodes[caller].self_type.clone().unwrap_or_default()
                            }
                            other => {
                                if imports.get(other).is_some_and(|p| is_external_path(p)) {
                                    continue;
                                }
                                other.to_string()
                            }
                        };
                        if let Some(v) = typed.get(&(q_name.as_str(), c.name.as_str())) {
                            out.extend_from_slice(v);
                        } else if q_name.chars().next().is_some_and(|c| c.is_lowercase()) {
                            // `module::helper()` — fall back to free fns by
                            // name (the module path is not tracked).
                            if let Some(v) = free.get(c.name.as_str()) {
                                out.extend_from_slice(v);
                            }
                        }
                    }
                    (None, false) => {
                        // Bare calls resolve like Rust scoping does: fns in
                        // the same file first (module-private helpers), the
                        // workspace only as a fallback (one `use`-imported
                        // definition elsewhere). Without the file-first
                        // step, every test module's private `engine()`
                        // helper would cross-link to all of its namesakes.
                        if let Some(v) = free.get(c.name.as_str()) {
                            let same_file: Vec<usize> = v
                                .iter()
                                .copied()
                                .filter(|&j| self.file_of[j] == self.file_of[caller])
                                .collect();
                            if same_file.is_empty() {
                                out.extend_from_slice(v);
                            } else {
                                out.extend_from_slice(&same_file);
                            }
                        }
                    }
                }
            }
            out.sort_unstable();
            out.dedup();
            edges[caller] = out;
        }
        CallGraph {
            nodes: self.nodes,
            edges,
        }
    }
}

fn is_external_path(path: &str) -> bool {
    matches!(
        path.split("::").next().unwrap_or(""),
        "std" | "core" | "alloc" | "rand" | "rand_chacha" | "proptest"
    )
}

/// Fn-level pragmas: an interprocedural `allow` on the `fn` line or the line
/// directly above vets the whole fn and stops propagation through it.
fn fn_level_blocks(pragmas: &[(RuleId, u32)], fn_line: u32) -> Vec<RuleId> {
    pragmas
        .iter()
        .filter(|(r, l)| {
            matches!(r, RuleId::AA07 | RuleId::AA08 | RuleId::AA09)
                && (*l == fn_line || l + 1 == fn_line)
        })
        .map(|(r, _)| *r)
        .collect()
}

fn site_suppressed(pragmas: &[(RuleId, u32)], rules_ok: &[RuleId], line: u32) -> bool {
    pragmas
        .iter()
        .any(|(r, l)| rules_ok.contains(r) && (*l == line || l + 1 == line))
}

/// Keywords before `[` that make it a pattern/type position, not indexing.
const NOT_INDEXING_PREV: &[&str] = &[
    "let", "in", "return", "else", "match", "mut", "ref", "box", "move", "as", "const", "static",
    "if", "while", "for", "impl", "dyn", "where",
];

/// Direct panic sources: `.unwrap()`/`.expect(`, panic-family macros, and —
/// on hot-path files only — indexing expressions. Indexing is ubiquitous and
/// usually bounds-correct by construction, so treating every `xs[i]` in the
/// workspace as a panic source drowns the signal; on the availability-critical
/// hot path (the superstep inner loops), one out-of-bounds hit still aborts a
/// whole recombination round, so there it seeds. Sites under a reasoned
/// `allow(AA01)`/`allow(AA07)` pragma do not seed (the pragma's reason asserts
/// the invariant that makes the site unreachable or infallible).
fn scan_panic_sites(
    lexed: &Lexed,
    f: &FnItem,
    pragmas: &[(RuleId, u32)],
    index_seeds: bool,
    node: &mut FnNode,
) {
    let toks = &lexed.tokens;
    let ok = [RuleId::AA01, RuleId::AA07];
    for &(a, b) in &f.own_body {
        for i in a..=b.min(toks.len().saturating_sub(1)) {
            let t = &toks[i];
            let next = toks.get(i + 1).map(|n| n.text.as_str());
            let prev = i.checked_sub(1).map(|k| &toks[k]);
            let site = |what: &str| Site {
                what: what.to_string(),
                line: t.line,
                col: t.col,
            };
            let (found, aa01_style): (Option<Site>, bool) = if t.kind == TokenKind::Ident
                && matches!(t.text.as_str(), "unwrap" | "expect")
                && prev.is_some_and(|p| p.text == ".")
                && next == Some("(")
            {
                (Some(site(&format!(".{}()", t.text))), true)
            } else if t.kind == TokenKind::Ident
                && rules::PANIC_MACROS.contains(&t.text.as_str())
                && next == Some("!")
            {
                (Some(site(&format!("{}!", t.text))), true)
            } else if index_seeds
                && t.kind == TokenKind::Punct
                && t.text == "["
                && prev.is_some_and(|p| {
                    matches!(p.text.as_str(), ")" | "]")
                        || (p.kind == TokenKind::Ident
                            && !NOT_INDEXING_PREV.contains(&p.text.as_str()))
                })
            {
                (Some(site("indexing")), false)
            } else {
                (None, false)
            };
            let Some(s) = found else { continue };
            if site_suppressed(pragmas, &ok, s.line) {
                node.suppressed_sites.push((RuleId::AA07, s));
            } else {
                node.panic_reported_by_aa01 |= aa01_style;
                node.panic_sites.push(s);
            }
        }
    }
}

/// Direct nondeterminism sources: wall-clock types, unseeded RNG calls,
/// thread ids, and iteration over hash-ordered collections (matched via the
/// same file-local variable heuristic AA04 uses). `allow(AA04)`/`allow(AA08)`
/// pragmas vet a site.
fn scan_taint_sites(lexed: &Lexed, f: &FnItem, pragmas: &[(RuleId, u32)], node: &mut FnNode) {
    let toks = &lexed.tokens;
    let ok = [RuleId::AA04, RuleId::AA08];
    // File-local hash-typed variable names (`rows: HashMap<..>` / `let m =
    // HashMap::new()`), shared with the AA04 heuristic.
    let mut hash_vars: Vec<&str> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokenKind::Ident && rules::HASH_TYPES.contains(&t.text.as_str()) {
            let named = i
                .checked_sub(2)
                .and_then(|k| toks.get(k))
                .filter(|n| n.kind == TokenKind::Ident)
                .filter(|_| matches!(toks[i - 1].text.as_str(), ":" | "="));
            if let Some(name) = named {
                if !hash_vars.contains(&name.text.as_str()) {
                    hash_vars.push(&name.text);
                }
            }
        }
    }
    for &(a, b) in &f.own_body {
        for i in a..=b.min(toks.len().saturating_sub(1)) {
            let t = &toks[i];
            if t.kind != TokenKind::Ident {
                continue;
            }
            let next = toks.get(i + 1).map(|n| n.text.as_str());
            let name = t.text.as_str();
            let what: Option<String> = if rules::WALL_CLOCK_TYPES.contains(&name) {
                Some(name.to_string())
            } else if rules::UNSEEDED_RNG.contains(&name) && next == Some("(") {
                Some(format!("{name}()"))
            } else if name == "ThreadId"
                || (name == "thread"
                    && next == Some("::")
                    && toks.get(i + 2).is_some_and(|n| n.text == "current"))
            {
                Some("thread id".to_string())
            } else if hash_vars.contains(&name) {
                let method_leak = next == Some(".")
                    && toks
                        .get(i + 2)
                        .is_some_and(|m| rules::ORDER_LEAK_METHODS.contains(&m.text.as_str()))
                    && toks.get(i + 3).is_some_and(|p| p.text == "(");
                let for_leak = {
                    let p1 = i.checked_sub(1).and_then(|k| toks.get(k));
                    let p2 = i.checked_sub(2).and_then(|k| toks.get(k));
                    matches!(p1, Some(p) if p.text == "in")
                        || (matches!(p1, Some(p) if p.text == "&")
                            && matches!(p2, Some(p) if p.text == "in"))
                };
                (method_leak || for_leak).then(|| format!("hash-order iteration over `{name}`"))
            } else {
                None
            };
            let Some(what) = what else { continue };
            let s = Site {
                what,
                line: t.line,
                col: t.col,
            };
            if site_suppressed(pragmas, &ok, s.line) {
                node.suppressed_sites.push((RuleId::AA08, s));
            } else {
                node.taint_sites.push(s);
            }
        }
    }
}

/// AA09 local facts: raw `File::create`/`OpenOptions::new` writes outside
/// `atomic_write_file`; a barrier `.flush(..)` ordered before the
/// group-commit `.commit(..)` in fns that do both; `WriteOutcome::Logged`
/// constructed in a `-> WriteOutcome` fn with no `.append(..)` before it.
fn scan_durability(lexed: &Lexed, f: &FnItem, pragmas: &[(RuleId, u32)], node: &mut FnNode) {
    let toks = &lexed.tokens;
    let ok = [RuleId::AA09];
    let mut first_commit: Option<usize> = None;
    let mut first_flush: Option<usize> = None;
    let mut first_append: Option<usize> = None;
    let mut first_logged: Option<usize> = None;
    for &(a, b) in &f.own_body {
        for i in a..=b.min(toks.len().saturating_sub(1)) {
            let t = &toks[i];
            if t.kind != TokenKind::Ident {
                continue;
            }
            let prev = i.checked_sub(1).map(|k| toks[k].text.as_str());
            let next = toks.get(i + 1).map(|n| n.text.as_str());
            let is_method_call = prev == Some(".") && next == Some("(");
            match t.text.as_str() {
                "create" | "new"
                    if prev == Some("::")
                        && next == Some("(")
                        && i.checked_sub(2).is_some_and(|k| {
                            matches!(toks[k].text.as_str(), "File" | "OpenOptions")
                        })
                        && f.name != "atomic_write_file" =>
                {
                    let s = Site {
                        what: format!("{}::{}", toks[i - 2].text, t.text),
                        line: t.line,
                        col: t.col,
                    };
                    if site_suppressed(pragmas, &ok, s.line) {
                        node.suppressed_sites.push((RuleId::AA09, s));
                    } else {
                        node.raw_write_sites.push(s);
                    }
                }
                "commit" if is_method_call => {
                    first_commit.get_or_insert(i);
                }
                "flush" if is_method_call => {
                    first_flush.get_or_insert(i);
                }
                "append" if is_method_call => {
                    first_append.get_or_insert(i);
                }
                "Logged" if prev == Some("::") => {
                    first_logged.get_or_insert(i);
                }
                _ => {}
            };
        }
    }
    if let (Some(c), Some(fl)) = (first_commit, first_flush) {
        if fl < c {
            let t = &toks[fl];
            let s = Site {
                what: "`.flush(..)` before the group-commit `.commit(..)`".into(),
                line: t.line,
                col: t.col,
            };
            if site_suppressed(pragmas, &ok, s.line) {
                node.suppressed_sites.push((RuleId::AA09, s));
            } else {
                node.flush_before_commit = Some(s);
            }
        }
    }
    // Only fns *returning* WriteOutcome emit acks; fns that merely match on
    // one (clients, tests, renderers) are exempt.
    let returns_outcome = (f.sig.0..f.sig.1).any(|k| toks[k].text == "WriteOutcome");
    if returns_outcome {
        if let Some(lg) = first_logged {
            if first_append.is_none_or(|ap| ap > lg) {
                let t = &toks[lg];
                let s = Site {
                    what: "`WriteOutcome::Logged` ack emitted with no prior `.append(..)`".into(),
                    line: t.line,
                    col: t.col,
                };
                if site_suppressed(pragmas, &ok, s.line) {
                    node.suppressed_sites.push((RuleId::AA09, s));
                } else {
                    node.ack_without_append = Some(s);
                }
            }
        }
    }
}
