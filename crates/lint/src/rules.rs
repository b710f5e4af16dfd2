//! The AA rule set: token-pattern matchers over [`crate::lexer`] output.
//!
//! Each rule has a stable ID, a one-line rationale tying it to the paper
//! property it protects (see DESIGN.md §10), and span-accurate findings.
//! Findings can be suppressed in source with
//! `// aa-lint: allow(AA04, reason why this occurrence is sound)` placed on
//! the offending line or the line directly above it. A pragma without a
//! reason is itself a finding (AA00): the suppression ledger is part of the
//! audit trail.

use crate::lexer::{lex, Comment, Lexed, Token, TokenKind};

/// Stable rule identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// Meta: malformed or reason-less suppression pragma.
    AA00,
    /// No `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!`
    /// in non-test library code.
    AA01,
    /// No `partial_cmp(..).unwrap()` — NaN-safe orderings require
    /// `total_cmp` (or an explicit NaN policy).
    AA02,
    /// No `==`/`!=` against float literals — estimates need epsilon
    /// comparisons or integer hop counts.
    AA03,
    /// Determinism: no wall-clock types, no unseeded RNG, no iteration over
    /// `HashMap`/`HashSet` in the deterministic core (`aa-core`,
    /// `aa-runtime`).
    AA04,
    /// No lossy `as` narrowing / float→int casts in engine hot paths.
    AA05,
    /// Every library crate root must declare `#![forbid(unsafe_code)]`.
    AA06,
    /// Interprocedural: no non-test library fn whose call-graph closure
    /// reaches `panic!`/`unwrap`/`expect`/indexing without a reasoned pragma.
    AA07,
    /// Interprocedural: no deterministic-core fn whose call-graph closure
    /// reaches a nondeterminism source (wall clock, unseeded RNG, hash-order
    /// iteration, thread ids) outside the core — the static complement of
    /// the intra-file AA04 matcher.
    AA08,
    /// Durability ordering: file writes in `aa-durable`/the CLI go through
    /// `atomic_write_file` (write→fsync→rename), barrier flushes happen
    /// after the group-commit marker, and `WriteOutcome::Logged` acks are
    /// only emitted on paths that passed through the WAL append.
    AA09,
}

impl RuleId {
    pub const ALL: [RuleId; 10] = [
        RuleId::AA00,
        RuleId::AA01,
        RuleId::AA02,
        RuleId::AA03,
        RuleId::AA04,
        RuleId::AA05,
        RuleId::AA06,
        RuleId::AA07,
        RuleId::AA08,
        RuleId::AA09,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::AA00 => "AA00",
            RuleId::AA01 => "AA01",
            RuleId::AA02 => "AA02",
            RuleId::AA03 => "AA03",
            RuleId::AA04 => "AA04",
            RuleId::AA05 => "AA05",
            RuleId::AA06 => "AA06",
            RuleId::AA07 => "AA07",
            RuleId::AA08 => "AA08",
            RuleId::AA09 => "AA09",
        }
    }

    pub fn parse(s: &str) -> Option<RuleId> {
        RuleId::ALL.iter().copied().find(|r| r.as_str() == s)
    }

    /// The invariant the rule protects, for reports.
    pub fn rationale(self) -> &'static str {
        match self {
            RuleId::AA00 => "suppressions must carry an auditable reason",
            RuleId::AA01 => "the anytime core must degrade, not abort: partial results stay valid",
            RuleId::AA02 => "rankings must be NaN-safe: estimates and exact values mix freely",
            RuleId::AA03 => "distance/centrality estimates are bounds, not exact values",
            RuleId::AA04 => "recombination must be deterministic so seeded runs replay exactly",
            RuleId::AA05 => "silent truncation corrupts distance bounds instead of failing loudly",
            RuleId::AA06 => "the memory-safety argument is workspace-wide, not per-review",
            RuleId::AA07 => {
                "anytime availability: a panic two calls deep still aborts the superstep"
            }
            RuleId::AA08 => {
                "sim-as-oracle differential testing needs the whole call closure deterministic"
            }
            RuleId::AA09 => "acks ahead of the group-commit marker lie to clients across crashes",
        }
    }
}

/// One finding, pointing at a source span.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: RuleId,
    /// Workspace-relative path (stable across machines; baseline key).
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
    /// For interprocedural rules (AA07–AA09): the `Type::fn` symbol the
    /// finding is attached to. Symbol-keyed findings ratchet per-fn (baseline
    /// bucket `file#symbol`), so fixing one fn cannot mask a regression in
    /// another fn of the same file.
    pub symbol: Option<String>,
}

/// What kind of code a file holds — decides which rules apply.
#[derive(Debug, Clone, Default)]
pub struct FileClass {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// The `crates/<name>` directory the file lives under, if any.
    pub crate_name: Option<String>,
    /// Whole file is test/bench/example code (AA01–AA03 exempt).
    pub is_test_code: bool,
    /// Crate-level exemption from AA01 (cli and bench crates: operator
    /// tooling may panic on broken input).
    pub allow_panics: bool,
    /// File is on the engine hot path (AA05 applies).
    pub is_hot_path: bool,
    /// File is a library crate root (AA06 applies).
    pub is_lib_root: bool,
    /// Crate is part of the deterministic core (AA04 applies).
    pub deterministic_core: bool,
}

/// A parsed suppression pragma.
#[derive(Debug, Clone)]
struct Pragma {
    rule: RuleId,
    /// Line the pragma is attached to (its own line; it also covers the
    /// next line so a standalone comment can precede the offending code).
    line: u32,
}

/// Per-file analysis result.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Findings that survived pragma suppression.
    pub findings: Vec<Finding>,
    /// Findings silenced by a pragma (kept for the JSON audit trail).
    pub suppressed: Vec<Finding>,
}

/// Analyzes one file's source text under the given classification.
pub fn check_source(class: &FileClass, src: &str) -> FileReport {
    check_lexed(class, &lex(src))
}

/// [`check_source`] over an already-lexed file, so the workspace driver can
/// lex once and share the token stream with the interprocedural passes.
pub fn check_lexed(class: &FileClass, lexed: &Lexed) -> FileReport {
    let test_ranges = test_ranges(&lexed.tokens);
    let in_test = |idx: usize| test_ranges.iter().any(|&(a, b)| idx >= a && idx <= b);

    let mut raw: Vec<Finding> = Vec::new();
    let (pragmas, mut pragma_findings) = parse_pragmas(class, &lexed.comments);
    raw.append(&mut pragma_findings);

    // AA02 runs before AA01 and claims the `unwrap` it consumes, so a
    // `partial_cmp(..).unwrap()` chain reports once, under the sharper rule.
    let mut claimed: Vec<usize> = Vec::new();
    if !class.is_test_code {
        check_aa02(class, &lexed.tokens, &in_test, &mut raw, &mut claimed);
        if !class.allow_panics {
            check_aa01(class, &lexed.tokens, &in_test, &claimed, &mut raw);
        }
        check_aa03(class, &lexed.tokens, &in_test, &mut raw);
        if class.deterministic_core {
            check_aa04(class, &lexed.tokens, &in_test, &mut raw);
        }
        if class.is_hot_path {
            check_aa05(class, &lexed.tokens, &in_test, &mut raw);
        }
    }
    if class.is_lib_root {
        check_aa06(class, lexed, &mut raw);
    }

    let mut report = FileReport::default();
    for f in raw {
        let suppressed = f.rule != RuleId::AA00
            && pragmas
                .iter()
                .any(|p| p.rule == f.rule && (p.line == f.line || p.line + 1 == f.line));
        if suppressed {
            report.suppressed.push(f);
        } else {
            report.findings.push(f);
        }
    }
    report
        .findings
        .sort_by_key(|f| (f.line, f.col, f.rule as u8));
    report
}

fn finding(class: &FileClass, rule: RuleId, tok: &Token, message: String) -> Finding {
    Finding {
        rule,
        file: class.rel_path.clone(),
        line: tok.line,
        col: tok.col,
        message,
        symbol: None,
    }
}

/// Parses one comment as a pragma: `None` if the comment lacks the pragma
/// prefix, `Ok(rule)` for a well-formed `allow(RULE, reason)`, `Err(msg)`
/// for a malformed or reason-less one.
fn parse_pragma(text: &str) -> Option<Result<RuleId, String>> {
    let at = text.find("aa-lint:")?;
    let rest = text[at + "aa-lint:".len()..].trim_start();
    let Some(body) = rest
        .strip_prefix("allow(")
        .and_then(|r| r.split(')').next())
    else {
        return Some(Err("expected `allow(RULE_ID, reason)`".into()));
    };
    let (rule_str, reason) = match body.split_once(',') {
        Some((r, why)) => (r.trim(), why.trim()),
        None => (body.trim(), ""),
    };
    let Some(rule) = RuleId::parse(rule_str) else {
        return Some(Err(format!("unknown rule id {rule_str:?}")));
    };
    if reason.is_empty() {
        return Some(Err(format!(
            "allow({}) needs a reason: `allow({}, why this is sound)`",
            rule.as_str(),
            rule.as_str()
        )));
    }
    Some(Ok(rule))
}

/// The well-formed `(rule, line)` suppression pragmas in a file, for the
/// interprocedural passes (which attach fn-level pragmas by line). A pragma
/// covers its own line and the line directly below it.
pub fn pragma_lines(comments: &[Comment]) -> Vec<(RuleId, u32)> {
    comments
        .iter()
        .filter_map(|c| match parse_pragma(&c.text) {
            Some(Ok(rule)) => Some((rule, c.end_line)),
            _ => None,
        })
        .collect()
}

/// Parses `allow(<rule>, <reason>)` suppression pragmas out of comments.
/// Malformed pragmas and pragmas without a reason become AA00 findings — a
/// silent suppression is worse than the finding it hides.
fn parse_pragmas(class: &FileClass, comments: &[Comment]) -> (Vec<Pragma>, Vec<Finding>) {
    let mut pragmas = Vec::new();
    let mut findings = Vec::new();
    for c in comments {
        match parse_pragma(&c.text) {
            None => {}
            Some(Ok(rule)) => pragmas.push(Pragma {
                rule,
                line: c.end_line,
            }),
            Some(Err(msg)) => findings.push(Finding {
                rule: RuleId::AA00,
                file: class.rel_path.clone(),
                line: c.end_line,
                col: 1,
                message: format!("malformed aa-lint pragma: {msg}"),
                symbol: None,
            }),
        }
    }
    (pragmas, findings)
}

/// Finds token-index ranges covered by `#[cfg(test)]` / `#[test]` items, so
/// the in-file test modules every crate carries are exempt from AA01–AA05.
pub(crate) fn test_ranges(toks: &[Token]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].kind == TokenKind::Punct && toks[i].text == "#") {
            i += 1;
            continue;
        }
        let Some((attr_end, is_test_attr)) = scan_attribute(toks, i) else {
            i += 1;
            continue;
        };
        if !is_test_attr {
            i = attr_end + 1;
            continue;
        }
        // Skip any further attributes between #[cfg(test)] and the item.
        let mut j = attr_end + 1;
        while j < toks.len() && toks[j].kind == TokenKind::Punct && toks[j].text == "#" {
            match scan_attribute(toks, j) {
                Some((e, _)) => j = e + 1,
                None => break,
            }
        }
        // The item body is either brace-delimited (mod/fn/impl) or ends at
        // the first top-level `;` (use/static). Track (), [] nesting so a
        // `;` inside an array type does not end the region early.
        let mut depth_round = 0i32;
        let mut depth_square = 0i32;
        let mut end = j;
        while end < toks.len() {
            let t = &toks[end];
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "(" => depth_round += 1,
                    ")" => depth_round -= 1,
                    "[" => depth_square += 1,
                    "]" => depth_square -= 1,
                    ";" if depth_round == 0 && depth_square == 0 => break,
                    "{" if depth_round == 0 && depth_square == 0 => {
                        end = match_brace(toks, end);
                        break;
                    }
                    _ => {}
                }
            }
            end += 1;
        }
        ranges.push((i, end.min(toks.len().saturating_sub(1))));
        i = end + 1;
    }
    ranges
}

/// Scans an attribute starting at the `#` token; returns the index of the
/// closing `]` and whether the attribute marks test-only code.
fn scan_attribute(toks: &[Token], hash: usize) -> Option<(usize, bool)> {
    let mut i = hash + 1;
    // Inner attribute `#![...]`.
    if toks.get(i).is_some_and(|t| t.text == "!") {
        i += 1;
    }
    if toks.get(i).is_none_or(|t| t.text != "[") {
        return None;
    }
    let mut depth = 0i32;
    let mut saw_cfg = false;
    let mut saw_test = false;
    let mut saw_not = false; // #[cfg(not(test))] is emphatically NOT test code
    let mut only_test = true; // true if the attribute is exactly #[test]
    let mut idents = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        match (t.kind, t.text.as_str()) {
            (TokenKind::Punct, "[") => depth += 1,
            (TokenKind::Punct, "]") => {
                depth -= 1;
                if depth == 0 {
                    let is_test =
                        (saw_cfg && saw_test && !saw_not) || (only_test && saw_test && idents == 1);
                    return Some((i, is_test));
                }
            }
            (TokenKind::Ident, name) => {
                idents += 1;
                match name {
                    "cfg" => saw_cfg = true,
                    "test" => saw_test = true,
                    "not" => saw_not = true,
                    _ => only_test = false,
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Index of the `}` matching the `{` at `open` (or the last token).
pub(crate) fn match_brace(toks: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return i;
                    }
                }
                _ => {}
            }
        }
    }
    toks.len().saturating_sub(1)
}

pub(crate) const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// AA01: no `.unwrap()` / `.expect(..)` / panic-family macros in non-test
/// library code.
fn check_aa01(
    class: &FileClass,
    toks: &[Token],
    in_test: &dyn Fn(usize) -> bool,
    claimed: &[usize],
    out: &mut Vec<Finding>,
) {
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident || in_test(i) || claimed.contains(&i) {
            continue;
        }
        let prev_dot = i > 0 && toks[i - 1].text == ".";
        let next = toks.get(i + 1).map(|t| t.text.as_str());
        match t.text.as_str() {
            "unwrap" | "expect" if prev_dot && next == Some("(") => {
                out.push(finding(
                    class,
                    RuleId::AA01,
                    t,
                    format!(
                        "`.{}()` in library code: return a Result with context \
                         (the anytime engine must degrade, not abort)",
                        t.text
                    ),
                ));
            }
            m if PANIC_MACROS.contains(&m) && next == Some("!") => {
                out.push(finding(
                    class,
                    RuleId::AA01,
                    t,
                    format!("`{m}!` in library code: surface an error instead of aborting"),
                ));
            }
            _ => {}
        }
    }
}

/// AA02: `partial_cmp(..).unwrap()` / `.expect(..)` — NaN panics in sorts.
fn check_aa02(
    class: &FileClass,
    toks: &[Token],
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Finding>,
    claimed: &mut Vec<usize>,
) {
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident || t.text != "partial_cmp" || in_test(i) {
            continue;
        }
        if toks.get(i + 1).is_none_or(|t| t.text != "(") {
            continue;
        }
        // Find the matching `)` of the partial_cmp call.
        let mut depth = 0i32;
        let mut j = i + 1;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let dot = j + 1;
        let method = j + 2;
        if toks.get(dot).is_some_and(|t| t.text == ".")
            && toks
                .get(method)
                .is_some_and(|t| t.text == "unwrap" || t.text == "expect")
        {
            claimed.push(method);
            out.push(finding(
                class,
                RuleId::AA02,
                t,
                format!(
                    "`partial_cmp(..).{}()` panics on NaN: use `total_cmp` \
                     (estimates and exact values mix in rankings)",
                    toks[method].text
                ),
            ));
        }
    }
}

const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];
const NARROW_INT_TYPES: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// AA03: `==` / `!=` against a float literal.
fn check_aa03(
    class: &FileClass,
    toks: &[Token],
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Finding>,
) {
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Punct || (t.text != "==" && t.text != "!=") || in_test(i) {
            continue;
        }
        let float_neighbour = [i.checked_sub(1), Some(i + 1)]
            .into_iter()
            .flatten()
            .filter_map(|k| toks.get(k))
            .any(|n| n.kind == TokenKind::Float);
        if float_neighbour {
            out.push(finding(
                class,
                RuleId::AA03,
                t,
                format!(
                    "float `{}` comparison: distance/centrality estimates need an \
                     epsilon (or compare integer hops)",
                    t.text
                ),
            ));
        }
    }
}

pub(crate) const WALL_CLOCK_TYPES: &[&str] = &["Instant", "SystemTime"];
pub(crate) const UNSEEDED_RNG: &[&str] = &["thread_rng", "from_entropy", "from_os_rng", "random"];
pub(crate) const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];
pub(crate) const ORDER_LEAK_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
];

/// AA04 (deterministic core only): wall clocks, unseeded RNG, and iteration
/// over hash-ordered collections.
fn check_aa04(
    class: &FileClass,
    toks: &[Token],
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Finding>,
) {
    // Pass 1: find identifiers declared with a HashMap/HashSet type in this
    // file (`name: HashMap<..>` fields/params, `let name = HashMap::new()`).
    let mut hash_vars: Vec<&str> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident || !HASH_TYPES.contains(&t.text.as_str()) {
            continue;
        }
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
    let mut last_line = 0u32;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident || in_test(i) {
            continue;
        }
        let name = t.text.as_str();
        if WALL_CLOCK_TYPES.contains(&name) {
            // One finding per line: `Instant::now() - start` style lines
            // mention the type more than once.
            if t.line != last_line {
                last_line = t.line;
                out.push(finding(
                    class,
                    RuleId::AA04,
                    t,
                    format!(
                        "`{name}` in the deterministic core: wall-clock values break \
                         seeded replay (use LogP virtual clocks)"
                    ),
                ));
            }
            continue;
        }
        if UNSEEDED_RNG.contains(&name) && toks.get(i + 1).is_some_and(|n| n.text == "(") {
            out.push(finding(
                class,
                RuleId::AA04,
                t,
                format!(
                    "`{name}()` is unseeded: every RNG in the core must derive from the run seed"
                ),
            ));
            continue;
        }
        // Iteration over a known hash-ordered variable.
        if hash_vars.contains(&name) {
            let method_leak = toks.get(i + 1).is_some_and(|n| n.text == ".")
                && toks
                    .get(i + 2)
                    .is_some_and(|m| ORDER_LEAK_METHODS.contains(&m.text.as_str()))
                && toks.get(i + 3).is_some_and(|p| p.text == "(");
            let for_loop_leak = {
                let p1 = i.checked_sub(1).and_then(|k| toks.get(k));
                let p2 = i.checked_sub(2).and_then(|k| toks.get(k));
                matches!(p1, Some(p) if p.text == "in")
                    || (matches!(p1, Some(p) if p.text == "&")
                        && matches!(p2, Some(p) if p.text == "in"))
            };
            if method_leak || for_loop_leak {
                out.push(finding(
                    class,
                    RuleId::AA04,
                    t,
                    format!(
                        "iteration over hash-ordered `{name}`: order feeds downstream \
                         state — use a BTree collection or sort first"
                    ),
                ));
            }
        }
    }
}

/// AA05 (hot-path files only): narrowing `as` casts and float→int `as`.
fn check_aa05(
    class: &FileClass,
    toks: &[Token],
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Finding>,
) {
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident || t.text != "as" || in_test(i) {
            continue;
        }
        let Some(target) = toks.get(i + 1) else {
            continue;
        };
        let target_ty = target.text.as_str();
        let from_float = i > 0 && toks[i - 1].kind == TokenKind::Float;
        if from_float && INT_TYPES.contains(&target_ty) {
            out.push(finding(
                class,
                RuleId::AA05,
                t,
                format!(
                    "float→`{target_ty}` `as` cast truncates silently: use a rounding \
                     helper with an explicit policy"
                ),
            ));
        } else if NARROW_INT_TYPES.contains(&target_ty) {
            out.push(finding(
                class,
                RuleId::AA05,
                t,
                format!(
                    "narrowing `as {target_ty}` on a hot path: a silently wrapped id/distance \
                     corrupts bounds — use `try_from` or a checked helper"
                ),
            ));
        }
    }
}

/// AA06: library crate roots must carry `#![forbid(unsafe_code)]`.
fn check_aa06(class: &FileClass, lexed: &Lexed, out: &mut Vec<Finding>) {
    let toks = &lexed.tokens;
    let has_forbid = toks.windows(7).any(|w| {
        w[0].text == "#"
            && w[1].text == "!"
            && w[2].text == "["
            && w[3].text == "forbid"
            && w[4].text == "("
            && w[5].text == "unsafe_code"
            && w[6].text == ")"
    });
    if !has_forbid {
        out.push(Finding {
            rule: RuleId::AA06,
            file: class.rel_path.clone(),
            line: 1,
            col: 1,
            message: "library crate root is missing `#![forbid(unsafe_code)]`".into(),
            symbol: None,
        });
    }
}
