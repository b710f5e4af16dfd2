//! The dynamic-update stream language: parsing and application.

use aa_core::AnytimeEngine;
use aa_graph::{VertexId, Weight};
use aa_ingest::{Admission, UpdateOp};
use aa_query::{Confidence, TopKAnswer, TopKTracker};
use aa_serve::Session;

/// One parsed stream command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `ae u v w` — add edge.
    AddEdge(VertexId, VertexId, Weight),
    /// `de u v` — delete edge.
    DeleteEdge(VertexId, VertexId),
    /// `cw u v w` — change edge weight.
    ChangeWeight(VertexId, VertexId, Weight),
    /// `dv v` — delete vertex.
    DeleteVertex(VertexId),
    /// `av a1,a2,…` — add one vertex with unit edges to the anchors.
    AddVertex(Vec<VertexId>),
    /// `step` — one recombination step.
    Step,
    /// `converge` — recombination to convergence.
    Converge,
    /// `rebalance` — migrate rows to rebalance load.
    Rebalance,
    /// `snapshot k` — print the top-k closeness ranking.
    Snapshot(usize),
}

/// Parses one numeric token of a stream line.
fn num_arg<'a, T: std::str::FromStr>(
    toks: &mut impl Iterator<Item = &'a str>,
    lineno: usize,
    what: &str,
) -> Result<T, String> {
    toks.next()
        .ok_or_else(|| format!("line {lineno}: missing {what}"))?
        .parse()
        .map_err(|_| format!("line {lineno}: invalid {what}"))
}

/// Splits one stream line into tokens. Double quotes group a run of
/// characters into (part of) a token with whitespace and `#` taken
/// literally; outside quotes `#` starts a comment that runs to end of line.
/// A naive `split('#')` would truncate quoted arguments mid-token and make
/// the remainder look like a comment instead of being rejected.
fn tokenize(line: &str) -> Result<Vec<String>, String> {
    let mut toks = Vec::new();
    let mut cur = String::new();
    let mut in_token = false;
    let mut chars = line.chars();
    while let Some(c) = chars.next() {
        match c {
            '#' => break,
            '"' => {
                in_token = true;
                loop {
                    match chars.next() {
                        Some('"') => break,
                        Some(inner) => cur.push(inner),
                        None => return Err("unterminated quote".to_string()),
                    }
                }
            }
            c if c.is_whitespace() => {
                if in_token {
                    toks.push(std::mem::take(&mut cur));
                    in_token = false;
                }
            }
            c => {
                in_token = true;
                cur.push(c);
            }
        }
    }
    if in_token {
        toks.push(cur);
    }
    Ok(toks)
}

/// Parses a stream file's contents. Returns `(line number, command)` pairs —
/// the line numbers let [`apply_batch`] failures point back at the offending
/// source line — or a message naming the line that failed to parse.
/// Unconsumed tokens after a complete command are an error, never silently
/// ignored.
pub fn parse_stream(text: &str) -> Result<Vec<(usize, Command)>, String> {
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let tokens = tokenize(raw).map_err(|e| format!("line {lineno}: {e}"))?;
        let mut toks = tokens.iter().map(String::as_str);
        let Some(op) = toks.next() else {
            continue;
        };
        let cmd = match op {
            "ae" => Command::AddEdge(
                num_arg(&mut toks, lineno, "u")?,
                num_arg(&mut toks, lineno, "v")?,
                num_arg(&mut toks, lineno, "w")?,
            ),
            "de" => Command::DeleteEdge(
                num_arg(&mut toks, lineno, "u")?,
                num_arg(&mut toks, lineno, "v")?,
            ),
            "cw" => Command::ChangeWeight(
                num_arg(&mut toks, lineno, "u")?,
                num_arg(&mut toks, lineno, "v")?,
                num_arg(&mut toks, lineno, "w")?,
            ),
            "dv" => Command::DeleteVertex(num_arg(&mut toks, lineno, "v")?),
            "av" => {
                let anchors_tok = toks
                    .next()
                    .ok_or_else(|| format!("line {lineno}: missing anchor list"))?;
                let anchors: Result<Vec<VertexId>, _> =
                    anchors_tok.split(',').map(|a| a.parse()).collect();
                Command::AddVertex(
                    anchors.map_err(|_| format!("line {lineno}: invalid anchor list"))?,
                )
            }
            "step" => Command::Step,
            "converge" => Command::Converge,
            "rebalance" => Command::Rebalance,
            "snapshot" => Command::Snapshot(num_arg::<u32>(&mut toks, lineno, "k")? as usize),
            other => return Err(format!("line {lineno}: unknown command {other:?}")),
        };
        if toks.next().is_some() {
            return Err(format!("line {lineno}: trailing tokens"));
        }
        out.push((lineno, cmd));
    }
    Ok(out)
}

/// Runs one control command (`step`, `converge`, `rebalance`, `snapshot`)
/// against the engine. Returns lines to print (empty for silent commands),
/// or an error for a command that is not a control command. Updates
/// (`ae`/`de`/`cw`/`dv`/`av`) are not control commands: [`apply_batch`]
/// pushes them through the session's ingest pipeline, which validates and
/// phrases their warnings.
pub fn apply(engine: &mut AnytimeEngine, cmd: &Command) -> Result<Vec<String>, String> {
    let out = match cmd {
        Command::Step => {
            engine.rc_step();
            vec![]
        }
        Command::Converge => {
            let steps = engine.run_to_convergence(16 * engine.config().num_procs + 64);
            vec![format!("converged in {steps} steps")]
        }
        Command::Rebalance => {
            let moved = engine.rebalance();
            vec![format!("rebalanced: {moved} vertices migrated")]
        }
        Command::Snapshot(k) => {
            let snap = engine.snapshot();
            let mut out = vec![format!(
                "snapshot at RC{} ({:.1} ms cluster time):",
                snap.rc_step,
                snap.makespan_us / 1000.0
            )];
            for (v, c) in snap.top_k(*k) {
                out.push(format!("  vertex {v:>6}  closeness {c:.6e}"));
            }
            out
        }
        update => return Err(format!("{update:?} is an update, not a control command")),
    };
    Ok(out)
}

/// One-line confidence summary of a top-k answer.
pub(crate) fn confidence_line(tracker: &TopKTracker, ans: &TopKAnswer) -> String {
    match &ans.confidence {
        Confidence::Exact => format!(
            "top-{} confidence: exact{} ({} pivots)",
            ans.k,
            tracker
                .resolution_step()
                .map(|s| format!(", resolved at RC step {s}"))
                .unwrap_or_default(),
            tracker.pivots().len()
        ),
        Confidence::Anytime {
            kth_bound_gap,
            unresolved_candidates,
        } => format!(
            "top-{} confidence: anytime — {} unresolved candidate(s), kth bound gap {:.3e}, \
             {:.1}% of non-members pruned",
            ans.k,
            unresolved_candidates,
            kth_bound_gap,
            tracker.pruned_fraction() * 100.0
        ),
    }
}

/// Converts a mutation command into its ingest op; `None` for control
/// commands (steps, barriers, snapshots), which don't buffer.
fn to_update_op(cmd: &Command) -> Option<UpdateOp> {
    match cmd {
        Command::AddEdge(u, v, w) => Some(UpdateOp::AddEdge(*u, *v, *w)),
        Command::DeleteEdge(u, v) => Some(UpdateOp::DeleteEdge(*u, *v)),
        Command::ChangeWeight(u, v, w) => Some(UpdateOp::Reweight(*u, *v, *w)),
        Command::DeleteVertex(v) => Some(UpdateOp::DeleteVertex(*v)),
        Command::AddVertex(anchors) => Some(UpdateOp::AddVertex {
            anchors: anchors.iter().map(|&a| (a, 1)).collect(),
        }),
        _ => None,
    }
}

/// Applies a parsed command run to a session — the single application
/// route of both `aa analyze --stream` replay and `aa stream` serving.
///
/// Updates are pushed into the session (validated against the projected
/// state, coalesced, and drained per its policy); control commands are
/// barriers — everything buffered is applied before they run through
/// [`apply`]. A trailing barrier guarantees nothing stays buffered. Errors
/// carry the offending stream line number; backpressure decisions surface
/// as printed lines, never as errors.
///
/// A session with a tracker re-observes after every update and control
/// command, so its bounds stay current across batched ingest — `snapshot k`
/// commands then also print the tracker's confidence for the requested k.
pub fn apply_batch(
    session: &mut Session,
    cmds: &[(usize, Command)],
) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    for (lineno, cmd) in cmds {
        let ctx = |e: String| format!("stream line {lineno}: {e}");
        match to_update_op(cmd) {
            Some(op) => {
                let (outcome, _) = session.push(op).map_err(ctx)?;
                if let Some(id) = outcome.new_vertex {
                    out.push(format!("added vertex {id}"));
                }
                out.extend(outcome.warnings);
                match outcome.admission {
                    Admission::Accepted => {
                        session.apply_due().map_err(ctx)?;
                    }
                    Admission::Throttled { retry_after } => {
                        out.push(format!(
                            "backpressure: line {lineno} throttled — backing off until \
                             {retry_after} ops drain"
                        ));
                        // Honor the retry hint instead of busy-resubmitting
                        // into a queue above its watermark: one barrier
                        // drains the whole buffer (≥ retry_after ops), so
                        // the next push is admitted below the watermark
                        // again. Bounded backoff — at most one barrier per
                        // throttle decision.
                        session.apply_all().map_err(ctx)?;
                    }
                    Admission::Shed => {
                        out.push(format!(
                            "warning: line {lineno} shed — ingest queue at capacity ({})",
                            session.ingest_config().queue_cap
                        ));
                        session.apply_due().map_err(ctx)?;
                    }
                }
                session.observe();
            }
            None => {
                session.apply_all().map_err(ctx)?;
                out.extend(apply(session.engine_mut(), cmd).map_err(ctx)?);
                session.observe();
                if let Command::Snapshot(k) = cmd {
                    let ans = session.top_k(*k);
                    if let (Some(ans), Some(t)) = (ans, session.tracker()) {
                        out.push(format!("  {}", confidence_line(t, &ans)));
                    }
                }
            }
        }
    }
    session
        .apply_all()
        .map_err(|e| format!("stream flush: {e}"))?;
    session.observe();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aa_core::{AdditionStrategy, EngineConfig};
    use aa_graph::{generators, Graph};
    use aa_ingest::{DrainPolicy, IngestConfig};
    use aa_query::TopKConfig;

    fn ingest(policy: DrainPolicy) -> IngestConfig {
        IngestConfig {
            policy,
            strategy: AdditionStrategy::RoundRobinPs,
            ..Default::default()
        }
    }

    /// A session over `g`; `SizeTriggered(1)` applies every update as it is
    /// pushed — the one-command-at-a-time replay `aa analyze --stream` runs.
    fn session(g: Graph, procs: usize, ingest: IngestConfig, topk: Option<TopKConfig>) -> Session {
        let config = EngineConfig {
            num_procs: procs,
            ..Default::default()
        };
        Session::new(AnytimeEngine::new(g, config), ingest, topk).unwrap()
    }

    fn one_at_a_time(g: Graph, procs: usize) -> Session {
        session(g, procs, ingest(DrainPolicy::SizeTriggered(1)), None)
    }

    #[test]
    fn parse_full_language() {
        let text = "\
# demo stream
ae 0 5 2
de 1 2
cw 3 4 9
dv 7
av 1,2,3
step
converge
rebalance
snapshot 10
";
        let cmds = parse_stream(text).unwrap();
        assert_eq!(cmds.len(), 9);
        assert_eq!(cmds[0], (2, Command::AddEdge(0, 5, 2)));
        assert_eq!(cmds[4], (6, Command::AddVertex(vec![1, 2, 3])));
        assert_eq!(cmds[7], (9, Command::Rebalance));
        assert_eq!(cmds[8], (10, Command::Snapshot(10)));
    }

    #[test]
    fn parse_errors_name_the_line() {
        assert!(parse_stream("ae 0").unwrap_err().contains("line 1"));
        assert!(parse_stream("\nxx 1").unwrap_err().contains("line 2"));
        assert!(parse_stream("ae 0 1 2 3").unwrap_err().contains("trailing"));
        assert!(parse_stream("av one,two").unwrap_err().contains("anchor"));
        // The fault-injection commands went with the fault layer: each is an
        // unknown command on its own line, whatever its arguments.
        for text in [
            "chaos 0.5",
            "chaos -0.1 0",
            "chaos 0.1 1.5",
            "chaos 1.0 0",
            "fail 1",
        ] {
            let err = parse_stream(&format!("step\n{text}")).unwrap_err();
            assert!(err.contains("line 2: unknown command"), "{err}");
        }
    }

    #[test]
    fn parse_quoted_args_and_comment_stripping() {
        // Quoted tokens parse like bare ones, and a `#` outside quotes still
        // starts a comment.
        let cmds = parse_stream("ae \"0\" 5 2 # comment\nsnapshot \"3\"\nav \"1,2\"\n").unwrap();
        assert_eq!(cmds[0], (1, Command::AddEdge(0, 5, 2)));
        assert_eq!(cmds[1], (2, Command::Snapshot(3)));
        assert_eq!(cmds[2], (3, Command::AddVertex(vec![1, 2])));
        // `#` inside quotes belongs to the token: the bad weight is reported
        // instead of the argument being truncated into a phantom comment.
        assert!(parse_stream("ae 0 5 \"2#x\"")
            .unwrap_err()
            .contains("invalid w"));
        // Unterminated quotes and junk after a command are line-numbered errors.
        let err = parse_stream("\nae 0 1 \"2").unwrap_err();
        assert!(
            err.contains("line 2") && err.contains("unterminated"),
            "{err}"
        );
        assert!(parse_stream("snapshot \"5\" junk")
            .unwrap_err()
            .contains("trailing"));
        assert!(parse_stream("step 1").unwrap_err().contains("trailing"));
    }

    #[test]
    fn apply_batch_coalesces_and_matches_unbatched_replay() {
        let text = "\
ae 0 30 2
de 0 30      # cancels the add above
cw 1 2 7
cw 1 2 4     # last-wins
av 3,4
dv 5
converge
snapshot 3
";
        let cmds = parse_stream(text).unwrap();
        // A path graph pins the edge set: (0,30) is absent, (1,2) exists.
        let build = |policy| {
            let mut s = session(generators::path(40), 3, ingest(policy), None);
            s.converge(256);
            s
        };
        // Unbatched replay: every command applied as it is pushed.
        let mut unbatched = build(DrainPolicy::SizeTriggered(1));
        apply_batch(&mut unbatched, &cmds).unwrap();
        unbatched.converge(256);
        assert_eq!(unbatched.ingest_stats().coalesce_ratio(), 0.0);
        // Batched replay through the same path at the default batch target.
        let mut batched = build(IngestConfig::default().policy);
        let printed = apply_batch(&mut batched, &cmds).unwrap();
        batched.converge(256);
        assert!(printed.iter().any(|l| l.contains("added vertex 40")));
        // The coalescer absorbed the add/delete pair and one reweight.
        assert!(batched.ingest_stats().coalesce_ratio() > 0.0);
        // Same final graph, same exact distances.
        let (unbatched, batched) = (unbatched.engine(), batched.engine());
        let (du, db) = (unbatched.distances_dense(), batched.distances_dense());
        let oracle = aa_graph::algo::apsp_dijkstra(unbatched.graph());
        for v in unbatched.graph().vertices() {
            assert_eq!(du[v as usize], oracle[v as usize]);
            assert_eq!(db[v as usize], oracle[v as usize]);
        }
        assert_eq!(unbatched.graph().edge_count(), batched.graph().edge_count());
    }

    #[test]
    fn apply_batch_keeps_tracker_current_and_snapshot_prints_confidence() {
        let g = generators::barabasi_albert(60, 2, 1, 11);
        let topk = TopKConfig {
            k: 3,
            max_pivots: 8,
        };
        let mut s = session(g, 3, ingest(IngestConfig::default().policy), Some(topk));
        s.converge(256);
        assert!(
            s.tracker().unwrap().is_exact(),
            "converged run must resolve the top-k"
        );
        let cmds = parse_stream("snapshot 3\nae 0 30 1\nde 0 1\nconverge\nsnapshot 3\n").unwrap();
        let printed = apply_batch(&mut s, &cmds).unwrap();
        let confidence_lines: Vec<&String> = printed
            .iter()
            .filter(|l| l.contains("top-3 confidence"))
            .collect();
        assert_eq!(confidence_lines.len(), 2, "{printed:?}");
        assert!(
            confidence_lines[0].contains("exact"),
            "{confidence_lines:?}"
        );
        // The deletion forced a rebuild and the trailing converge resolved
        // the new generation again.
        assert!(
            confidence_lines[1].contains("exact"),
            "{confidence_lines:?}"
        );
        assert!(s.tracker().unwrap().is_exact());
        let ans = s.top_k(3).unwrap();
        let exact = aa_graph::algo::exact_closeness(s.engine().graph());
        let mut ranked: Vec<(VertexId, f64)> = exact
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0.0)
            .map(|(v, &c)| (v as VertexId, c))
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(3);
        assert_eq!(
            ans.ids(),
            ranked.iter().map(|&(v, _)| v).collect::<Vec<_>>()
        );
    }

    #[test]
    fn apply_batch_backs_off_on_throttle_instead_of_shedding() {
        // Tiny queue, drain policy that never triggers on its own: without
        // the backoff, pushes 9..12 would hit hard capacity and be shed.
        let tiny = IngestConfig {
            queue_cap: 8,
            high_watermark: 4,
            ..ingest(DrainPolicy::SizeTriggered(64))
        };
        let mut s = session(generators::path(40), 3, tiny, None);
        s.converge(256);
        let cmds: Vec<(usize, Command)> = (0..12)
            .map(|i| (i + 1, Command::AddEdge(i as u32, i as u32 + 2, 1)))
            .collect();
        let printed = apply_batch(&mut s, &cmds).unwrap();
        let stats = s.ingest_stats();
        assert_eq!(stats.shed, 0, "backoff must prevent shedding");
        assert!(stats.throttled >= 1, "the tiny watermark must throttle");
        assert!(
            stats.flushes >= 2,
            "each throttle decision must drain early, not just the final barrier"
        );
        assert!(printed.iter().any(|l| l.contains("backing off")));
        // Nothing was lost: every edge made it into the engine.
        s.converge(256);
        for i in 0..12u32 {
            let g = s.engine().graph();
            assert!(g.edge_weight(i, i + 2).is_some(), "edge ({i},..)");
        }
    }

    #[test]
    fn apply_stream_end_to_end() {
        let mut s = one_at_a_time(generators::barabasi_albert(40, 2, 1, 3), 3);
        let cmds =
            parse_stream("converge\nae 0 20 1\nav 5,6\nstep\nde 0 1\nconverge\nsnapshot 3\n")
                .unwrap();
        let printed = apply_batch(&mut s, &cmds).unwrap();
        let e = s.engine();
        assert!(e.is_converged());
        assert!(printed.iter().any(|l| l.contains("added vertex 40")));
        assert!(printed.iter().any(|l| l.contains("snapshot")));
        // Final state is exact.
        let dense = e.distances_dense();
        let oracle = aa_graph::algo::apsp_dijkstra(e.graph());
        for v in e.graph().vertices() {
            assert_eq!(dense[v as usize], oracle[v as usize]);
        }
    }

    #[test]
    fn apply_warns_on_noops() {
        let mut s = one_at_a_time(generators::path(5), 2);
        let noop = |s: &mut Session, cmd| apply_batch(s, &[(1, cmd)]).unwrap();
        assert!(noop(&mut s, Command::DeleteEdge(0, 4))[0].contains("not found"));
        assert!(noop(&mut s, Command::DeleteVertex(99))[0].contains("not alive"));
        assert!(noop(&mut s, Command::AddEdge(0, 1, 3))[0].contains("already present"));
        assert!(noop(&mut s, Command::ChangeWeight(0, 1, 1))[0].contains("was a no-op"));
        let warn = noop(&mut s, Command::AddVertex(vec![0, 77]));
        assert!(warn[0].contains("added vertex 5"), "{warn:?}");
        assert!(warn[1].contains("dead anchors skipped: [77]"), "{warn:?}");
    }

    #[test]
    fn apply_rejects_invalid_commands_without_panicking() {
        let mut s = one_at_a_time(generators::path(6), 2);
        // An update is not a control command.
        assert!(apply(s.engine_mut(), &Command::DeleteVertex(0)).is_err());
        let reject = |s: &mut Session, cmd| apply_batch(s, &[(7, cmd)]).unwrap_err();
        // Edge commands touching dead or out-of-range vertices.
        for cmd in [
            Command::AddEdge(0, 500, 1),
            Command::DeleteEdge(700, 0),
            Command::ChangeWeight(0, 99, 3),
        ] {
            let err = reject(&mut s, cmd);
            assert!(
                err.contains("stream line 7") && err.contains("out of range or not alive"),
                "{err}"
            );
        }
        // Zero weights and self-loops are rejected before the graph asserts.
        assert!(reject(&mut s, Command::AddEdge(0, 3, 0)).contains("weight must be at least 1"));
        assert!(
            reject(&mut s, Command::ChangeWeight(0, 1, 0)).contains("weight must be at least 1")
        );
        assert!(reject(&mut s, Command::AddEdge(2, 2, 1)).contains("self-loop (2,2)"));
        assert_eq!(s.ingest_stats().rejected, 6);
        // The engine is still usable afterwards.
        s.converge(64);
        assert!(s.engine().is_converged());
    }
}
