//! One driver: the same seeded update schedule pushed through a bare
//! [`Session`], through a [`Server`] fed only writes, and through the
//! `aa stream` front-end (its `apply_batch` loop and the whole
//! `stream_serve` command) must end in the same state — distances,
//! closeness, RC steps, ingest flushes and actions, tracker partition — on
//! both backends. The durable variant adds: a session and a server over
//! `SimStorage` write byte-identical WAL segments, and recovery from either
//! equals the live engine.
//!
//! The front-ends differ in *when* they look (the server observes once per
//! turn, the stream after every update, the bare session every superstep)
//! and must not differ in what they end up with: none of them owns a step,
//! a flush or a commit of its own.
//!
//! The same `Session` also holds coalesced batching to its throughput bar:
//! batch 64 against one-at-a-time serving of a hub-flapping R-MAT feed.

use aa_cli::commands::{stream_serve, StreamOpts};
use aa_cli::stream::{apply_batch, parse_stream};
use aa_cli::{load_graph, save_graph, Format};
use aa_core::{AnytimeEngine, EngineConfig};
use aa_durable::{recover, DurabilityConfig, SimStorage, Storage};
use aa_graph::rmat::{rmat, RmatParams};
use aa_graph::{generators, Graph, VertexId, Weight};
use aa_ingest::{DrainPolicy, IngestConfig, IngestStats, UpdateOp};
use aa_query::{TopKConfig, TopKTracker};
use aa_runtime::BackendKind;
use aa_serve::{ServeConfig, Server, Session};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::path::{Path, PathBuf};

const PROCS: usize = 3;
const BATCH: usize = 4;
const ROUNDS: usize = 5;
const BUDGET: usize = 16 * PROCS + 64;

/// Writes the base graph where `aa stream` can load it and hands back what
/// the loader makes of it, so every driver starts from the very same graph.
fn base_graph(dir: &Path) -> (PathBuf, Graph) {
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join("base.txt");
    let g = generators::barabasi_albert(48, 2, 1, 19);
    save_graph(&g, &path, Some(Format::EdgeList)).unwrap();
    let loaded = load_graph(&path, Some(Format::EdgeList)).unwrap();
    (path, loaded)
}

fn engine(g: &Graph, backend: BackendKind) -> AnytimeEngine {
    let threads = match backend {
        BackendKind::Sim => 0,
        BackendKind::Threads => 2,
    };
    AnytimeEngine::new(
        g.clone(),
        EngineConfig {
            num_procs: PROCS,
            backend,
            threads,
            ..Default::default()
        },
    )
}

/// The drain policy `aa stream --batch BATCH` assembles.
fn ingest() -> IngestConfig {
    IngestConfig {
        policy: DrainPolicy::SizeTriggered(BATCH),
        ..Default::default()
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        ingest: ingest(),
        ..Default::default()
    }
}

/// `ROUNDS` rounds of `BATCH` updates, every one effective against the
/// evolving graph and no two in a round touching the same pair — so each
/// round is exactly one flush of `BATCH` actions however it is driven.
fn schedule(g: &Graph, seed: u64) -> Vec<Vec<UpdateOp>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut shadow = g.clone();
    let mut rounds = Vec::new();
    for _ in 0..ROUNDS {
        let mut round = Vec::new();
        let mut touched: Vec<(VertexId, VertexId)> = Vec::new();
        let alive: Vec<VertexId> = shadow.vertices().collect();
        while round.len() < BATCH {
            if round.is_empty() {
                let a = alive[rng.gen_range(0..alive.len())];
                let b = alive[rng.gen_range(0..alive.len())];
                let mut anchors = vec![(a, 1)];
                if b != a {
                    anchors.push((b, 1));
                }
                round.push(UpdateOp::AddVertex { anchors });
                continue;
            }
            let u = alive[rng.gen_range(0..alive.len())];
            let v = alive[rng.gen_range(0..alive.len())];
            let pair = (u.min(v), u.max(v));
            if u == v || touched.contains(&pair) {
                continue;
            }
            touched.push(pair);
            round.push(match shadow.edge_weight(u, v) {
                None => UpdateOp::AddEdge(u, v, rng.gen_range(1..=4)),
                Some(w) if shadow.degree(u) > 1 && shadow.degree(v) > 1 && w % 2 == 0 => {
                    UpdateOp::DeleteEdge(u, v)
                }
                Some(w) => UpdateOp::Reweight(u, v, w % 4 + 1),
            });
        }
        for op in &round {
            match op {
                UpdateOp::AddEdge(u, v, w) => {
                    shadow.add_edge(*u, *v, *w);
                }
                UpdateOp::DeleteEdge(u, v) => {
                    shadow.remove_edge(*u, *v);
                }
                UpdateOp::Reweight(u, v, w) => {
                    shadow.set_edge_weight(*u, *v, *w);
                }
                UpdateOp::AddVertex { anchors } => {
                    let id = shadow.add_vertex();
                    for &(a, w) in anchors {
                        shadow.add_edge(id, a, w);
                    }
                }
                UpdateOp::DeleteVertex(_) => unreachable!("the schedule deletes no vertex"),
            }
        }
        rounds.push(round);
    }
    rounds
}

/// The schedule in the stream language, one `converge` barrier per round.
fn stream_text(rounds: &[Vec<UpdateOp>]) -> String {
    let mut text = String::new();
    for round in rounds {
        for op in round {
            text.push_str(&match op {
                UpdateOp::AddEdge(u, v, w) => format!("ae {u} {v} {w}\n"),
                UpdateOp::DeleteEdge(u, v) => format!("de {u} {v}\n"),
                UpdateOp::Reweight(u, v, w) => format!("cw {u} {v} {w}\n"),
                UpdateOp::AddVertex { anchors } => {
                    let ids: Vec<String> = anchors.iter().map(|(a, _)| a.to_string()).collect();
                    format!("av {}\n", ids.join(","))
                }
                UpdateOp::DeleteVertex(v) => format!("dv {v}\n"),
            });
        }
        text.push_str("converge\n");
    }
    text
}

/// Where a driver ended.
#[derive(Debug, PartialEq)]
struct End {
    distances: Vec<Vec<Weight>>,
    closeness: Vec<f64>,
    rc_steps: usize,
    flushes: u64,
    actions_out: u64,
    partition: Option<(Vec<VertexId>, Vec<VertexId>, Vec<VertexId>)>,
}

fn end(engine: &mut AnytimeEngine, ingest: IngestStats, tracker: Option<&TopKTracker>) -> End {
    assert!(engine.is_converged());
    let k = TopKConfig::default().k;
    End {
        distances: engine.distances_dense(),
        closeness: engine.snapshot().closeness,
        rc_steps: engine.rc_steps(),
        flushes: ingest.flushes,
        actions_out: ingest.actions_out,
        partition: tracker.and_then(|t| t.partition(k)),
    }
}

fn session_end(s: &mut Session) -> End {
    let (stats, tracker) = (s.ingest_stats(), s.tracker().cloned());
    end(s.engine_mut(), stats, tracker.as_ref())
}

fn server_end(s: &mut Server) -> End {
    let (stats, tracker) = (s.ingest_stats(), s.topk_tracker().cloned());
    end(s.engine_mut(), stats, tracker.as_ref())
}

/// The bare session: a round is pushed, applied at once, and converged.
fn drive_session(s: &mut Session, rounds: &[Vec<UpdateOp>]) {
    s.converge(BUDGET);
    for round in rounds {
        for op in round {
            let (outcome, _) = s.push(op.clone()).unwrap();
            assert!(outcome.enqueued, "{op:?} must be effective");
        }
        assert!(s.apply_all().unwrap().commit_error.is_none());
        s.converge(BUDGET);
    }
}

/// The server sees writes only; `drain` runs turns until it has converged.
fn drive_server(s: &mut Server, rounds: &[Vec<UpdateOp>]) {
    s.drain(BUDGET).unwrap();
    for round in rounds {
        for op in round {
            assert!(s.submit_write(op.clone()).is_admitted(), "{op:?}");
        }
        s.drain(BUDGET).unwrap();
    }
}

fn one_schedule_three_front_ends(backend: BackendKind, name: &str) {
    let dir = std::env::temp_dir().join(format!("aa_session_{name}"));
    let (graph_path, g) = base_graph(&dir);
    let rounds = schedule(&g, 0x5E55);
    let topk = Some(TopKConfig::default());

    let mut bare = Session::new(engine(&g, backend), ingest(), topk).unwrap();
    drive_session(&mut bare, &rounds);
    let want = session_end(&mut bare);
    assert_eq!(want.flushes, ROUNDS as u64);
    assert_eq!(want.actions_out, (ROUNDS * BATCH) as u64);
    assert!(want.partition.is_some(), "the tracker must have an answer");

    let mut server = Server::new(engine(&g, backend), serve_config()).unwrap();
    drive_server(&mut server, &rounds);
    assert_eq!(server_end(&mut server), want, "server fed only writes");

    let text = stream_text(&rounds);
    let mut streamed = Session::new(engine(&g, backend), ingest(), topk).unwrap();
    streamed.converge(BUDGET);
    apply_batch(&mut streamed, &parse_stream(&text).unwrap()).unwrap();
    streamed.converge(BUDGET);
    assert_eq!(session_end(&mut streamed), want, "aa stream's apply_batch");

    // The command itself prints what the bare session ended on.
    let updates = dir.join("updates.stream");
    std::fs::write(&updates, &text).unwrap();
    let report = stream_serve(&StreamOpts {
        input: graph_path,
        format: Some(Format::EdgeList),
        updates,
        procs: PROCS,
        top: 5,
        top_k: Some(TopKConfig::default().k),
        batch: BATCH,
        backend,
        threads: engine(&g, backend).config().threads,
        ..Default::default()
    })
    .unwrap();
    let expect = [
        format!(
            "→ {} engine actions in {} flushes",
            want.actions_out, want.flushes
        ),
        format!("over {} RC steps)", want.rc_steps),
    ];
    for line in &expect {
        assert!(report.contains(line), "missing {line:?} in:\n{report}");
    }
    for (v, c) in bare.engine_mut().snapshot().top_k(5) {
        let line = format!("  vertex {v:>8}  closeness {c:.6e}");
        assert!(report.contains(&line), "missing {line:?} in:\n{report}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn one_schedule_three_front_ends_on_sim() {
    one_schedule_three_front_ends(BackendKind::Sim, "sim");
}

#[test]
fn one_schedule_three_front_ends_on_threads() {
    one_schedule_three_front_ends(BackendKind::Threads, "threads");
}

/// Every WAL segment on `sim` after a `kill -9`, by name.
fn wal_segments(sim: &SimStorage) -> Vec<(String, Vec<u8>)> {
    sim.kill();
    let mut st = sim.clone();
    let mut names = Storage::list(&st).unwrap();
    names.retain(|n| n.ends_with(".aawl"));
    names.sort();
    names
        .into_iter()
        .map(|n| {
            let bytes = st.read(&n).unwrap();
            (n, bytes)
        })
        .collect()
}

#[test]
fn durable_session_and_server_write_the_same_wal_and_recover_to_live() {
    let dir = std::env::temp_dir().join("aa_session_durable");
    let (_, g) = base_graph(&dir);
    std::fs::remove_dir_all(&dir).ok();
    let rounds = schedule(&g, 0xD0_5E55);
    let base = || engine(&g, BackendKind::Sim);
    // Checkpoints only at close: the comparison is killed before either.
    let durability = DurabilityConfig {
        checkpoint_every_turns: 0,
    };

    let sim_a = SimStorage::new();
    let topk = Some(TopKConfig::default());
    let (mut bare, recovery) =
        Session::open_durable(Box::new(sim_a.clone()), base(), ingest(), topk, durability).unwrap();
    assert_eq!(recovery.next_seq, 1);
    drive_session(&mut bare, &rounds);
    let want = session_end(&mut bare);

    let sim_b = SimStorage::new();
    let (mut server, _) =
        Server::open_durable(Box::new(sim_b.clone()), base(), serve_config(), durability).unwrap();
    drive_server(&mut server, &rounds);
    assert_eq!(server_end(&mut server), want);
    assert_eq!(
        server.durable_committed_seq(),
        bare.durable_log().map(|log| log.committed_seq())
    );

    let (wal_a, wal_b) = (wal_segments(&sim_a), wal_segments(&sim_b));
    assert!(wal_a.iter().any(|(_, bytes)| bytes.len() > 16));
    assert_eq!(wal_a, wal_b, "same ops, same group commits, same bytes");

    for sim in [&sim_a, &sim_b] {
        let mut st = sim.clone();
        let rec = recover(&mut st, base(), ingest()).unwrap();
        assert!(!rec.report.used_checkpoint);
        assert_eq!(rec.report.records_replayed, (ROUNDS * BATCH) as u64);
        let mut recovered = rec.engine;
        recovered.run_to_convergence(BUDGET);
        assert_eq!(recovered.distances_dense(), want.distances);
        assert_eq!(recovered.snapshot().closeness, want.closeness);
    }
}

const BAR_SEED: u64 = 0xC10_5EAE55;
const BAR_PROCS: usize = 4;

/// A deterministic churn schedule of `updates` ops valid against `base` when
/// applied in order (absolute vertex ids; a shadow copy tracks the evolving
/// state). About 75 % of edge ops land on eight hub–hub pairs drawn from the
/// 16 highest-degree vertices — the flapping that is most expensive to serve
/// one at a time and most profitable to coalesce — 15 % on uniformly random
/// pairs, and 10 % are vertex arrivals with 1–3 anchors. An absent pair is
/// added; a present one is deleted or reweighted.
fn churn_ops(base: &Graph, updates: usize, seed: u64) -> Vec<UpdateOp> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x1065e57);
    let mut shadow = base.clone();
    let mut by_degree: Vec<(usize, VertexId)> =
        base.vertices().map(|v| (base.degree(v), v)).collect();
    by_degree.sort_unstable_by(|a, b| b.cmp(a));
    let hubs: Vec<VertexId> = by_degree.iter().take(16).map(|&(_, v)| v).collect();
    let mut hot: Vec<(VertexId, VertexId)> = Vec::new();
    while hot.len() < 8 && hubs.len() >= 2 {
        let u = hubs[rng.gen_range(0..hubs.len())];
        let v = hubs[rng.gen_range(0..hubs.len())];
        if u != v && !hot.contains(&(u, v)) && !hot.contains(&(v, u)) {
            hot.push((u, v));
        }
    }

    let mut ops = Vec::with_capacity(updates);
    while ops.len() < updates {
        let alive: Vec<VertexId> = shadow.vertices().collect();
        let roll = rng.gen_range(0..100u32);
        let op = if roll < 10 || hot.is_empty() {
            let count = rng.gen_range(1..=3usize).min(alive.len());
            let mut anchors: Vec<(VertexId, Weight)> = Vec::with_capacity(count);
            for _ in 0..count {
                let a = alive[rng.gen_range(0..alive.len())];
                if !anchors.iter().any(|&(x, _)| x == a) {
                    anchors.push((a, 1));
                }
            }
            let id = shadow.add_vertex();
            for &(a, w) in &anchors {
                shadow.add_edge(id, a, w);
            }
            UpdateOp::AddVertex { anchors }
        } else {
            let (u, v) = if roll < 85 {
                hot[rng.gen_range(0..hot.len())]
            } else {
                let u = alive[rng.gen_range(0..alive.len())];
                let v = alive[rng.gen_range(0..alive.len())];
                if u == v {
                    continue;
                }
                (u, v)
            };
            match shadow.edge_weight(u, v) {
                None => {
                    let w: Weight = rng.gen_range(1..=4);
                    shadow.add_edge(u, v, w);
                    UpdateOp::AddEdge(u, v, w)
                }
                Some(_) if rng.gen_range(0..2u32) == 0 => {
                    shadow.remove_edge(u, v);
                    UpdateOp::DeleteEdge(u, v)
                }
                Some(w0) => {
                    let mut w: Weight = rng.gen_range(1..=4);
                    if w == w0 {
                        w = w0 % 4 + 1;
                    }
                    shadow.set_edge_weight(u, v, w);
                    UpdateOp::Reweight(u, v, w)
                }
            }
        };
        ops.push(op);
    }
    ops
}

/// Serves `ops` through a converged `Session` in batches of `batch`,
/// reconverging after every flush so reads between updates would see exact
/// closeness: batch 1 pays a whole apply + reconverge cycle per update.
/// Returns the cluster-seconds of LogP makespan spent and the ingest stats.
fn serve_in_batches(base: &Graph, ops: &[UpdateOp], batch: usize) -> (f64, IngestStats) {
    let engine = AnytimeEngine::new(
        base.clone(),
        EngineConfig {
            num_procs: BAR_PROCS,
            seed: BAR_SEED,
            ..Default::default()
        },
    );
    let cap = ops.len().max(16);
    let ingest = IngestConfig {
        queue_cap: cap,
        high_watermark: cap,
        ..Default::default()
    };
    let budget = 4 * BAR_PROCS + 32;
    let mut session = Session::new(engine, ingest, None).unwrap();
    session.converge(budget);
    let t0 = session.engine().makespan_us();
    let apply = |s: &mut Session| {
        if s.apply_all().unwrap().flushed.is_some() {
            s.converge(budget);
        }
    };
    for op in ops {
        session.push(op.clone()).unwrap();
        if session.pending_ops() >= batch {
            apply(&mut session);
        }
    }
    apply(&mut session);
    let cluster_seconds = (session.engine().makespan_us() - t0) / 1e6;
    (cluster_seconds, session.ingest_stats())
}

/// One-at-a-time and batch-64 cluster-seconds of [`batched_ingest_hits_5x_at_batch_64`]
/// before deletions ended exact in their own call, the lowest of four
/// release runs on a 2-vCPU Xeon @ 2.1 GHz (0.2606–0.2630 s and
/// 0.0509–0.0519 s). That change made one-at-a-time serving, which owed a
/// recombination after every deletion, cheaper than batches, whose
/// insertions still owe one: the ratio fell from 5.07–5.12× to 4.95–5.01×.
/// The bar is that neither side got slower.
const ONE_AT_A_TIME_S: f64 = 0.2606;
const BATCHED_S: f64 = 0.0509;

/// Coalesced batching's throughput bar: on an R-MAT graph (n = 192, P = 4)
/// under the hub-flapping feed, batch 64 serves the same 256 updates with
/// under an eighth of the flushes and in fewer cluster-seconds than
/// one-at-a-time serving, and, in a release build, neither takes longer
/// than it did when the bar was five times the updates per cluster-second.
#[test]
fn batched_ingest_hits_5x_at_batch_64() {
    let base = rmat(8, 192 * 4, RmatParams::default(), 4, BAR_SEED);
    let updates = 256;
    let ops = churn_ops(&base, updates, BAR_SEED);
    let (base_s, base_stats) = serve_in_batches(&base, &ops, 1);
    let (batched_s, batched_stats) = serve_in_batches(&base, &ops, 64);
    assert_eq!(base_stats.flushes, updates as u64 - base_stats.shed);
    assert!(batched_stats.flushes < base_stats.flushes / 8);
    assert_eq!(base_stats.shed, 0);
    assert_eq!(batched_stats.shed, 0);
    assert!(batched_stats.coalesce_ratio() >= 0.0);
    let speedup = base_s / batched_s;
    assert!(speedup > 1.0, "batched not faster: {speedup:.2}x");
    // Measured compute noise in debug builds can compress virtual-time
    // ratios, so the hard threshold is release-only.
    if !cfg!(debug_assertions) {
        assert!(base_s <= ONE_AT_A_TIME_S, "one at a time: {base_s:.4} s");
        assert!(batched_s <= BATCHED_S, "batched: {batched_s:.4} s");
    }
}
