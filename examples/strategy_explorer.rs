//! Strategy explorer: a small CLI for playing with the moving parts — it
//! sweeps partitioner × vertex-addition strategy at a given processor count,
//! batch size and injection step, and shows how each combination affects
//! cluster time, cut edges, and balance.
//!
//! ```text
//! cargo run --release --example strategy_explorer -- --n 800 --procs 8 --batch 40 --inject 4
//! ```

use aa_core::{AdditionStrategy, AnytimeEngine, EngineConfig, PartitionerKind};
use aa_core::{Endpoint, VertexBatch};
use aa_graph::{generators, Graph, VertexId};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

struct Opts {
    n: usize,
    procs: usize,
    batch: usize,
    inject: usize,
    seed: u64,
}

fn parse() -> Opts {
    let mut o = Opts {
        n: 800,
        procs: 8,
        batch: 40,
        inject: 0,
        seed: 33,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut next = |what: &str| -> usize {
            args.next()
                .unwrap_or_else(|| panic!("{what} needs a value"))
                .parse()
                .unwrap_or_else(|_| panic!("invalid {what}"))
        };
        match a.as_str() {
            "--n" => o.n = next("--n"),
            "--procs" => o.procs = next("--procs"),
            "--batch" => o.batch = next("--batch"),
            "--inject" => o.inject = next("--inject"),
            "--seed" => o.seed = next("--seed") as u64,
            other => panic!("unknown argument {other}"),
        }
    }
    o
}

fn make_batch(count: usize, existing: &Graph, seed: u64) -> VertexBatch {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let existing_ids: Vec<VertexId> = existing.vertices().collect();
    let mut b = VertexBatch::new(count);
    for i in 1..count {
        b.connect(i, Endpoint::New(rng.gen_range(0..i)), 1);
    }
    for i in 0..count {
        b.connect(
            i,
            Endpoint::Existing(existing_ids[rng.gen_range(0..existing_ids.len())]),
            1,
        );
    }
    b
}

fn main() {
    let o = parse();
    println!(
        "n = {}, P = {}, batch = {} vertices injected at RC{}\n",
        o.n, o.procs, o.batch, o.inject
    );
    println!(
        "{:<14} {:<14} {:>12} {:>10} {:>9} {:>8}",
        "partitioner", "strategy", "cluster ms", "new cut", "balance", "steps"
    );

    for partitioner in [
        PartitionerKind::Multilevel,
        PartitionerKind::BfsGrow,
        PartitionerKind::Hash,
        PartitionerKind::RoundRobin,
    ] {
        for strategy in [
            AdditionStrategy::RoundRobinPs,
            AdditionStrategy::CutEdgePs,
            AdditionStrategy::RepartitionS,
        ] {
            let graph = generators::barabasi_albert(o.n, 2, 1, o.seed);
            let mut engine = AnytimeEngine::new(
                graph,
                EngineConfig {
                    num_procs: o.procs,
                    partitioner,
                    seed: o.seed,
                    ..Default::default()
                },
            );
            engine.initialize();
            for _ in 0..o.inject {
                engine.rc_step();
            }
            let batch = make_batch(o.batch, engine.graph(), o.seed ^ 77);
            let ids = engine.add_vertices(&batch, strategy);
            engine.run_to_convergence(16 * o.procs + 64);
            assert!(engine.is_converged(), "failed to converge");
            let new_cut =
                aa_partition::quality::new_cut_edges(engine.graph(), engine.partition(), &ids);
            println!(
                "{:<14} {:<14} {:>12.1} {:>10} {:>9.3} {:>8}",
                format!("{partitioner:?}"),
                strategy.to_string(),
                engine.makespan_us() / 1000.0,
                new_cut,
                aa_partition::quality::balance(engine.partition()),
                engine.rc_steps(),
            );
        }
    }
}
