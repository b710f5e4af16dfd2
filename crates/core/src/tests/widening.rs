//! Planted overflows: graphs whose distances pass what 8 or 16 bits hold.
//!
//! Every benchmark and golden graph fits 8 bits, so these are the tests that
//! run the guard and the widening (`dv.rs`). Each scenario runs on P ∈ {1,
//! 3, 8} and both backends, holds every row at or above the APSP oracle after
//! every recombination step — a withheld distance must read `INF`, never a
//! saturated finite value — and ends exact at the width it should reach.

use crate::config::EngineConfig;
use crate::dynamic::{Endpoint, VertexBatch};
use crate::strategy::AdditionStrategy;
use crate::AnytimeEngine;
use aa_graph::{algo, generators, Graph, VertexId, Weight};
use aa_runtime::BackendKind;
use proptest::prelude::*;

/// Every (P, backend) pair a scenario runs on.
fn configs() -> impl Iterator<Item = EngineConfig> {
    let backends = [(BackendKind::Sim, 0), (BackendKind::Threads, 2)];
    let each = [1, 3, 8]
        .into_iter()
        .flat_map(move |p| backends.map(|b| (p, b)));
    each.map(|(num_procs, (backend, threads))| EngineConfig {
        num_procs,
        backend,
        threads,
        ..Default::default()
    })
}

fn engine(g: Graph, config: EngineConfig) -> AnytimeEngine {
    let mut e = AnytimeEngine::new(g, config);
    e.initialize();
    e
}

/// Whether every row of `e` is at or above the oracle's.
fn above_oracle(e: &AnytimeEngine, what: &str) {
    let oracle = algo::apsp_dijkstra(e.graph());
    let dense = e.distances_dense();
    for v in e.graph().vertices() {
        let row = dense[v as usize].iter().zip(&oracle[v as usize]);
        for (t, (&got, &exact)) in row.enumerate() {
            assert!(got >= exact, "{what}: row {v}[{t}] {got} below {exact}");
        }
    }
}

/// Steps `e` to convergence, holding it above the oracle after every step,
/// and checks it exact, with every rank's rows `bits` wide.
fn converge_exact(e: &mut AnytimeEngine, bits: u32, what: &str) {
    above_oracle(e, what);
    for _ in 0..4096 {
        let done = e.rc_step();
        above_oracle(e, what);
        if done {
            break;
        }
    }
    assert!(e.is_converged(), "{what}: did not converge");
    assert_eq!(
        e.distances_dense(),
        algo::apsp_dijkstra(e.graph()),
        "{what}"
    );
    let widths: Vec<u32> = e.procs.iter().map(|ps| ps.dv.bits()).collect();
    assert!(
        widths.iter().all(|&b| b == bits),
        "{what}: widths {widths:?}"
    );
    let r = e.metrics_registry();
    assert_eq!(r.gauge_value("aa_dv_row_bits", &[]), Some(f64::from(bits)));
}

/// The widenings `e` counted.
fn widenings(e: &AnytimeEngine) -> u64 {
    e.metrics_registry()
        .counter_value("aa_dv_widenings_total", &[])
}

#[test]
fn a_unit_path_of_300_widens_to_16_bits() {
    for config in configs() {
        let what = format!("{config:?}");
        let mut e = engine(generators::path(300), config);
        converge_exact(&mut e, 16, &what);
        assert_eq!(widenings(&e), 1, "{what}");
    }
}

#[test]
fn a_grid_whose_longest_distance_passes_254_widens_to_16_bits() {
    // 16 × 16 at weight 9: the corners are 30 · 9 = 270 apart.
    let mut g = generators::grid(16, 16);
    for (u, v, _) in g.edges().collect::<Vec<_>>() {
        g.set_edge_weight(u, v, 9);
    }
    for config in configs() {
        let what = format!("{config:?}");
        let mut e = engine(g.clone(), config);
        converge_exact(&mut e, 16, &what);
        assert_eq!(widenings(&e), 1, "{what}");
    }
}

#[test]
fn one_edge_of_a_million_widens_twice_to_32_bits() {
    let mut g = generators::path(12);
    g.add_edge(11, 0, 1_000_000);
    let far = g.add_vertex();
    g.add_edge(6, far, 1_000_000);
    for config in configs() {
        let what = format!("{config:?}");
        let mut e = engine(g.clone(), config);
        converge_exact(&mut e, 32, &what);
        assert_eq!(widenings(&e), 2, "{what}: 8 → 16 → 32");
        assert_eq!(e.distances_dense()[0][far as usize], 6 + 1_000_000);
    }
}

/// A path of 255 vertices — 254 long, which 8 bits hold — and one isolated
/// vertex, converged and settled.
fn settled_path_of_254(config: EngineConfig) -> AnytimeEngine {
    let mut g = generators::path(255);
    g.add_vertex();
    let mut e = engine(g, config);
    converge_exact(&mut e, 8, "path of 254");
    assert!(e.is_settled());
    e
}

#[test]
fn a_settled_edge_making_the_first_distance_of_255_does_not_settle() {
    for config in configs() {
        let what = format!("{config:?}");
        let mut e = settled_path_of_254(config);
        assert!(e.add_edge(254, 255, 1));
        assert!(!e.is_settled(), "{what}: d(0, 255) = 255 was withheld");
        let r = e.metrics_registry();
        assert_eq!(r.counter_value("aa_dynamic_settled_updates_total", &[]), 0);
        converge_exact(&mut e, 16, &what);
        assert_eq!(e.distances_dense()[0][255], 255, "{what}");
    }
}

#[test]
fn a_leaf_arriving_at_the_end_of_a_254_long_path_does_not_settle() {
    for strategy in [AdditionStrategy::RoundRobinPs, AdditionStrategy::CutEdgePs] {
        for config in configs() {
            let what = format!("{strategy} {config:?}");
            let mut e = settled_path_of_254(config);
            let mut batch = VertexBatch::new(1);
            batch.connect(0, Endpoint::Existing(254), 1);
            let leaf = e.add_vertices(&batch, strategy)[0];
            assert!(!e.is_settled(), "{what}");
            converge_exact(&mut e, 16, &what);
            assert_eq!(e.distances_dense()[0][leaf as usize], 255, "{what}");
        }
    }
}

#[test]
fn a_checkpoint_holding_a_distance_past_254_restores_wide() {
    for config in configs() {
        let what = format!("{config:?}");
        let mut e = engine(generators::path(300), config.clone());
        e.run_to_convergence(4096);
        let mut buf = Vec::new();
        e.save_checkpoint(&mut buf).unwrap();
        let mut restored = AnytimeEngine::restore_checkpoint(&mut &buf[..], config).unwrap();
        assert!(restored.procs.iter().all(|ps| ps.dv.bits() == 16), "{what}");
        assert_eq!(restored.distances_dense(), e.distances_dense(), "{what}");
        converge_exact(&mut restored, 16, &what);
        assert_eq!(widenings(&restored), 0, "{what}: restored at its width");
    }
}

/// 24 cases in the tier-1 run, more through `PROPTEST_CASES`.
fn cases() -> u32 {
    let asked = std::env::var("PROPTEST_CASES").ok();
    asked.and_then(|n| n.parse().ok()).unwrap_or(24)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(), ..ProptestConfig::default() })]

    /// Random graphs with long paths mixed in, grown and shrunk: whatever
    /// the rows withheld on the way, no closeness differs from the oracle's.
    #[test]
    fn closeness_is_exact_whatever_the_rows_withheld(
        n in 8usize..30,
        seed in 0u64..1000,
        tails in proptest::collection::vec((0u32..1000, 20usize..140, 1u32..4), 0..3),
        ops in proptest::collection::vec((0u8..4, 0u32..1000, 0u32..1000, 1u32..400), 0..6),
        procs in 1usize..5,
    ) {
        let mut g = generators::erdos_renyi_gnm(n, 2 * n, 4, seed);
        // Each tail a path of `len` edges of weight `w` hung on a vertex.
        for (at, len, w) in tails {
            let mut last = at % n as VertexId;
            for _ in 0..len {
                let next = g.add_vertex();
                g.add_edge(last, next, w);
                last = next;
            }
        }
        let config = EngineConfig { num_procs: procs, seed, ..Default::default() };
        let mut e = engine(g, config);
        e.run_to_convergence(4096);
        for (kind, a, b, w) in ops {
            let ids: Vec<VertexId> = e.graph().vertices().collect();
            let (u, v) = (ids[a as usize % ids.len()], ids[b as usize % ids.len()]);
            match kind {
                0 if u != v => {
                    e.add_edge(u, v, w as Weight);
                }
                1 => {
                    let x = e.graph().neighbors(u).first().map_or(u, |&(x, _)| x);
                    e.delete_edge(u, x);
                }
                2 => {
                    let mut batch = VertexBatch::new(1);
                    batch.connect(0, Endpoint::Existing(u), w);
                    e.add_vertices(&batch, AdditionStrategy::RoundRobinPs);
                }
                _ => {
                    e.run_to_convergence(4096);
                }
            }
        }
        e.run_to_convergence(4096);
        prop_assert!(e.is_converged());
        let exact = algo::exact_closeness(e.graph());
        let snapshot = e.snapshot();
        for v in e.graph().vertices() {
            prop_assert_eq!(snapshot.closeness[v as usize], exact[v as usize], "closeness of {}", v);
        }
    }
}
