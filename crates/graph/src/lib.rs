#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]
//! Graph substrate for the anytime-anywhere closeness-centrality reproduction.
//!
//! The papers' experiments run on undirected, weighted, *dynamic* scale-free
//! graphs: vertices and edges arrive (and depart) while the analysis is in
//! flight. This crate provides everything below the distributed algorithm:
//!
//! * [`Graph`] — a dynamic undirected weighted graph with stable vertex ids,
//!   O(1) vertex addition and tombstoned vertex deletion;
//! * [`generators`] — scale-free (Barabási–Albert), Erdős–Rényi,
//!   Watts–Strogatz and planted-partition community generators, plus
//!   deterministic fixtures used by tests; [`rmat`] adds the R-MAT/Kronecker
//!   recursion used by HPC graph benchmarks;
//! * [`community`] — a from-scratch Louvain modularity optimizer, used to
//!   extract community-structured vertex batches exactly as the paper's
//!   experimental setup does with Pajek's Louvain tool;
//! * [`algo`] — sequential reference algorithms (Dijkstra, connected
//!   components, Floyd–Warshall) and the exact closeness-centrality oracle the
//!   distributed results are validated against; [`search`] is the radix-queue
//!   Dijkstra kernel the engine and the top-k bounds run;
//! * [`io`] — edge-list, Pajek `.net` and METIS `.graph` readers/writers (the
//!   paper generated its inputs with Pajek and partitioned with METIS).

pub mod algo;
pub mod community;
pub mod generators;
pub mod graph;
pub mod io;
mod monotone;
pub mod rmat;
pub mod search;

pub use graph::{Graph, VertexId, Weight, INF};
