//! Experiment harness for the papers' evaluation (Figures 4–8) and ablations.
//!
//! The papers evaluate on 16 processors and 50 000-vertex scale-free graphs;
//! dense APSP state is Θ(n²), so the harness scales `n` down (default 2 000)
//! and scales every vertex-addition batch to the *same fraction of |V|* the
//! paper used (see `DESIGN.md` §2). All reported times are the simulated
//! cluster's LogP makespan — the hardware-independent "cluster minutes" that
//! the figures plot — with wall-clock time available alongside.

#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod experiments;
pub mod topk;
pub mod workload;

pub use experiments::{
    fig4, fig5, fig6, fig7, fig8, Fig4Row, Fig8Row, SingleStepRow, StrategyChoice,
};
pub use topk::{topk_rows_to_json, topk_sweep, TopkRow};
pub use workload::{community_vertex_batch, scaled, ExperimentParams};
