//! Undirected weighted graphs and the MaxCut problem.
//!
//! This crate replaces the NetworkX functionality the paper relies on:
//!
//! * [`Graph`] — a simple undirected graph with edge weights,
//! * [`generators`] — the Erdős–Rényi `G(n, p)` ensemble the paper draws its
//!   330 training/test graphs from, the random 3-regular graphs of Figs. 1–3,
//!   and a few named families for tests and examples,
//! * [`MaxCut`] — exact maximum cut by exhaustive bitmask search (the ground
//!   truth that the approximation ratio is measured against),
//! * [`stats`] — degree sequences and other descriptive statistics.
//!
//! # Example
//!
//! ```
//! use graphs::{generators, MaxCut};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let g = generators::erdos_renyi(8, 0.5, &mut rng);
//! let solution = MaxCut::solve(&g);
//! assert!(solution.value() >= 0.0);
//! assert!(solution.value() <= g.total_weight());
//! ```

#![cfg_attr(
    test,
    allow(
        clippy::as_conversions,
        reason = "unit tests build fixtures with small literal casts"
    )
)]

mod error;
pub mod generators;
mod graph;
mod maxcut;
pub mod stats;

pub use error::GraphError;
pub use graph::{Edge, Graph};
pub use maxcut::{CutSolution, MaxCut};
