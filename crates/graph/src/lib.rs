//! # wrsn-graph — weighted digraphs and shortest-path machinery
//!
//! The joint deployment/routing problem reduces, for any fixed deployment,
//! to single-target shortest paths on a small dense digraph whose edge
//! weights are per-bit recharging costs. This crate provides that substrate:
//!
//! - [`Digraph`] — a compact adjacency-list weighted digraph,
//! - [`dijkstra`] / [`dijkstra_to`] — binary-heap Dijkstra from a source or
//!   *to* a target (following edge directions),
//! - [`ShortestPaths`] — distances plus next-hop/predecessor extraction,
//! - [`tight_edges`] + [`Dag`] — the "fat tree" of *all* shortest paths and
//!   the trimming operations the RFH heuristic performs on it, with
//!   [`AncestorSets`] as its reusable descendant bookkeeping,
//! - [`FixedBitSet`] — a small bitset used for descendant bookkeeping,
//! - [`bellman_ford`] — a reference implementation used by property tests.
//!
//! # Examples
//!
//! ```
//! use wrsn_graph::{dijkstra_to, Digraph};
//!
//! // A diamond: 0 -> {1,2} -> 3, all edges weight 1.
//! let mut g = Digraph::new(4);
//! g.add_edge(0, 1, 1.0);
//! g.add_edge(0, 2, 1.0);
//! g.add_edge(1, 3, 1.0);
//! g.add_edge(2, 3, 1.0);
//! let sp = dijkstra_to(&g, 3);
//! assert_eq!(sp.distance(0), Some(2.0));
//! assert_eq!(sp.path_from(0).unwrap().len(), 3); // 0 -> (1 or 2) -> 3
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bellman_ford;
mod bitset;
mod dag;
mod digraph;
mod dijkstra;

pub use bellman_ford::bellman_ford;
pub use bitset::FixedBitSet;
pub use dag::{AncestorSets, Dag};
pub use digraph::Digraph;
pub use dijkstra::{dijkstra, dijkstra_to, tight_edges, ShortestPaths};

/// Index of a node within a [`Digraph`] or [`Dag`]; nodes are dense
/// integers `0..node_count`.
pub type NodeId = usize;
