//! Maximum-flow substrate for Perseus.
//!
//! `GetNextPareto` (paper §4.3, Appendix D) finds the cheapest way to
//! shorten every critical path by the unit time `τ` by solving a minimum
//! cut on a *Capacity DAG*. The paper bounds each edge's flow from below
//! by its slowdown reward (Eq. 8, Algorithm 3); Perseus-rs relaxes every
//! lower bound to zero and reclaims the slowdowns with a stretch pass
//! after each step, so the cut is a plain minimum cut. This crate
//! implements:
//!
//! * [`FlowGraph`] — a residual-pair network with Dinic max flow (the paper
//!   analyzes Edmonds–Karp; Dinic has the same answers, faster)
//!   ([`FlowGraph::max_flow`]), in-place capacity retuning, edges built
//!   carrying flow, re-augmentation from the flow the network carries, and
//!   residual reachability for min-cut extraction,
//! * [`MinCutProblem`] — the minimal source-side minimum cut of a network
//!   whose edges may be unbounded, solved three ways through a
//!   [`WarmStart`]: cold, retuned (consecutive solves of one topology),
//!   or seeded (a changed topology rebuilt carrying a feasible flow).
//!
//! # Examples
//!
//! ```
//! use perseus_flow::FlowGraph;
//!
//! let mut g = FlowGraph::new(4);
//! let (s, t) = (0, 3);
//! g.add_edge(s, 1, 3.0);
//! g.add_edge(s, 2, 2.0);
//! g.add_edge(1, t, 2.0);
//! g.add_edge(2, t, 3.0);
//! assert_eq!(g.max_flow(s, t), 4.0);
//! ```

mod graph;
mod mincut;

/// Relative capacity epsilon: residual capacities below `CAP_EPS` × the
/// largest edge capacity of the network are treated as exhausted.
///
/// Why `1e-12`: pushing flow subtracts capacities, so residuals carry
/// relative rounding error of order `1e-16` × the capacity scale; `1e-12`
/// sits four orders of magnitude above that noise floor while staying far
/// below any real capacity difference the Capacity DAG produces (fitted
/// per-τ energies differ at the `1e-3` relative level or more). Both the
/// Dinic BFS/DFS usability test and min-cut residual reachability use
/// this threshold, which is what makes the minimal source-side cut
/// insensitive to *which* maximum flow (cold or warm-started) produced
/// the final residual network.
pub const CAP_EPS: f64 = 1e-12;

pub use graph::FlowGraph;
pub use mincut::{CutEdge, FlowError, MinCut, MinCutProblem, WarmStart};

#[cfg(test)]
mod tests;
