//! Directed-acyclic-graph substrate for Perseus.
//!
//! Perseus represents one training iteration as a DAG whose nodes are
//! forward/backward computations and whose edges are dependencies (§3.2 of
//! the paper). The frontier algorithm (§4.3) additionally needs:
//!
//! * an **edge-centric** view of the same DAG, where computations live on
//!   edges and nodes are pure synchronization points,
//! * **earliest / latest start** annotation to mark the *Critical DAG*
//!   (computations with zero slack),
//! * longest-path (makespan) evaluation of a schedule.
//!
//! This crate provides those building blocks, generic over node and edge
//! payloads, with no knowledge of GPUs or pipelines.
//!
//! # Examples
//!
//! ```
//! use perseus_dag::Dag;
//!
//! let mut dag: Dag<&str, f64> = Dag::new();
//! let a = dag.add_node("a");
//! let b = dag.add_node("b");
//! dag.add_edge(a, b, 1.5).unwrap();
//! assert_eq!(dag.topo_order().unwrap(), vec![a, b]);
//! ```

mod graph;
mod timing;

pub use graph::{Dag, DagError, EdgeId, EdgeRef, NodeId};
pub use timing::TimingAnalysis;

#[cfg(test)]
mod tests;
