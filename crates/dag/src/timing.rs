//! Schedule timing analysis: earliest/latest event times and slack, from
//! which `GetNextPareto` marks the *Critical DAG* (paper Algorithm 2,
//! steps ② and ③).
//!
//! The analysis operates on an **edge-centric** DAG: nodes are dependency
//! events, and each edge carries a duration (a computation, or a
//! zero-duration pure dependency). Earliest event times double as the
//! execution start times of the schedule, because pipeline DAGs encode
//! per-stage serialization as explicit edges.

use crate::graph::{Dag, DagError, EdgeId, NodeId};

/// Result of a forward/backward pass over an edge-weighted DAG.
#[derive(Debug, Clone, Default)]
pub struct TimingAnalysis {
    /// Earliest time each node (event) can occur.
    pub earliest: Vec<f64>,
    /// Latest time each node can occur without extending the makespan.
    pub latest: Vec<f64>,
    /// Total schedule length (`earliest` of the latest sink).
    pub makespan: f64,
}

impl TimingAnalysis {
    /// Runs the critical-path-method pass over `dag`, reading each edge's
    /// duration through `dur`.
    ///
    /// All sources are pinned to time 0 and all sinks to the makespan.
    ///
    /// # Errors
    ///
    /// Returns [`DagError::Cyclic`] if the graph is not acyclic.
    pub fn compute<N, E>(
        dag: &Dag<N, E>,
        dur: impl FnMut(EdgeId, &E) -> f64,
    ) -> Result<TimingAnalysis, DagError> {
        Ok(Self::compute_with_order(dag, dag.topo_order()?, dur))
    }

    /// [`TimingAnalysis::compute`] with a given topological order.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `order` covers every node exactly once.
    pub fn compute_with_order<N, E>(
        dag: &Dag<N, E>,
        order: &[NodeId],
        mut dur: impl FnMut(EdgeId, &E) -> f64,
    ) -> TimingAnalysis {
        // Cache durations so the closure runs once per edge.
        let durations: Vec<f64> = dag.edge_refs().map(|r| dur(r.id, r.payload)).collect();
        let mut timing = TimingAnalysis::default();
        timing.refill(dag, order, &durations);
        timing
    }

    /// Both passes in place, reusing this analysis's buffers:
    /// `durations[e]` is the duration of edge `e`. Repeated passes over a
    /// structurally static graph allocate nothing after the first.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `order` covers every node exactly once.
    pub fn refill<N, E>(&mut self, dag: &Dag<N, E>, order: &[NodeId], durations: &[f64]) {
        self.refill_earliest(dag, order, durations);
        let latest = &mut self.latest;
        latest.clear();
        latest.resize(dag.node_count(), self.makespan);
        for &u in order.iter().rev() {
            for e in dag.out_edges(u) {
                let cand = latest[e.dst.index()] - durations[e.id.index()];
                if cand < latest[u.index()] {
                    latest[u.index()] = cand;
                }
            }
        }
    }

    /// The forward pass alone: refills `earliest` and `makespan` and
    /// leaves `latest` as it was, for callers that read only start times
    /// and the schedule length.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `order` covers every node exactly once.
    pub fn refill_earliest<N, E>(&mut self, dag: &Dag<N, E>, order: &[NodeId], durations: &[f64]) {
        debug_assert_eq!(order.len(), dag.node_count());
        debug_assert_eq!(durations.len(), dag.edge_count());
        let earliest = &mut self.earliest;
        earliest.clear();
        earliest.resize(dag.node_count(), 0.0);
        for &u in order {
            for e in dag.out_edges(u) {
                let cand = earliest[u.index()] + durations[e.id.index()];
                if cand > earliest[e.dst.index()] {
                    earliest[e.dst.index()] = cand;
                }
            }
        }
        self.makespan = earliest.iter().copied().fold(0.0, f64::max);
    }

    /// Slack of edge `e = (u, v)` with duration `d`:
    /// `latest[v] - earliest[u] - d`. Zero (within tolerance) means the edge
    /// lies on a critical path.
    pub fn slack(&self, src: NodeId, dst: NodeId, duration: f64) -> f64 {
        self.latest[dst.index()] - self.earliest[src.index()] - duration
    }

    /// True iff the node's occurrence time is fixed (it lies on every
    /// timing-feasible schedule at the same instant).
    pub fn node_is_critical(&self, n: NodeId, tol: f64) -> bool {
        (self.latest[n.index()] - self.earliest[n.index()]).abs() <= tol
    }
}
