//! Schedule evaluation and ASCII timeline rendering (Figure 1 / Figure 10
//! style visualizations).

use perseus_dag::{Dag, NodeId};

use crate::builder::{PipeNode, PipelineDag};
use crate::schedule::CompKind;

/// Start time of every node of a node-centric DAG whose *nodes* carry
/// durations, plus the makespan.
///
/// `dur(node)` must return the execution duration of the node's payload
/// (zero for events). Returns `(starts, makespan)`.
///
/// # Panics
///
/// Panics if the graph contains a cycle (pipeline DAGs are acyclic by
/// construction).
pub fn node_start_times<N, E>(dag: &Dag<N, E>, dur: impl Fn(NodeId, &N) -> f64) -> (Vec<f64>, f64) {
    let order = dag.topo_order().expect("pipeline DAGs are acyclic");
    let mut start = vec![0.0f64; dag.node_count()];
    let mut makespan = 0.0f64;
    for &u in &order {
        let finish = start[u.index()] + dur(u, dag.node(u));
        makespan = makespan.max(finish);
        for e in dag.out_edges(u) {
            if finish > start[e.dst.index()] {
                start[e.dst.index()] = finish;
            }
        }
    }
    (start, makespan)
}

/// The schedule gap of every node at the current earliest-start schedule:
/// how long the node could run — start time held fixed — before it would
/// push a successor's start (sink-adjacent nodes are bounded by the
/// makespan). Returns `(starts, gaps, makespan)`, with `starts` and
/// `makespan` as [`node_start_times`] computes them.
///
/// A node's gap is never smaller than its own duration: every successor
/// starts no earlier than this node finishes. The frontier's
/// stretch-into-slack pass grows durations into these gaps, and the
/// energy-attribution ledger uses the same gaps to price the
/// slack-filling alternative each instruction is compared against.
///
/// # Panics
///
/// Panics if the graph contains a cycle (pipeline DAGs are acyclic by
/// construction).
pub fn node_schedule_gaps<N, E>(
    dag: &Dag<N, E>,
    dur: impl Fn(NodeId, &N) -> f64,
) -> (Vec<f64>, Vec<f64>, f64) {
    let (starts, makespan) = node_start_times(dag, &dur);
    let mut gaps = vec![0.0f64; dag.node_count()];
    for u in dag.node_ids() {
        let mut limit = makespan;
        for e in dag.out_edges(u) {
            limit = limit.min(starts[e.dst.index()]);
        }
        gaps[u.index()] = limit - starts[u.index()];
    }
    (starts, gaps, makespan)
}

/// Renders a Figure-1-style ASCII timeline: one row per stage, `F`/`B`/`R`
/// blocks placed proportionally to their start times and durations, `.` for
/// gaps where the GPU blocks on communication.
///
/// `width` is the number of character columns the makespan maps onto.
pub fn render_timeline(
    pipe: &PipelineDag,
    dur: impl Fn(NodeId, &PipeNode) -> f64,
    width: usize,
) -> String {
    let (starts, makespan) = node_start_times(&pipe.dag, |id, n| dur(id, n));
    if makespan <= 0.0 {
        return String::new();
    }
    let col = |t: f64| ((t / makespan) * width as f64).round() as usize;
    let mut rows = vec![vec!['.'; width + 1]; pipe.n_stages];
    for (id, c) in pipe.computations() {
        let s = starts[id.index()];
        let d = dur(id, pipe.dag.node(id));
        let (c0, c1) = (col(s), col(s + d).max(col(s) + 1));
        let ch = match c.kind {
            CompKind::Forward => char::from_digit((c.microbatch % 10) as u32, 10).unwrap_or('F'),
            CompKind::Backward => 'b',
            CompKind::Recompute => 'r',
        };
        let row = &mut rows[c.stage];
        for cell in row.iter_mut().take(c1.min(width + 1)).skip(c0) {
            *cell = ch;
        }
    }
    let mut out = String::new();
    for (s, row) in rows.iter().enumerate() {
        out.push_str(&format!("S{s} |"));
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!("makespan = {makespan:.4} s\n"));
    out
}
