//! Residual-pair flow network with Dinic maximum flow.
//!
//! Besides the classic mutable-graph API, [`FlowGraph`] has the
//! incremental entry points the Phillips–Dessouky loop needs: retune a
//! single edge's capacity in place ([`FlowGraph::retune_edge`]), build an
//! edge that already carries flow ([`FlowGraph::add_edge_with_flow`]), and
//! re-augment from the flow the network carries instead of from zero
//! ([`FlowGraph::max_flow_incremental_with`]).

use std::collections::VecDeque;

use perseus_telemetry::Telemetry;

use crate::CAP_EPS;

/// Marker in the drain parent chain for the virtual `s -> t` arc.
const VIRTUAL_ARC: usize = usize::MAX;

/// A flow network over nodes `0..n` using the classic residual-pair edge
/// representation: every added edge owns a paired reverse arc, and pushing
/// flow moves capacity between the two.
///
/// Capacities are `f64`; Dinic's algorithm terminates in `O(V²E)` time
/// independent of capacity values, so real-valued capacities are safe.
#[derive(Debug, Clone)]
pub struct FlowGraph {
    adj: Vec<Vec<usize>>,
    /// Head node of each arc (`2e` is edge `e` forward, `2e+1` reverse).
    head: Vec<usize>,
    /// Capacity each edge was built (or last retuned) with.
    init: Vec<f64>,
    /// Residual capacity per arc.
    cap: Vec<f64>,
    /// Absolute usability threshold: [`CAP_EPS`] × the largest capacity
    /// the network has seen (grow-only; incremental solves recompute it
    /// from the current capacities instead).
    eps: f64,
    /// Terminals of the most recent solve; excess draining after a
    /// capacity drop needs to know where value can be given back.
    terminals: Option<(usize, usize)>,
    /// Augmenting paths pushed by the most recent solve.
    last_augmentations: u64,
    // --- solver scratch, reused across solves ---
    level: Vec<u32>,
    iter: Vec<usize>,
    queue: VecDeque<usize>,
    parent: Vec<usize>,
    /// Arcs of the level-graph path the blocking flow is extending.
    path: Vec<usize>,
}

impl FlowGraph {
    /// Creates a network with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        FlowGraph {
            adj: vec![Vec::new(); n],
            head: Vec::new(),
            init: Vec::new(),
            cap: Vec::new(),
            eps: 0.0,
            terminals: None,
            last_augmentations: 0,
            level: Vec::new(),
            iter: Vec::new(),
            queue: VecDeque::new(),
            parent: Vec::new(),
            path: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of added edges (not counting residual reverse arcs).
    pub fn edge_count(&self) -> usize {
        self.init.len()
    }

    /// Adds a directed edge `u -> v` with capacity `cap` (and a zero-capacity
    /// reverse arc). Returns the edge handle used by [`FlowGraph::flow_on`].
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range or `cap` is negative/NaN.
    pub fn add_edge(&mut self, u: usize, v: usize, cap: f64) -> usize {
        assert!(
            u < self.adj.len() && v < self.adj.len(),
            "endpoint out of range"
        );
        assert!(cap >= 0.0, "capacities must be non-negative");
        let id = self.init.len();
        let a = self.head.len();
        self.head.push(v);
        self.head.push(u);
        self.cap.push(cap);
        self.cap.push(0.0);
        self.adj[u].push(a);
        self.adj[v].push(a + 1);
        self.init.push(cap);
        if cap.is_finite() && cap > self.eps / CAP_EPS {
            self.eps = cap * CAP_EPS;
        }
        id
    }

    /// [`FlowGraph::add_edge`] for an edge that already carries `flow`
    /// (clamped to `[0, cap]`): its residual pair starts at
    /// `(cap − flow, flow)` instead of `(cap, 0)`. Build a network from a
    /// feasible flow this way — conserved at every node but the terminals
    /// — and [`FlowGraph::max_flow_incremental_with`] augments from that
    /// flow instead of from zero.
    ///
    /// # Panics
    ///
    /// As [`FlowGraph::add_edge`], and if `flow` is NaN.
    pub fn add_edge_with_flow(&mut self, u: usize, v: usize, cap: f64, flow: f64) -> usize {
        assert!(!flow.is_nan(), "flows must be numbers");
        let id = self.add_edge(u, v, cap);
        let flow = flow.clamp(0.0, cap);
        self.cap[2 * id] = cap - flow;
        self.cap[2 * id + 1] = flow;
        id
    }

    /// Net forward flow currently on edge `e` (capacity minus remaining
    /// residual capacity).
    pub fn flow_on(&self, e: usize) -> f64 {
        self.init[e] - self.cap[2 * e]
    }

    fn usable(&self, cap: f64) -> bool {
        cap > self.eps
    }

    /// Replaces the capacity of edge `e` with `new_cap`, repairing the
    /// residual state in place so the routed flow stays feasible:
    ///
    /// * capacity raised (or still above the carried flow) — the forward
    ///   residual grows/shrinks accordingly, `O(1)`;
    /// * capacity dropped below the carried flow — the flow on `e` is
    ///   clamped to the new capacity and the excess is drained via
    ///   reverse-BFS over flow-carrying residual arcs (rerouting it where
    ///   possible, giving value back to the terminals where not);
    /// * net flow below zero (rounding crumbs only: no edge has reverse
    ///   capacity) — the mirror image of a drop.
    ///
    /// Follow a batch of retunes with
    /// [`FlowGraph::max_flow_incremental_with`] to re-augment from the
    /// repaired flow.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range or `new_cap` is negative/NaN.
    pub fn retune_edge(&mut self, e: usize, new_cap: f64) {
        assert!(e < self.init.len(), "edge out of range");
        assert!(new_cap >= 0.0, "capacities must be non-negative");
        let f = self.flow_on(e);
        self.init[e] = new_cap;
        // Grow-only threshold update mirroring `add_edge`;
        // `max_flow_incremental_with` recomputes the exact value before
        // the next solve so warm and cold runs classify arcs identically.
        if new_cap.is_finite() && new_cap > self.eps / CAP_EPS {
            self.eps = new_cap * CAP_EPS;
        }
        let (u, v) = (self.head[2 * e + 1], self.head[2 * e]);
        if f > new_cap {
            // Forward flow exceeds the new capacity: clamp it to the cap
            // and repair conservation (`u` now over-receives, `v` starves).
            let excess = f - new_cap;
            self.cap[2 * e] = 0.0;
            self.cap[2 * e + 1] = new_cap;
            self.drain(u, v, excess);
        } else if f < 0.0 {
            // Net *backward* flow: the mirror image, with the imbalance
            // roles swapped.
            self.cap[2 * e] = new_cap;
            self.cap[2 * e + 1] = 0.0;
            self.drain(v, u, -f);
        } else {
            self.cap[2 * e] = new_cap - f;
            self.cap[2 * e + 1] = f;
        }
    }

    /// Restores flow conservation after a clamp left `from` with `amount`
    /// surplus inflow and `to` with the matching deficit: repeatedly BFS a
    /// shortest residual path `from -> to` and push the bottleneck along
    /// it. Paths through real residual arcs reroute the flow; a virtual
    /// `s -> t` arc (the terminals of the last solve) lets the repair
    /// cancel a source-to-`from` prefix and a `to`-to-sink suffix instead,
    /// reducing the flow value, which by flow decomposition is always
    /// sufficient to absorb the remaining excess.
    fn drain(&mut self, from: usize, to: usize, amount: f64) {
        if from == to || amount <= self.eps {
            // Self-loop flow never unbalances a node, and sub-epsilon
            // excess is indistinguishable from the float crumbs every
            // solve already tolerates.
            return;
        }
        let (s, t) = self
            .terminals
            .expect("capacity dropped below a routed flow before any solve");
        let n = self.adj.len();
        let mut remaining = amount;
        while remaining > self.eps {
            // BFS recording the arc used to enter each node; `VIRTUAL_ARC`
            // marks the s -> t hop.
            self.parent.clear();
            self.parent.resize(n, VIRTUAL_ARC);
            self.level.clear();
            self.level.resize(n, u32::MAX);
            self.queue.clear();
            self.level[from] = 0;
            self.queue.push_back(from);
            let mut found = false;
            'bfs: while let Some(u) = self.queue.pop_front() {
                if u == s && self.level[t] == u32::MAX && t != from {
                    self.level[t] = self.level[u] + 1;
                    self.parent[t] = VIRTUAL_ARC;
                    if t == to {
                        found = true;
                        break 'bfs;
                    }
                    self.queue.push_back(t);
                }
                for i in 0..self.adj[u].len() {
                    let a = self.adj[u][i];
                    let head = self.head[a];
                    if self.level[head] == u32::MAX && self.usable(self.cap[a]) {
                        self.level[head] = self.level[u] + 1;
                        self.parent[head] = a;
                        if head == to {
                            found = true;
                            break 'bfs;
                        }
                        self.queue.push_back(head);
                    }
                }
            }
            if !found {
                // Only float crumbs below the usability threshold remain
                // unroutable; they are within the solver's tolerance.
                break;
            }
            // Walk parents back from `to`, find the bottleneck, apply.
            let mut bottleneck = remaining;
            let mut node = to;
            while node != from {
                let a = self.parent[node];
                if a == VIRTUAL_ARC {
                    node = s; // virtual hop: capacity `remaining`, no arc
                } else {
                    bottleneck = bottleneck.min(self.cap[a]);
                    node = self.head[a ^ 1];
                }
            }
            let mut node = to;
            while node != from {
                let a = self.parent[node];
                if a == VIRTUAL_ARC {
                    node = s;
                } else {
                    self.cap[a] -= bottleneck;
                    self.cap[a ^ 1] += bottleneck;
                    node = self.head[a ^ 1];
                }
            }
            remaining -= bottleneck;
        }
    }

    /// Recomputes the usability threshold from the *current* edge
    /// capacities, exactly as a from-scratch build over the same edges
    /// would have accumulated it. Retunes only grow the threshold; this
    /// restores the precise value so incremental and cold solves agree on
    /// which residual arcs count as exhausted.
    fn recompute_eps(&mut self) {
        let mut eps = 0.0f64;
        for &c in &self.init {
            if c.is_finite() && c > eps / CAP_EPS {
                eps = c * CAP_EPS;
            }
        }
        self.eps = eps;
    }

    /// Computes the maximum `s -> t` flow with Dinic's algorithm, mutating the
    /// residual capacities in place. Calling it twice continues from the
    /// current residual state (the second call returns 0 extra flow).
    ///
    /// # Panics
    ///
    /// Panics if `s == t` or either is out of range.
    pub fn max_flow(&mut self, s: usize, t: usize) -> f64 {
        self.max_flow_with(s, t, &Telemetry::disabled())
    }

    /// [`FlowGraph::max_flow`] with instrumentation: records the number of
    /// calls, the node/edge totals of the solved networks, and the number
    /// of augmenting paths Dinic pushed. With disabled telemetry this is
    /// exactly `max_flow` (a local `u64` increment per augmentation is the
    /// only residue).
    pub fn max_flow_with(&mut self, s: usize, t: usize, telemetry: &Telemetry) -> f64 {
        assert!(s != t, "source and sink must differ");
        assert!(
            s < self.adj.len() && t < self.adj.len(),
            "terminal out of range"
        );
        self.terminals = Some((s, t));
        // Dinic's algorithm: repeat { BFS level graph; DFS blocking flow }.
        // Asymptotically O(V²E) and near-linear on the sparse, shallow
        // capacity DAGs Perseus produces — the paper's Edmonds–Karp bound
        // (§4.3 complexity analysis) is an upper bound we comfortably beat.
        let n = self.adj.len();
        let mut total = 0.0;
        let mut augmentations = 0u64;
        let mut level = std::mem::take(&mut self.level);
        let mut iter = std::mem::take(&mut self.iter);
        let mut queue = std::mem::take(&mut self.queue);
        level.clear();
        level.resize(n, u32::MAX);
        iter.clear();
        iter.resize(n, 0);
        loop {
            // BFS: build level graph on usable residual arcs.
            level.iter_mut().for_each(|l| *l = u32::MAX);
            queue.clear();
            level[s] = 0;
            queue.push_back(s);
            while let Some(u) = queue.pop_front() {
                for &a in &self.adj[u] {
                    let to = self.head[a];
                    if level[to] == u32::MAX && self.usable(self.cap[a]) {
                        level[to] = level[u] + 1;
                        queue.push_back(to);
                    }
                }
            }
            if level[t] == u32::MAX {
                break;
            }
            iter.iter_mut().for_each(|i| *i = 0);
            self.blocking_flow(s, t, &level, &mut iter, &mut total, &mut augmentations);
        }
        self.level = level;
        self.iter = iter;
        self.queue = queue;
        self.last_augmentations = augmentations;
        if telemetry.is_enabled() {
            telemetry.counter("perseus_flow_max_flow_calls_total").inc();
            telemetry
                .counter("perseus_flow_augmenting_paths_total")
                .add(augmentations);
            telemetry
                .counter("perseus_flow_nodes_total")
                .add(self.node_count() as u64);
            telemetry
                .counter("perseus_flow_edges_total")
                .add(self.edge_count() as u64);
        }
        total
    }

    /// Warm-started maximum flow with instrumentation (see
    /// [`FlowGraph::max_flow_with`]): re-augments from whatever feasible
    /// flow the residual state currently carries (the previous solve,
    /// repaired by any [`FlowGraph::retune_edge`] calls since) instead of
    /// starting from zero. Afterwards the graph carries a maximum flow on
    /// the current capacities, exactly as a from-scratch
    /// [`FlowGraph::max_flow`] would.
    ///
    /// # Panics
    ///
    /// Panics if `s == t` or either is out of range.
    pub fn max_flow_incremental_with(&mut self, s: usize, t: usize, telemetry: &Telemetry) {
        // Retunes leave the grow-only threshold potentially stale; restore
        // the exact from-scratch value before augmenting.
        self.recompute_eps();
        self.max_flow_with(s, t, telemetry);
    }

    /// Augmenting paths pushed by the most recent solve on this graph.
    pub fn last_augmentations(&self) -> u64 {
        self.last_augmentations
    }

    /// One Dinic phase: saturates the level graph with augmenting paths,
    /// adding each path's flow to `total` and counting it in `paths`.
    ///
    /// The search is an explicit walk, not a recursion, so deep pipeline
    /// networks cannot overflow the stack. After each augmentation it
    /// retreats only to the tail of the first arc the push saturated:
    /// re-walking from `s` would pass the same still-usable prefix arcs
    /// (`iter` has not moved off them) and stop at the same place, so the
    /// paths found, their order and their flows are those of a search
    /// that restarts from `s`.
    fn blocking_flow(
        &mut self,
        s: usize,
        t: usize,
        level: &[u32],
        iter: &mut [usize],
        total: &mut f64,
        paths: &mut u64,
    ) {
        let mut path = std::mem::take(&mut self.path);
        path.clear();
        let mut u = s;
        loop {
            if u == t {
                // Every arc on the path is usable, so the bottleneck
                // exceeds `eps`, and the arc that sets it saturates.
                let pushed = path.iter().fold(f64::INFINITY, |m, &a| m.min(self.cap[a]));
                for &a in &path {
                    self.cap[a] -= pushed;
                    self.cap[a ^ 1] += pushed;
                }
                *total += pushed;
                *paths += 1;
                let keep = path
                    .iter()
                    .position(|&a| !self.usable(self.cap[a]))
                    .expect("the bottleneck arc saturates");
                path.truncate(keep);
                u = path.last().map_or(s, |&a| self.head[a]);
                continue;
            }
            let mut advanced = false;
            while iter[u] < self.adj[u].len() {
                let a = self.adj[u][iter[u]];
                let to = self.head[a];
                if level[to] == level[u] + 1 && self.usable(self.cap[a]) {
                    path.push(a);
                    u = to;
                    advanced = true;
                    break;
                }
                iter[u] += 1;
            }
            if !advanced {
                // Dead end: retreat one arc and skip it at its tail.
                let Some(a) = path.pop() else { break };
                u = self.head[a ^ 1];
                iter[u] += 1;
            }
        }
        self.path = path;
    }

    /// Nodes reachable from `s` in the current residual graph. After
    /// [`FlowGraph::max_flow`], this is the source side of a minimum cut.
    pub fn residual_reachable(&self, s: usize) -> Vec<bool> {
        let mut seen = Vec::new();
        let mut stack = Vec::new();
        self.residual_reachable_into(s, &mut seen, &mut stack);
        seen
    }

    /// [`FlowGraph::residual_reachable`] into caller-owned scratch buffers
    /// (`seen` is the result; `stack` is the DFS worklist), so hot loops
    /// stop paying two allocations per min-cut extraction.
    pub fn residual_reachable_into(&self, s: usize, seen: &mut Vec<bool>, stack: &mut Vec<usize>) {
        seen.clear();
        seen.resize(self.adj.len(), false);
        stack.clear();
        stack.push(s);
        seen[s] = true;
        while let Some(u) = stack.pop() {
            for &a in &self.adj[u] {
                let to = self.head[a];
                if !seen[to] && self.usable(self.cap[a]) {
                    seen[to] = true;
                    stack.push(to);
                }
            }
        }
    }

    /// Net flow imbalance at node `v` (inflow − outflow over added edges).
    /// Zero (within tolerance) everywhere except `s` and `t` once a flow has
    /// been established; `-imbalance(s)` is the flow value.
    #[cfg(test)]
    pub(crate) fn imbalance(&self, v: usize) -> f64 {
        let mut x = 0.0;
        for e in 0..self.init.len() {
            let to = self.head[2 * e];
            let from = self.head[2 * e + 1];
            if to == v {
                x += self.flow_on(e);
            }
            if from == v {
                x -= self.flow_on(e);
            }
        }
        x
    }
}
