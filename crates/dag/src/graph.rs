//! Generic DAG container with index-based node and edge handles.

use std::fmt;
use std::sync::OnceLock;

/// Handle to a node inside a [`Dag`].
///
/// Node ids are dense indices assigned in insertion order and remain valid
/// for the lifetime of the graph (nodes are never removed).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Handle to an edge inside a [`Dag`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// Index of this node in the graph's dense node storage.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// Index of this edge in the graph's dense edge storage.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Errors produced by DAG construction and queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// An operation referenced a node id that does not exist in this graph.
    InvalidNode(NodeId),
    /// Adding the edge would have created a cycle.
    WouldCycle { src: NodeId, dst: NodeId },
    /// A self-loop was requested (`src == dst`).
    SelfLoop(NodeId),
    /// The graph contains a cycle (detected during a topological sort).
    Cyclic,
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::InvalidNode(n) => write!(f, "node {n:?} does not exist"),
            DagError::WouldCycle { src, dst } => {
                write!(f, "edge {src:?} -> {dst:?} would create a cycle")
            }
            DagError::SelfLoop(n) => write!(f, "self-loop on {n:?}"),
            DagError::Cyclic => write!(f, "graph contains a cycle"),
        }
    }
}

impl std::error::Error for DagError {}

/// A materialized edge: endpoints plus a reference to its payload.
#[derive(Debug)]
pub struct EdgeRef<'a, E> {
    /// Edge handle.
    pub id: EdgeId,
    /// Tail (source) node.
    pub src: NodeId,
    /// Head (destination) node.
    pub dst: NodeId,
    /// Payload attached to the edge.
    pub payload: &'a E,
}

impl<E> Clone for EdgeRef<'_, E> {
    fn clone(&self) -> Self {
        *self
    }
}

// Manual impl: `&E` is always `Copy`, so no `E: Copy` bound is needed
// (the derive would add one).
impl<E> Copy for EdgeRef<'_, E> {}

#[derive(Debug, Clone)]
struct EdgeData<E> {
    src: NodeId,
    dst: NodeId,
    payload: E,
}

/// A directed acyclic graph with payloads on both nodes and edges.
///
/// Acyclicity is enforced lazily: [`Dag::add_edge`] performs a reachability
/// check so the structure can never hold a cycle, which keeps every
/// downstream algorithm (topological sort, longest path) total.
///
/// The graph keeps its topological order once computed: every longest-path
/// pass over an unchanged structure reads it instead of sorting again.
#[derive(Debug, Clone)]
pub struct Dag<N, E> {
    nodes: Vec<N>,
    edges: Vec<EdgeData<E>>,
    succ: Vec<Vec<EdgeId>>,
    /// In-degree per node. Degree queries and Kahn's sort need only the
    /// count, so no in-edge list is kept.
    in_deg: Vec<u32>,
    /// Kahn order of the current structure; reset by every node or edge
    /// insertion.
    topo: OnceLock<Result<Vec<NodeId>, DagError>>,
}

impl<N, E> Default for Dag<N, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N, E> Dag<N, E> {
    /// Creates an empty DAG.
    pub fn new() -> Self {
        Dag {
            nodes: Vec::new(),
            edges: Vec::new(),
            succ: Vec::new(),
            in_deg: Vec::new(),
            topo: OnceLock::new(),
        }
    }

    /// Creates an empty DAG with capacity for `nodes` nodes and `edges` edges.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        Dag {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            succ: Vec::with_capacity(nodes),
            in_deg: Vec::with_capacity(nodes),
            topo: OnceLock::new(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds a node carrying `payload` and returns its handle.
    pub fn add_node(&mut self, payload: N) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(payload);
        self.succ.push(Vec::new());
        self.in_deg.push(0);
        self.topo = OnceLock::new();
        id
    }

    fn check_node(&self, n: NodeId) -> Result<(), DagError> {
        if n.index() < self.nodes.len() {
            Ok(())
        } else {
            Err(DagError::InvalidNode(n))
        }
    }

    /// Adds an edge `src -> dst`, rejecting self-loops and cycles.
    ///
    /// Cycle prevention costs a DFS reachability query from `dst` to `src`;
    /// for bulk construction of graphs known to be acyclic (e.g. pipeline
    /// schedules where edges always point forward in time), prefer
    /// [`Dag::add_edge_unchecked`].
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, payload: E) -> Result<EdgeId, DagError> {
        self.check_node(src)?;
        self.check_node(dst)?;
        if src == dst {
            return Err(DagError::SelfLoop(src));
        }
        if self.is_reachable(dst, src) {
            return Err(DagError::WouldCycle { src, dst });
        }
        Ok(self.push_edge(src, dst, payload))
    }

    /// Adds an edge without the cycle check.
    ///
    /// The caller must guarantee that `src -> dst` does not close a cycle;
    /// violating this makes later topological queries return
    /// [`DagError::Cyclic`] (it is a logic error, not memory unsafety).
    pub fn add_edge_unchecked(&mut self, src: NodeId, dst: NodeId, payload: E) -> EdgeId {
        debug_assert!(src.index() < self.nodes.len() && dst.index() < self.nodes.len());
        self.push_edge(src, dst, payload)
    }

    fn push_edge(&mut self, src: NodeId, dst: NodeId, payload: E) -> EdgeId {
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(EdgeData { src, dst, payload });
        self.succ[src.index()].push(id);
        self.in_deg[dst.index()] += 1;
        self.topo = OnceLock::new();
        id
    }

    /// Payload of node `n`.
    pub fn node(&self, n: NodeId) -> &N {
        &self.nodes[n.index()]
    }

    /// Mutable payload of node `n`.
    pub fn node_mut(&mut self, n: NodeId) -> &mut N {
        &mut self.nodes[n.index()]
    }

    /// Edge endpoints and payload for `e`.
    pub fn edge(&self, e: EdgeId) -> EdgeRef<'_, E> {
        let d = &self.edges[e.index()];
        EdgeRef {
            id: e,
            src: d.src,
            dst: d.dst,
            payload: &d.payload,
        }
    }

    /// Iterator over all node ids in insertion order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterator over all edges.
    pub fn edge_refs(&self) -> impl Iterator<Item = EdgeRef<'_, E>> + '_ {
        self.edges.iter().enumerate().map(|(i, d)| EdgeRef {
            id: EdgeId(i as u32),
            src: d.src,
            dst: d.dst,
            payload: &d.payload,
        })
    }

    /// Outgoing edges of `n`.
    pub fn out_edges(&self, n: NodeId) -> impl Iterator<Item = EdgeRef<'_, E>> + '_ {
        self.succ[n.index()].iter().map(move |&e| self.edge(e))
    }

    /// Out-degree of `n`.
    pub fn out_degree(&self, n: NodeId) -> usize {
        self.succ[n.index()].len()
    }

    /// In-degree of `n`.
    pub fn in_degree(&self, n: NodeId) -> usize {
        self.in_deg[n.index()] as usize
    }

    /// True iff `to` is reachable from `from` (including `from == to`).
    pub fn is_reachable(&self, from: NodeId, to: NodeId) -> bool {
        if from == to {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![from];
        seen[from.index()] = true;
        while let Some(u) = stack.pop() {
            for &e in &self.succ[u.index()] {
                let v = self.edges[e.index()].dst;
                if v == to {
                    return true;
                }
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    stack.push(v);
                }
            }
        }
        false
    }

    /// Kahn topological sort, computed on first use and kept until the
    /// structure next changes.
    ///
    /// Returns [`DagError::Cyclic`] if unchecked edge insertion introduced a
    /// cycle.
    pub fn topo_order(&self) -> Result<&[NodeId], DagError> {
        self.topo
            .get_or_init(|| self.kahn())
            .as_deref()
            .map_err(Clone::clone)
    }

    fn kahn(&self) -> Result<Vec<NodeId>, DagError> {
        let n = self.nodes.len();
        let mut indeg = self.in_deg.clone();
        let mut queue: Vec<NodeId> = (0..n as u32)
            .map(NodeId)
            .filter(|id| indeg[id.index()] == 0)
            .collect();
        let mut order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            order.push(u);
            for &e in &self.succ[u.index()] {
                let v = self.edges[e.index()].dst;
                indeg[v.index()] -= 1;
                if indeg[v.index()] == 0 {
                    queue.push(v);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err(DagError::Cyclic)
        }
    }

    /// Source nodes (in-degree zero).
    pub fn sources(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&n| self.in_degree(n) == 0)
            .collect()
    }

    /// Sink nodes (out-degree zero).
    pub fn sinks(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&n| self.out_degree(n) == 0)
            .collect()
    }
}
