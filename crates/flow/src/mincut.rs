//! The minimum cut of `GetNextPareto`'s Capacity DAG.
//!
//! Each critical computation becomes an edge whose capacity is the energy
//! cost of speeding it up by `τ` (paper Eq. 8); fixed operations and pure
//! dependencies are unbounded. The minimal source-side minimum cut names
//! the computations to speed up (forward edges) and to slow down
//! (backward edges). Consecutive Phillips–Dessouky steps mostly solve
//! networks of one topology with drifting capacities, so a [`WarmStart`]
//! carries the solved [`FlowGraph`] from one solve into the next; when
//! the topology does change, the caller may seed the rebuilt network
//! with a feasible flow carried over from the previous solve.

use std::fmt;

use perseus_telemetry::Telemetry;

use crate::graph::FlowGraph;

/// One edge of a [`MinCutProblem`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CutEdge {
    /// Tail node.
    pub src: usize,
    /// Head node.
    pub dst: usize,
    /// Maximum flow this edge admits. Use [`MinCutProblem::unbounded`]
    /// as a stand-in for infinity; the solver substitutes a capacity that
    /// can never bind.
    pub cap: f64,
}

/// Errors from the min-cut solver.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowError {
    /// An edge has a negative or NaN capacity, or an endpoint out of range.
    InvalidBounds { edge: usize },
    /// Source or sink index out of range, or `s == t`.
    InvalidTerminals,
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::InvalidBounds { edge } => write!(f, "edge {edge} has invalid bounds"),
            FlowError::InvalidTerminals => write!(f, "invalid source/sink"),
        }
    }
}

impl std::error::Error for FlowError {}

/// A minimum-cut problem over nodes `0..n`.
#[derive(Debug, Clone, Default)]
pub struct MinCutProblem {
    n: usize,
    edges: Vec<CutEdge>,
}

/// The minimal source-side minimum cut of a [`MinCutProblem`].
#[derive(Debug, Clone, Default)]
pub struct MinCut {
    /// `source_side[v]` is true iff `v` lies on the source side of the
    /// minimum cut (reachable from `s` in the final residual network).
    pub source_side: Vec<bool>,
    /// Augmenting paths the solve pushed.
    pub augmenting_paths: u64,
}

impl MinCut {
    /// Edges crossing the cut forward (source side -> sink side) into a
    /// caller-owned buffer. In the Capacity DAG these are the
    /// computations to **speed up** by `τ`.
    pub fn forward_cut_edges_into(&self, problem: &MinCutProblem, out: &mut Vec<usize>) {
        out.clear();
        out.extend(
            problem
                .edges
                .iter()
                .enumerate()
                .filter(|(_, e)| self.source_side[e.src] && !self.source_side[e.dst])
                .map(|(i, _)| i),
        );
    }

    /// Edges crossing the cut backward (sink side -> source side) into a
    /// caller-owned buffer. In the Capacity DAG these are the
    /// computations to **slow down** by `τ`.
    pub fn backward_cut_edges_into(&self, problem: &MinCutProblem, out: &mut Vec<usize>) {
        out.clear();
        out.extend(
            problem
                .edges
                .iter()
                .enumerate()
                .filter(|(_, e)| !self.source_side[e.src] && self.source_side[e.dst])
                .map(|(i, _)| i),
        );
    }
}

/// Reusable state for [`MinCutProblem::solve_warm_into`]: the solved
/// [`FlowGraph`] of the previous solve plus its topology signature. When
/// consecutive problems share a topology (same node count, same edge
/// endpoints in the same order) and differ only in capacities — exactly
/// the shape of consecutive Phillips–Dessouky iterations — the cached
/// graph is retuned in place and re-augmented from the previous flow
/// instead of rebuilt and solved from zero. On a mismatch the graph is
/// rebuilt, from the caller's seed flow if one is given and from zero
/// otherwise. A fresh handle always misses, so an unseeded solve through
/// one is the cold solve.
#[derive(Debug, Default)]
pub struct WarmStart {
    graph: Option<FlowGraph>,
    sig_n: usize,
    /// `(src, dst)` of every edge the cached graph was built for.
    sig: Vec<(usize, usize)>,
    seen: Vec<bool>,
    stack: Vec<usize>,
    /// Solves that reused the cached flow.
    pub hits: u64,
    /// Solves that (re)built the graph, seeded or from zero.
    pub misses: u64,
    /// Misses that rebuilt the graph carrying a caller's seed flow.
    pub seeded: u64,
}

impl WarmStart {
    /// An empty handle; the first solve through it is always cold.
    pub fn new() -> WarmStart {
        WarmStart::default()
    }

    /// Drops the cached graph so the next solve rebuilds from scratch.
    pub fn invalidate(&mut self) {
        self.graph = None;
        self.sig.clear();
        self.sig_n = 0;
    }

    /// Whether the cached graph was built for `problem`'s topology, so
    /// solving `problem` next would retune it rather than rebuild.
    pub fn matches(&self, problem: &MinCutProblem) -> bool {
        self.graph.is_some()
            && self.sig_n == problem.n
            && self.sig.len() == problem.edges.len()
            && self
                .sig
                .iter()
                .zip(&problem.edges)
                .all(|(sig, e)| *sig == (e.src, e.dst))
    }

    /// Flow on edge `e` of the most recently solved problem (0 before
    /// any solve).
    pub fn flow_on(&self, e: usize) -> f64 {
        self.graph.as_ref().map_or(0.0, |g| g.flow_on(e))
    }
}

impl MinCutProblem {
    /// Creates an empty problem over `n` nodes.
    pub fn new(n: usize) -> Self {
        MinCutProblem {
            n,
            edges: Vec::new(),
        }
    }

    /// Sentinel capacity meaning "unconstrained". The solver replaces it
    /// with a finite capacity exceeding any possible flow, so a finite
    /// minimum cut never crosses such an edge forward.
    pub fn unbounded() -> f64 {
        f64::INFINITY
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Edges added so far.
    pub fn edges(&self) -> &[CutEdge] {
        &self.edges
    }

    /// Clears the problem for reuse over `n` nodes, keeping the edge
    /// allocation (arena-style rebuilds in the Phillips–Dessouky loop).
    pub fn reset(&mut self, n: usize) {
        self.n = n;
        self.edges.clear();
    }

    /// Adds an edge `src -> dst` with capacity `cap`; returns its index.
    pub fn add_edge(&mut self, src: usize, dst: usize, cap: f64) -> usize {
        self.edges.push(CutEdge { src, dst, cap });
        self.edges.len() - 1
    }

    fn validate(&self, s: usize, t: usize) -> Result<(), FlowError> {
        if s >= self.n || t >= self.n || s == t {
            return Err(FlowError::InvalidTerminals);
        }
        for (i, e) in self.edges.iter().enumerate() {
            if e.src >= self.n || e.dst >= self.n || e.cap.is_nan() || e.cap < 0.0 {
                return Err(FlowError::InvalidBounds { edge: i });
            }
        }
        Ok(())
    }

    /// Finite stand-in for infinite capacity: larger than any flow that the
    /// finite edges can carry, but small enough to keep `f64` arithmetic
    /// accurate at the problem's own scale.
    fn big(&self) -> f64 {
        let mut total = 1.0;
        for e in &self.edges {
            if e.cap.is_finite() {
                total += e.cap;
            }
        }
        total * 4.0
    }

    /// Solves the minimal source-side minimum `s`–`t` cut into a
    /// caller-owned [`MinCut`]. Returns `Ok(true)` when `warm` held the
    /// previous solve of this topology and its flow was reused
    /// ([`FlowGraph::retune_edge`] +
    /// [`FlowGraph::max_flow_incremental_with`]), `Ok(false)` when the
    /// graph was (re)built.
    ///
    /// `seed` matters only on a rebuild: given, the new graph carries
    /// `seed[i]` on edge `i` ([`FlowGraph::add_edge_with_flow`]) and
    /// augments from there; absent, it solves from zero. A seed must be a
    /// feasible flow of this problem — within every edge's capacity and
    /// conserved at every node but `s` and `t` — or the cut may not be
    /// minimum.
    ///
    /// The minimal source-side min cut is unique across all maximum flows,
    /// so `out.source_side` (and everything derived from it) is identical
    /// whichever way the flow was reached.
    ///
    /// # Errors
    ///
    /// [`FlowError::InvalidBounds`] / [`FlowError::InvalidTerminals`] on
    /// malformed input.
    ///
    /// # Panics
    ///
    /// Panics if a seed does not have one flow per edge.
    pub fn solve_warm_into(
        &self,
        s: usize,
        t: usize,
        warm: &mut WarmStart,
        seed: Option<&[f64]>,
        out: &mut MinCut,
        telemetry: &Telemetry,
    ) -> Result<bool, FlowError> {
        if telemetry.is_enabled() {
            telemetry.counter("perseus_flow_bounded_solves_total").inc();
        }
        self.validate(s, t)?;
        let big = self.big();
        let cap = |c: f64| if c.is_finite() { c } else { big };

        let hit = warm.matches(self);
        if hit {
            warm.hits += 1;
            let g = warm
                .graph
                .as_mut()
                .expect("matches() implies a cached graph");
            for (i, e) in self.edges.iter().enumerate() {
                g.retune_edge(i, cap(e.cap));
            }
            g.max_flow_incremental_with(s, t, telemetry);
        } else {
            warm.misses += 1;
            if let Some(seed) = seed {
                assert_eq!(seed.len(), self.edges.len(), "one seed flow per edge");
                warm.seeded += 1;
            }
            let mut g = FlowGraph::new(self.n);
            for (i, e) in self.edges.iter().enumerate() {
                let flow = seed.map_or(0.0, |seed| seed[i]);
                g.add_edge_with_flow(e.src, e.dst, cap(e.cap), flow);
            }
            g.max_flow_incremental_with(s, t, telemetry);
            warm.sig_n = self.n;
            warm.sig.clear();
            warm.sig.extend(self.edges.iter().map(|e| (e.src, e.dst)));
            warm.graph = Some(g);
        }

        let WarmStart {
            graph, seen, stack, ..
        } = warm;
        let g = graph.as_ref().expect("graph cached just above");
        g.residual_reachable_into(s, seen, stack);
        out.source_side.clear();
        out.source_side.extend_from_slice(seen);
        out.augmenting_paths = g.last_augmentations();
        Ok(hit)
    }

    /// Capacity of the cut described by `source_side`: the sum of the
    /// capacities of forward-crossing edges. Infinite if a forward edge
    /// is unbounded.
    pub fn cut_capacity(&self, source_side: &[bool]) -> f64 {
        let mut c = 0.0;
        for e in &self.edges {
            if source_side[e.src] && !source_side[e.dst] {
                c += e.cap; // may be +inf
            }
        }
        c
    }
}
