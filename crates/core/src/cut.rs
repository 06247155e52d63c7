//! `GetNextPareto` (paper Algorithm 2 + Appendix D): shorten every critical
//! path by (up to) the unit time `τ` with the minimum possible energy
//! increase, via a minimum cut on the Capacity DAG.

use perseus_dag::{Dag, EdgeId, NodeId, TimingAnalysis};
use perseus_flow::{MinCut, MinCutProblem, WarmStart};
use perseus_pipeline::PipelineDag;
use perseus_telemetry::{span, Telemetry};

use crate::context::PlanContext;

/// Payload of an edge of the edge-centric computation DAG.
#[derive(Debug, Clone, Copy, PartialEq)]
enum EcEdge {
    /// A frequency-controllable computation (pipeline DAG node).
    Comp(NodeId),
    /// A constant-time operation: fixed duration, single frequency choice.
    Fixed(f64),
    /// A pure dependency (zero duration).
    Dep,
}

impl EcEdge {
    /// Duration of the edge at the current planned durations.
    fn duration(self, planned: &[f64]) -> f64 {
        match self {
            EcEdge::Comp(n) => planned[n.index()],
            EcEdge::Fixed(t) => t,
            EcEdge::Dep => 0.0,
        }
    }
}

/// Result of one `GetNextPareto` step.
#[derive(Debug, Clone, PartialEq)]
pub enum CutOutcome {
    /// Durations were modified; the makespan shrank by the applied step.
    Reduced {
        /// New makespan after the modification.
        new_makespan: f64,
        /// Computations sped up (pipeline DAG node ids).
        sped_up: Vec<NodeId>,
        /// Computations slowed down.
        slowed_down: Vec<NodeId>,
    },
    /// Every s-t cut crosses an unmodifiable (already-fastest or fixed)
    /// edge: the iteration time cannot be reduced further.
    AtMinimumTime,
}

/// The reusable edge-centric view of a pipeline DAG (Algorithm 2, step ②):
/// each pipeline node `v` splits into `v_in → v_out` carrying the
/// computation, and each dependency becomes a zero-duration edge. The
/// structure (and hence the topological order the DAG keeps) never
/// changes across frontier iterations — only durations do — so a
/// [`FrontierSolver`](crate::FrontierSolver) builds it once, on its first
/// characterization.
#[derive(Debug, Clone)]
pub struct CutSolver {
    /// Edge `i` is the split edge of pipeline node `i`; the dependency
    /// edges follow.
    ec: Dag<(), EcEdge>,
    halves: Vec<(NodeId, NodeId)>,
}

impl CutSolver {
    /// Builds the edge-centric DAG for `pipe`.
    ///
    /// # Panics
    ///
    /// If `pipe` has a cycle. A server rejects such a pipeline when the
    /// job registers.
    pub fn new(pipe: &PipelineDag) -> CutSolver {
        let (ec, halves) = edge_centric(pipe);
        ec.topo_order().expect("pipeline DAGs are acyclic");
        CutSolver { ec, halves }
    }

    fn order(&self) -> &[NodeId] {
        self.ec.topo_order().expect("checked acyclic in `new`")
    }
}

fn edge_centric(pipe: &PipelineDag) -> (Dag<(), EcEdge>, Vec<(NodeId, NodeId)>) {
    let mut ec: Dag<(), EcEdge> = Dag::with_capacity(
        2 * pipe.dag.node_count(),
        pipe.dag.node_count() + pipe.dag.edge_count(),
    );
    let mut halves = Vec::with_capacity(pipe.dag.node_count());
    for id in pipe.dag.node_ids() {
        let v_in = ec.add_node(());
        let v_out = ec.add_node(());
        let payload = match pipe.dag.node(id) {
            perseus_pipeline::PipeNode::Comp(_) => EcEdge::Comp(id),
            perseus_pipeline::PipeNode::Fixed { time_s, .. } => EcEdge::Fixed(*time_s),
            _ => EcEdge::Dep,
        };
        let split = ec.add_edge_unchecked(v_in, v_out, payload);
        debug_assert_eq!(split.index(), id.index());
        halves.push((v_in, v_out));
    }
    for e in pipe.dag.edge_refs() {
        let (_, u_out) = halves[e.src.index()];
        let (v_in, _) = halves[e.dst.index()];
        ec.add_edge_unchecked(u_out, v_in, EcEdge::Dep);
    }
    (ec, halves)
}

/// Counters accumulated by a [`SolverArena`] across Phillips–Dessouky
/// iterations. `augmenting_paths_saved` estimates the searches a warm hit
/// avoided as the path count of the most recent rebuild minus the hit's
/// own count (the honest measurement — actual cold vs warm full-frontier
/// totals — is what the `solver` claims of the `claims` bin gate on).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Min-cut solves performed.
    pub solves: u64,
    /// Solves that reused the previous iteration's flow on an unchanged
    /// critical topology.
    pub warm_start_hits: u64,
    /// Solves of a changed critical topology rebuilt carrying the previous
    /// iteration's flow.
    pub seeded_solves: u64,
    /// Augmenting paths actually searched, warm and cold combined.
    pub augmenting_paths: u64,
    /// Estimated paths avoided by warm starts (see type docs).
    pub augmenting_paths_saved: u64,
}

/// Preallocated workspace for the Phillips–Dessouky iteration: every
/// buffer `get_next_pareto_arena` needs — edge durations and timing, the
/// critical mask, the compacted [`MinCutProblem`] and its chain map, its
/// solution, cut scratch — plus the [`WarmStart`] handle that carries the
/// previous iteration's max flow forward. Build one per pipeline
/// characterization and reuse it across all frontier steps: consecutive
/// steps refill the same buffers instead of reallocating. While the
/// critical topology is stable the max flow re-augments from the previous
/// one; when it changes, the rebuilt network starts from the previous
/// flow carried along the contracted chains.
#[derive(Debug)]
pub struct SolverArena {
    warm: WarmStart,
    warm_enabled: bool,
    problem: MinCutProblem,
    sol: MinCut,
    /// Per edge-centric edge: its duration under the current plan.
    ec_dur: Vec<f64>,
    /// Longest-path timing of the edge-centric DAG. After a step that
    /// reduced the makespan, `earliest` and `makespan` describe the plan
    /// the step left (the stretch pass reads them).
    timing: TimingAnalysis,
    /// Per edge-centric edge: on the critical DAG this step.
    critical: Vec<bool>,
    /// Per edge-centric node: critical in- and out-degree.
    crit_in: Vec<u32>,
    crit_out: Vec<u32>,
    /// Per edge-centric node: its node in the compacted problem.
    compact: Vec<Option<usize>>,
    /// Compacted edge `i` contracts the edge-centric chain
    /// `chain_edges[chain_start[i]..chain_start[i + 1]]`.
    chain_start: Vec<usize>,
    chain_edges: Vec<EdgeId>,
    /// Per compacted edge: (speed target, slow target).
    edge_meta: Vec<(Option<NodeId>, Option<NodeId>)>,
    /// Per edge-centric edge: the flow the last solve carried through it
    /// (0 off that step's critical DAG).
    ec_flow: Vec<f64>,
    /// Seed flow per compacted edge, the compacted topological order, and
    /// its incidence lists.
    seed: Vec<f64>,
    seed_order: Vec<usize>,
    incidence: Incidence,
    cut_scratch: Vec<usize>,
    speed_targets: Vec<NodeId>,
    backup: Vec<(NodeId, f64)>,
    /// Path count of the most recent rebuild (the per-hit savings
    /// baseline).
    last_cold_paths: u64,
    stats: ArenaStats,
}

impl Default for SolverArena {
    fn default() -> SolverArena {
        SolverArena::new()
    }
}

impl SolverArena {
    /// A fresh arena with warm starting enabled.
    pub fn new() -> SolverArena {
        SolverArena {
            warm: WarmStart::new(),
            warm_enabled: true,
            problem: MinCutProblem::default(),
            sol: MinCut::default(),
            ec_dur: Vec::new(),
            timing: TimingAnalysis::default(),
            critical: Vec::new(),
            crit_in: Vec::new(),
            crit_out: Vec::new(),
            compact: Vec::new(),
            chain_start: Vec::new(),
            chain_edges: Vec::new(),
            edge_meta: Vec::new(),
            ec_flow: Vec::new(),
            seed: Vec::new(),
            seed_order: Vec::new(),
            incidence: Incidence::default(),
            cut_scratch: Vec::new(),
            speed_targets: Vec::new(),
            backup: Vec::new(),
            last_cold_paths: 0,
            stats: ArenaStats::default(),
        }
    }

    /// Enables or disables warm starting. Disabled, every solve rebuilds
    /// the flow network from zero flow through the same code path — the
    /// cold baseline the `solver` claims of the `claims` bin compare
    /// against — and no flow is carried or seeded. Outputs are identical
    /// either way; only the work differs.
    pub fn set_warm(&mut self, enabled: bool) {
        self.warm_enabled = enabled;
        if !enabled {
            self.warm.invalidate();
            self.ec_flow.clear();
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }
}

/// Incoming and outgoing edge lists of every node of a [`MinCutProblem`],
/// in edge order.
#[derive(Debug, Default)]
pub(crate) struct Incidence {
    out_start: Vec<usize>,
    out: Vec<usize>,
    in_start: Vec<usize>,
    inc: Vec<usize>,
}

impl Incidence {
    fn rebuild(&mut self, problem: &MinCutProblem) {
        let (n, edges) = (problem.node_count(), problem.edges());
        group(
            n,
            edges.len(),
            |i| edges[i].src,
            &mut self.out_start,
            &mut self.out,
        );
        group(
            n,
            edges.len(),
            |i| edges[i].dst,
            &mut self.in_start,
            &mut self.inc,
        );
    }

    fn out_edges(&self, v: usize) -> &[usize] {
        &self.out[self.out_start[v]..self.out_start[v + 1]]
    }

    fn in_edges(&self, v: usize) -> &[usize] {
        &self.inc[self.in_start[v]..self.in_start[v + 1]]
    }
}

/// Counting sort of items `0..m` by `key` into `n` groups: group `v` is
/// `list[start[v]..start[v + 1]]`, in item order.
fn group(
    n: usize,
    m: usize,
    key: impl Fn(usize) -> usize,
    start: &mut Vec<usize>,
    list: &mut Vec<usize>,
) {
    start.clear();
    start.resize(n + 1, 0);
    for i in 0..m {
        start[key(i) + 1] += 1;
    }
    for v in 0..n {
        start[v + 1] += start[v];
    }
    // Place each item at its group's cursor; the cursors end one group
    // ahead, so shift them back.
    list.clear();
    list.resize(m, 0);
    for i in 0..m {
        let k = key(i);
        list[start[k]] = i;
        start[k] += 1;
    }
    for v in (1..=n).rev() {
        start[v] = start[v - 1];
    }
    start[0] = 0;
}

/// Makes `flow` a feasible flow of the acyclic `problem`: given flows
/// within `[0, cap]` on every edge, two trimming sweeps over the nodes in
/// topological `order` restore conservation at every node but `s` and
/// `t`. The first sweep trims each node's out-flow down to its in-flow;
/// the second, in reverse order, trims each node's in-flow down to its
/// out-flow. Each sweep finalizes a node's flows before it reaches the
/// node's neighbours, and flows only shrink, so capacities keep holding;
/// what remains is rounding at the last bit of the sums.
pub(crate) fn repair_seed(
    problem: &MinCutProblem,
    order: &[usize],
    (s, t): (usize, usize),
    flow: &mut [f64],
    incidence: &mut Incidence,
) {
    fn trim(edges: &[usize], flow: &mut [f64], mut excess: f64) {
        for &e in edges {
            if excess <= 0.0 {
                break;
            }
            let cut = flow[e].min(excess);
            flow[e] -= cut;
            excess -= cut;
        }
    }
    let total = |edges: &[usize], flow: &[f64]| edges.iter().map(|&e| flow[e]).sum::<f64>();
    incidence.rebuild(problem);
    for &v in order.iter().filter(|&&v| v != s && v != t) {
        let (ins, outs) = (incidence.in_edges(v), incidence.out_edges(v));
        let excess = total(outs, flow) - total(ins, flow);
        trim(outs, flow, excess);
    }
    for &v in order.iter().rev().filter(|&&v| v != s && v != t) {
        let (ins, outs) = (incidence.in_edges(v), incidence.out_edges(v));
        let excess = total(ins, flow) - total(outs, flow);
        trim(ins, flow, excess);
    }
}

/// Capacity-DAG annotation of one critical edge before contraction.
#[derive(Debug, Clone, Copy)]
struct EdgeCap {
    /// Energy cost of speeding the edge up by τ (infinite if it cannot).
    cap: f64,
    /// Node to speed up if a forward cut selects this edge.
    speed: Option<NodeId>,
    /// Node to slow down if a backward cut crosses this edge.
    slow: Option<NodeId>,
    /// Energy reclaimed per τ of slowing `slow` (tie-break for chains).
    slow_gain: f64,
}

impl EdgeCap {
    /// An edge the cut may not cross forward and no slowdown targets.
    const FIXED: EdgeCap = EdgeCap {
        cap: f64::INFINITY,
        speed: None,
        slow: None,
        slow_gain: 0.0,
    };

    /// The Eq. 8 capacity of a critical edge under the current plan.
    fn of(ctx: &PlanContext<'_>, edge: EcEdge, planned: &[f64], tau: f64) -> EdgeCap {
        let EcEdge::Comp(n) = edge else {
            return EdgeCap::FIXED;
        };
        let info = ctx.info(n).expect("comp node has plan info");
        let tiny = tau * 1e-9;
        let tcur = planned[n.index()];
        let can_speed = tcur > info.t_min + tiny;
        let can_slow = tcur < info.t_max - tiny;
        // Price the capacities over steps CLAMPED to the measured range,
        // normalized back to a per-τ rate so edges stay comparable.
        // Evaluating the exponential below t_min (or above t_max)
        // extrapolates where it was never fitted and can blow capacities
        // up by orders of magnitude, which both misprices the cut and
        // poisons the flow solver's relative epsilon.
        let e_plus = if can_speed {
            let t_to = (tcur - tau).max(info.t_min);
            (info.fit.energy(t_to) - info.fit.energy(tcur)).max(0.0) * (tau / (tcur - t_to))
        } else {
            0.0
        };
        let e_minus = if can_slow {
            let t_to = (tcur + tau).min(info.t_max);
            (info.fit.energy(tcur) - info.fit.energy(t_to)).max(0.0) * (tau / (t_to - tcur))
        } else {
            0.0
        };
        // The Eq. 8 lower bounds (the slowdown rewards e⁻) are relaxed to
        // zero: the post-step stretch pass (see `characterize`) reclaims
        // every gap a backward-crossing slowdown would have exploited,
        // because the fitted energy is decreasing on [t_min, t_max] —
        // zero-slack schedules dominate. e⁻ still breaks ties for which
        // chain member to slow when a backward cut edge does appear.
        EdgeCap {
            // At t_min the cut may not cross the edge forward.
            cap: if can_speed { e_plus } else { f64::INFINITY },
            speed: can_speed.then_some(n),
            slow: can_slow.then_some(n),
            slow_gain: e_minus,
        }
    }
}

/// One step along the frontier: reduce the DAG's execution time with
/// minimal energy increase, solved cold (see [`get_next_pareto_arena`]).
pub fn get_next_pareto(ctx: &PlanContext<'_>, planned: &mut [f64], tau: f64) -> CutOutcome {
    let solver = CutSolver::new(&ctx.pipe);
    get_next_pareto_arena(
        ctx,
        &solver,
        planned,
        tau,
        &mut SolverArena::new(),
        &Telemetry::disabled(),
    )
}

/// [`get_next_pareto`] against a prebuilt [`CutSolver`] and a reusable
/// [`SolverArena`] (the fast path for the iterative sweep).
///
/// `planned` holds the current planned duration of every pipeline DAG node
/// (by node index) and is modified in place on success.
///
/// The capacity of each critical computation follows Appendix D Eq. 8:
/// `e⁺ = e(t−τ) − e(t)` to speed up, read off the fitted exponential of
/// the *measured computation energy*; `e⁻ = e(t) − e(t+τ)`, reclaimed by
/// slowing down, only picks which chain member a backward cut slows.
/// (Augmenting these with blocking-power terms looks tempting — slowing
/// converts blocking watts into compute watts — but the paper keeps
/// `P_blocking` out of the capacities, and so does this cut.)
///
/// Engineering refinements over the paper's pseudocode (all standard in
/// the time–cost tradeoff literature — Phillips–Dessouky / Hochbaum
/// repeated cuts; end states are unchanged, see the inline notes):
///
/// * **Adaptive steps** — the applied step is `min(τ, smallest headroom on
///   the cut)`, so sub-τ duration crumbs never wedge the sweep.
/// * **Zero lower bounds + stretch pass** — the paper's Eq. 8 lower
///   bounds (the slowdown rewards `e⁻`) are relaxed to zero, so the cut is
///   a plain minimum cut with no feasibility phase;
///   [`characterize`](crate::characterize) instead stretches every
///   computation into its schedule gap after each step, which dominates
///   any backward-crossing slowdown because fitted energy decreases on
///   `[t_min, t_max]`.
/// * **Series contraction** — chains of degree-(1,1) nodes in the Critical
///   DAG compose as `cap = min`; a cut crosses a chain at its cheapest
///   edge.
///
/// The step works in the arena's buffers: one full timing pass marks the
/// critical edges in place, chains contract straight off the edge-centric
/// DAG, and the post-apply makespan check runs the forward pass alone.
/// When consecutive calls produce the same compacted topology — the common
/// case along a frontier, where only durations drift — the max flow is
/// warm-started from the previous iteration's flow; when the topology
/// changes, the rebuilt network is seeded with that flow, carried along
/// each new chain (its minimum over the chain's edges, trimmed feasible).
/// `telemetry` counts cut solves, times the step's phases as spans, and is
/// threaded into the min-cut solver.
///
/// Output is bit-identical to the cold path: the solver extracts the
/// minimal source-side min cut, which is unique across all maximum flows.
pub fn get_next_pareto_arena(
    ctx: &PlanContext<'_>,
    solver: &CutSolver,
    planned: &mut [f64],
    tau: f64,
    arena: &mut SolverArena,
    telemetry: &Telemetry,
) -> CutOutcome {
    if telemetry.is_enabled() {
        telemetry.counter("perseus_cut_solves_total").inc();
    }
    // Disjoint borrows of every arena buffer; the step fills them in
    // place instead of allocating.
    let SolverArena {
        warm,
        warm_enabled,
        problem,
        sol,
        ec_dur,
        timing,
        critical,
        crit_in,
        crit_out,
        compact,
        chain_start,
        chain_edges,
        edge_meta,
        ec_flow,
        seed,
        seed_order,
        incidence,
        cut_scratch,
        speed_targets,
        backup,
        last_cold_paths,
        stats,
    } = arena;
    let (ec, halves, order) = (&solver.ec, &solver.halves, solver.order());
    // The split edges of the pipeline source/sink are always critical.
    let (source_in, _) = halves[ctx.pipe.source.index()];
    let (_, sink_out) = halves[ctx.pipe.sink.index()];

    let makespan = {
        let _span = span!(telemetry, "timing");
        ec_dur.clear();
        ec_dur.extend(ec.edge_refs().map(|r| r.payload.duration(planned)));
        timing.refill(ec, order, ec_dur);
        let makespan = timing.makespan;
        // Slack below τ/2 counts as critical: folding near-critical paths
        // into the cut guarantees each iteration advances by at least ~τ/2
        // (instead of crawling from one microscopic slack event to the
        // next) while keeping every step overshoot-free. The price is a
        // slightly conservative cut — a few more edges constrained than
        // strictly necessary — which costs marginal energy, not
        // correctness.
        let tol = (tau * 0.5).max(makespan * 1e-12);
        critical.clear();
        crit_in.clear();
        crit_in.resize(ec.node_count(), 0);
        crit_out.clear();
        crit_out.resize(ec.node_count(), 0);
        for r in ec.edge_refs() {
            let on = timing.slack(r.src, r.dst, ec_dur[r.id.index()]) <= tol;
            critical.push(on);
            if on {
                crit_out[r.src.index()] += 1;
                crit_in[r.dst.index()] += 1;
            }
        }
        makespan
    };
    let on_critical_dag = |v: NodeId| crit_in[v.index()] + crit_out[v.index()] > 0;
    if !on_critical_dag(source_in) || !on_critical_dag(sink_out) {
        return CutOutcome::AtMinimumTime;
    }

    {
        let _span = span!(telemetry, "contract");
        // Series contraction: a node (other than s/t) with exactly one
        // incoming and one outgoing critical edge is a pass-through; flow
        // through a chain equals flow through each of its edges, so the
        // chain behaves like one edge with `cap = min(cap_i)` (a forward
        // cut picks the cheapest edge to speed; a backward cut slows the
        // edge with the largest reclaim). Nodes and chains are numbered in
        // node and edge-id order, so the compacted problem is the same
        // edge for edge whatever else the step reuses.
        let contractible = |v: NodeId| {
            v != source_in && v != sink_out && crit_in[v.index()] == 1 && crit_out[v.index()] == 1
        };
        compact.clear();
        compact.resize(ec.node_count(), None);
        let mut n_compact = 0usize;
        for v in ec.node_ids() {
            if on_critical_dag(v) && !contractible(v) {
                compact[v.index()] = Some(n_compact);
                n_compact += 1;
            }
        }
        problem.reset(n_compact);
        edge_meta.clear();
        chain_start.clear();
        chain_start.push(0);
        chain_edges.clear();
        let critical_out = |v: NodeId| ec.out_edges(v).filter(|r| critical[r.id.index()]);
        for u in ec.node_ids() {
            let Some(cu) = compact[u.index()] else {
                continue;
            };
            for first in critical_out(u) {
                let mut chain = EdgeCap::of(ctx, *first.payload, planned, tau);
                chain_edges.push(first.id);
                let mut head = first.dst;
                while contractible(head) {
                    let next = critical_out(head).next().expect("out-degree 1");
                    let c = EdgeCap::of(ctx, *next.payload, planned, tau);
                    if c.cap < chain.cap {
                        chain.cap = c.cap;
                        chain.speed = c.speed;
                    }
                    // A backward cut slows ONE chain member; pick the one
                    // with the largest reclaim.
                    if c.slow_gain > chain.slow_gain {
                        chain.slow_gain = c.slow_gain;
                        chain.slow = c.slow;
                    }
                    chain_edges.push(next.id);
                    head = next.dst;
                }
                problem.add_edge(
                    cu,
                    compact[head.index()].expect("non-contractible"),
                    chain.cap,
                );
                edge_meta.push((chain.speed, chain.slow));
                chain_start.push(chain_edges.len());
            }
        }
    }
    let st = (
        compact[source_in.index()].expect("terminal"),
        compact[sink_out.index()].expect("terminal"),
    );

    if !*warm_enabled {
        warm.invalidate();
    }
    stats.solves += 1;
    let solved = {
        let _span = span!(telemetry, "cut_solve");
        // A changed topology starts from the previous flow: each new edge
        // carries the least the previous solve sent through any edge of its
        // chain (0 for an edge that was not critical then), clipped to its
        // capacity and trimmed feasible.
        let seeding = *warm_enabled && ec_flow.len() == ec.edge_count() && !warm.matches(problem);
        if seeding {
            seed.clear();
            seed.extend(problem.edges().iter().enumerate().map(|(i, e)| {
                chain_edges[chain_start[i]..chain_start[i + 1]]
                    .iter()
                    .fold(e.cap, |f, c| f.min(ec_flow[c.index()]))
                    .max(0.0)
            }));
            seed_order.clear();
            seed_order.extend(order.iter().filter_map(|v| compact[v.index()]));
            repair_seed(problem, seed_order, st, seed, incidence);
            stats.seeded_solves += 1;
        }
        let solved = problem.solve_warm_into(
            st.0,
            st.1,
            warm,
            seeding.then_some(&seed[..]),
            sol,
            telemetry,
        );
        if *warm_enabled && solved.is_ok() {
            ec_flow.clear();
            ec_flow.resize(ec.edge_count(), 0.0);
            for i in 0..problem.edges().len() {
                let f = warm.flow_on(i);
                for c in &chain_edges[chain_start[i]..chain_start[i + 1]] {
                    ec_flow[c.index()] = f;
                }
            }
        }
        solved
    };
    let Ok(hit) = solved else {
        return CutOutcome::AtMinimumTime;
    };
    let paths = sol.augmenting_paths;
    stats.augmenting_paths += paths;
    if hit {
        stats.warm_start_hits += 1;
        let saved = last_cold_paths.saturating_sub(paths);
        stats.augmenting_paths_saved += saved;
        if telemetry.is_enabled() {
            telemetry.counter("perseus_cut_warm_start_hits_total").inc();
            telemetry
                .counter("perseus_cut_augmenting_paths_saved_total")
                .add(saved);
        }
    } else {
        *last_cold_paths = paths;
    }

    let _span = span!(telemetry, "apply");
    if problem.cut_capacity(&sol.source_side).is_infinite() {
        return CutOutcome::AtMinimumTime;
    }

    // Apply: forward cut edges speed up (at their cheapest chain member),
    // backward cut edges slow down.
    sol.forward_cut_edges_into(problem, cut_scratch);
    speed_targets.clear();
    speed_targets.extend(cut_scratch.iter().filter_map(|&idx| edge_meta[idx].0));
    if speed_targets.is_empty() {
        // The only way to "cut" was through unmodifiable edges that the
        // capacity check let through numerically; treat as converged.
        return CutOutcome::AtMinimumTime;
    }

    // Step: τ, shrunk to the smallest headroom on the cut (Phillips–
    // Dessouky repeated cuts) so no computation is pushed below t_min.
    // Overshooting a non-critical path's slack is fine here — the stretch
    // pass that follows each step reclaims it.
    let headroom = speed_targets
        .iter()
        .map(|n| planned[n.index()] - ctx.info(*n).expect("comp").t_min)
        .fold(f64::INFINITY, f64::min);
    let delta = headroom.min(tau);
    if delta <= 0.0 {
        return CutOutcome::AtMinimumTime;
    }
    // Split edge `n` carries node `n`, so a changed duration patches one
    // entry of the edge durations.
    let mut sped_up = Vec::new();
    let mut slowed_down = Vec::new();
    for &n in speed_targets.iter() {
        let info = ctx.info(n).expect("comp");
        planned[n.index()] = (planned[n.index()] - delta).max(info.t_min);
        ec_dur[n.index()] = planned[n.index()];
        sped_up.push(n);
    }
    sol.backward_cut_edges_into(problem, cut_scratch);
    backup.clear();
    backup.extend(
        cut_scratch
            .iter()
            .filter_map(|&idx| edge_meta[idx].1)
            .map(|n| (n, planned[n.index()])),
    );
    for &(n, t_old) in backup.iter() {
        let info = ctx.info(n).expect("comp");
        planned[n.index()] = (t_old + delta).min(info.t_max);
        ec_dur[n.index()] = planned[n.index()];
        slowed_down.push(n);
    }

    // Defensive re-check: the theory says the makespan shrinks by δ; if a
    // numerically marginal slowdown ever lengthened it instead, revert the
    // slowdowns (keeping the speedups, which can only help). Only the
    // makespan is read, so the forward pass suffices; it also leaves the
    // start times the stretch pass reads.
    timing.refill_earliest(ec, order, ec_dur);
    if timing.makespan > makespan - tau * 1e-6 {
        for &(n, t_old) in backup.iter() {
            planned[n.index()] = t_old;
            ec_dur[n.index()] = t_old;
        }
        slowed_down.clear();
        timing.refill_earliest(ec, order, ec_dur);
    }
    CutOutcome::Reduced {
        new_makespan: timing.makespan,
        sped_up,
        slowed_down,
    }
}

/// Stretches every computation into its schedule gap without moving any
/// start time: with start times fixed at the current earliest schedule,
/// `dur(v)` may grow to `min(t_max_v, min over successors of
/// start(succ) − start(v))` (sink-adjacent nodes are bounded by the
/// makespan). Because the fitted energy decreases on `[t_min, t_max]`,
/// this is a pure improvement — it reclaims both the step overshoot of the
/// coarse τ sweep and everything a backward-crossing (lower-bound)
/// slowdown in the exact Phillips–Dessouky formulation would have
/// captured.
///
/// Must follow a [`get_next_pareto_arena`] step that returned
/// [`CutOutcome::Reduced`] for `planned`: the start times are that step's
/// last forward pass (a node starts when its in-event occurs), which are
/// the starts a node-centric pass over `planned` computes — the same
/// maxima over the same sums.
pub(crate) fn stretch_into_slack(
    ctx: &PlanContext<'_>,
    solver: &CutSolver,
    arena: &SolverArena,
    planned: &mut [f64],
) {
    let timing = &arena.timing;
    let start = |v: NodeId| timing.earliest[solver.halves[v.index()].0.index()];
    let dag = &ctx.pipe.dag;
    for id in dag.node_ids() {
        let Some(info) = ctx.info(id) else { continue };
        let limit = dag
            .out_edges(id)
            .fold(timing.makespan, |limit, e| limit.min(start(e.dst)));
        let gap = limit - start(id);
        if gap > planned[id.index()] {
            planned[id.index()] = gap.min(info.t_max).max(planned[id.index()]);
        }
    }
}
