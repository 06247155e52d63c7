//! `GetNextPareto` (paper Algorithm 2 + Appendix D): shorten every critical
//! path by (up to) the unit time `τ` with the minimum possible energy
//! increase, via a minimum cut on the Capacity DAG.

use perseus_dag::{CriticalDag, Dag, NodeId, TimingAnalysis};
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
/// structure (and hence the topological order) never changes across
/// frontier iterations — only durations do — so
/// [`characterize`](crate::characterize) builds it once.
#[derive(Debug, Clone)]
pub struct CutSolver {
    ec: Dag<(), EcEdge>,
    halves: Vec<(NodeId, NodeId)>,
    order: Vec<NodeId>,
}

impl CutSolver {
    /// Builds the edge-centric DAG for `pipe`.
    pub fn new(pipe: &PipelineDag) -> CutSolver {
        let (ec, halves) = edge_centric(pipe);
        let order = ec.topo_order().expect("pipeline DAGs are acyclic");
        CutSolver { ec, halves, order }
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
        ec.add_edge_unchecked(v_in, v_out, payload);
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
/// avoided as the path count of the most recent cold solve minus the hit's
/// own count (the honest measurement — actual cold vs warm full-frontier
/// totals — is what the `solver` claims of the `claims` bin gate on).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Min-cut solves performed.
    pub solves: u64,
    /// Solves that reused the previous iteration's flow.
    pub warm_start_hits: u64,
    /// Augmenting paths actually searched, warm and cold combined.
    pub augmenting_paths: u64,
    /// Estimated paths avoided by warm starts (see type docs).
    pub augmenting_paths_saved: u64,
}

/// Preallocated workspace for the Phillips–Dessouky iteration: every
/// buffer `get_next_pareto_arena` needs — the compacted
/// [`MinCutProblem`], its solution, the contraction maps, cut
/// scratch — plus the [`WarmStart`] handle that carries the previous
/// iteration's max flow forward. Build one per pipeline characterization
/// and reuse it across all frontier steps; consecutive steps patch
/// capacities into the same buffers instead of reallocating, and (while
/// the critical topology is stable) re-augment instead of re-solving.
#[derive(Debug)]
pub struct SolverArena {
    warm: WarmStart,
    warm_enabled: bool,
    problem: MinCutProblem,
    sol: MinCut,
    caps: Vec<EdgeCap>,
    contractible: Vec<bool>,
    compact: Vec<Option<usize>>,
    edge_meta: Vec<(Option<NodeId>, Option<NodeId>)>,
    cut_scratch: Vec<usize>,
    speed_targets: Vec<NodeId>,
    backup: Vec<(NodeId, f64)>,
    /// Path count of the most recent cold solve (the per-hit savings
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
            caps: Vec::new(),
            contractible: Vec::new(),
            compact: Vec::new(),
            edge_meta: Vec::new(),
            cut_scratch: Vec::new(),
            speed_targets: Vec::new(),
            backup: Vec::new(),
            last_cold_paths: 0,
            stats: ArenaStats::default(),
        }
    }

    /// Enables or disables warm starting. Disabled, every solve rebuilds
    /// the flow network from scratch through the same code path — the cold
    /// baseline the `solver` claims of the `claims` bin compare against.
    /// Outputs are identical either way; only the work differs.
    pub fn set_warm(&mut self, enabled: bool) {
        self.warm_enabled = enabled;
        if !enabled {
            self.warm.invalidate();
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> ArenaStats {
        self.stats
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
/// The compacted problem, solution, and cut buffers live in the arena
/// (capacity patches instead of rebuilds), and when consecutive calls
/// produce the same compacted topology — the common case along a frontier,
/// where only durations drift — the max flow is warm-started from the
/// previous iteration's flow instead of re-derived from zero. `telemetry`
/// counts cut solves and is threaded into the min-cut solver.
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
    // Disjoint borrows of every arena buffer; the construction below fills
    // them in place instead of allocating.
    let SolverArena {
        warm,
        warm_enabled,
        problem,
        sol,
        caps,
        contractible,
        compact,
        edge_meta,
        cut_scratch,
        speed_targets,
        backup,
        last_cold_paths,
        stats,
    } = arena;
    let (ec, halves) = (&solver.ec, &solver.halves);
    let dur = |_: perseus_dag::EdgeId, e: &EcEdge| match e {
        EcEdge::Comp(n) => planned[n.index()],
        EcEdge::Fixed(t) => *t,
        EcEdge::Dep => 0.0,
    };
    let timing = TimingAnalysis::compute_with_order(ec, &solver.order, dur);
    let makespan = timing.makespan;
    // Slack below τ/2 counts as critical: folding near-critical paths into
    // the cut guarantees each iteration advances by at least ~τ/2 (instead
    // of crawling from one microscopic slack event to the next) while
    // keeping every step overshoot-free. The price is a slightly
    // conservative cut — a few more edges constrained than strictly
    // necessary — which costs marginal energy, not correctness.
    let tol = (tau * 0.5).max(makespan * 1e-12);

    let crit: CriticalDag<(), EcEdge> = CriticalDag::extract(ec, &timing, dur, tol);

    // The split edges of the pipeline source/sink are always critical.
    let (source_in, _) = halves[ctx.pipe.source.index()];
    let (_, sink_out) = halves[ctx.pipe.sink.index()];
    let (Some(s), Some(t)) = (
        crit.node_map[source_in.index()],
        crit.node_map[sink_out.index()],
    ) else {
        return CutOutcome::AtMinimumTime;
    };

    // Annotate each critical edge with its Eq. 8 capacity.
    let inf = MinCutProblem::unbounded();
    let tiny = tau * 1e-9;
    let cg = &crit.graph;
    caps.clear();
    caps.extend(cg.edge_refs().map(|r| match r.payload {
        EcEdge::Comp(n) => {
            let info = ctx.info(*n).expect("comp node has plan info");
            let tcur = planned[n.index()];
            let can_speed = tcur > info.t_min + tiny;
            let can_slow = tcur < info.t_max - tiny;
            // Price the capacities over steps CLAMPED to the measured
            // range, normalized back to a per-τ rate so edges stay
            // comparable. Evaluating the exponential below t_min (or
            // above t_max) extrapolates where it was never fitted and
            // can blow capacities up by orders of magnitude, which both
            // misprices the cut and poisons the flow solver's relative
            // epsilon.
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
            // The Eq. 8 lower bounds (the slowdown rewards e⁻) are
            // relaxed to zero: the post-step stretch pass (see
            // `characterize`) reclaims every gap a backward-crossing
            // slowdown would have exploited, because the fitted energy
            // is decreasing on [t_min, t_max] — zero-slack schedules
            // dominate. e⁻ still breaks ties for which chain member to
            // slow when a backward cut edge does appear.
            match (can_speed, can_slow) {
                (true, true) => EdgeCap {
                    cap: e_plus,
                    speed: Some(*n),
                    slow: Some(*n),
                    slow_gain: e_minus,
                },
                // Slowest: cannot slow further, may speed.
                (true, false) => EdgeCap {
                    cap: e_plus,
                    speed: Some(*n),
                    slow: None,
                    slow_gain: 0.0,
                },
                // Fastest: cannot speed, may slow.
                (false, true) => EdgeCap {
                    cap: inf,
                    speed: None,
                    slow: Some(*n),
                    slow_gain: e_minus,
                },
                (false, false) => EdgeCap {
                    cap: inf,
                    speed: None,
                    slow: None,
                    slow_gain: 0.0,
                },
            }
        }
        EcEdge::Fixed(_) | EcEdge::Dep => EdgeCap {
            cap: inf,
            speed: None,
            slow: None,
            slow_gain: 0.0,
        },
    }));

    // Series contraction: a node (other than s/t) with exactly one
    // incoming and one outgoing edge is a pass-through; flow through a
    // chain equals flow through each of its edges, so the chain behaves
    // like one edge with `cap = min(cap_i)` (a forward cut picks the
    // cheapest edge to speed; a backward cut slows the edge with the
    // largest reclaim).
    contractible.clear();
    contractible.extend(
        cg.node_ids()
            .map(|v| v != s && v != t && cg.in_degree(v) == 1 && cg.out_degree(v) == 1),
    );
    compact.clear();
    compact.resize(cg.node_count(), None);
    let mut n_compact = 0usize;
    for v in cg.node_ids() {
        if !contractible[v.index()] {
            compact[v.index()] = Some(n_compact);
            n_compact += 1;
        }
    }
    problem.reset(n_compact);
    // Per contracted edge: (speed target, slow target).
    edge_meta.clear();
    for u in cg.node_ids() {
        if contractible[u.index()] {
            continue;
        }
        for first in cg.out_edges(u) {
            let mut chain = caps[first.id.index()];
            let mut head = first.dst;
            while contractible[head.index()] {
                let next = cg.out_edges(head).next().expect("out-degree 1");
                let c = caps[next.id.index()];
                if c.cap < chain.cap {
                    chain.cap = c.cap;
                    chain.speed = c.speed;
                }
                // A backward cut slows ONE chain member; pick the one with
                // the largest reclaim.
                if c.slow_gain > chain.slow_gain {
                    chain.slow_gain = c.slow_gain;
                    chain.slow = c.slow;
                }
                head = next.dst;
            }
            problem.add_edge(
                compact[u.index()].expect("non-contractible"),
                compact[head.index()].expect("non-contractible"),
                chain.cap,
            );
            edge_meta.push((chain.speed, chain.slow));
        }
    }
    let (s, t) = (
        compact[s.index()].expect("terminal"),
        compact[t.index()].expect("terminal"),
    );

    if !*warm_enabled {
        warm.invalidate();
    }
    stats.solves += 1;
    let solved = {
        let _span = span!(telemetry, "cut_solve");
        problem.solve_warm_into(s, t, warm, sol, telemetry)
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
    let mut sped_up = Vec::new();
    let mut slowed_down = Vec::new();
    for &n in speed_targets.iter() {
        let info = ctx.info(n).expect("comp");
        planned[n.index()] = (planned[n.index()] - delta).max(info.t_min);
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
        slowed_down.push(n);
    }

    // Defensive re-check: the theory says the makespan shrinks by δ; if a
    // numerically marginal slowdown ever lengthened it instead, revert the
    // slowdowns (keeping the speedups, which can only help).
    let mut new_makespan =
        TimingAnalysis::compute_with_order(ec, &solver.order, dur_of(planned)).makespan;
    if new_makespan > makespan - tau * 1e-6 {
        for &(n, t_old) in backup.iter() {
            planned[n.index()] = t_old;
        }
        slowed_down.clear();
        new_makespan =
            TimingAnalysis::compute_with_order(ec, &solver.order, dur_of(planned)).makespan;
    }
    CutOutcome::Reduced {
        new_makespan,
        sped_up,
        slowed_down,
    }
}

/// Duration closure over the current planned durations.
fn dur_of(planned: &[f64]) -> impl FnMut(perseus_dag::EdgeId, &EcEdge) -> f64 + '_ {
    move |_, e: &EcEdge| match e {
        EcEdge::Comp(n) => planned[n.index()],
        EcEdge::Fixed(t) => *t,
        EcEdge::Dep => 0.0,
    }
}
