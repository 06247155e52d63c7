//! Algorithm 1: iteratively discovering the iteration time–energy Pareto
//! frontier, plus the straggler lookup of §3.1.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use perseus_dag::NodeId;
use perseus_gpu::FreqMHz;
use perseus_pipeline::{node_start_times, PipeNode, PipelineDag};
use perseus_telemetry::{span, Telemetry};

use crate::cache::PlanCache;
use crate::context::{CoreError, PlanContext};
use crate::cut::{get_next_pareto_arena, stretch_into_slack, CutOutcome, CutSolver, SolverArena};
use crate::energy::{EnergySums, PipelineEnergy};
use crate::fingerprint::{plan_fingerprint, PlanFingerprint};
use crate::parallel::parallel_map;
use crate::sleep::SleepPlan;

/// A realized energy schedule: planned per-computation durations lowered
/// to concrete GPU frequencies (§4.3's conversion rule: the slowest
/// frequency that runs no slower than planned).
#[derive(Debug, Clone)]
pub struct EnergySchedule {
    /// Planned duration per pipeline DAG node (0 for events).
    pub planned: Vec<f64>,
    /// Assigned SM frequency per node (`None` for events / fixed ops).
    pub freqs: Vec<Option<FreqMHz>>,
    /// Realized duration per node at the assigned frequency.
    pub realized_dur: Vec<f64>,
    /// Realized energy per node at the assigned frequency.
    pub realized_energy: Vec<f64>,
    /// Realized iteration time (makespan with realized durations).
    pub time_s: f64,
    /// Realized computation + fixed-op energy, joules (no blocking).
    pub compute_j: f64,
}

impl EnergySchedule {
    /// Realizes planned durations into frequencies and evaluates the
    /// resulting schedule.
    ///
    /// # Errors
    ///
    /// [`CoreError::MissingProfile`] never occurs if `ctx` built the same
    /// DAG; kept as `Result` for forward compatibility.
    pub fn realize(ctx: &PlanContext<'_>, planned: Vec<f64>) -> Result<EnergySchedule, CoreError> {
        EnergySchedule::realize_with_cap(ctx, planned, None)
    }

    /// Like [`EnergySchedule::realize`], but every assigned frequency is
    /// limited to `cap` when one is given (datacenter power/thermal
    /// capping, §2.3). Computations whose planned duration is
    /// unreachable under the cap run at the fastest capped frequency
    /// instead of panicking — the schedule degrades, it does not die.
    ///
    /// # Errors
    ///
    /// Same as [`EnergySchedule::realize`].
    pub fn realize_with_cap(
        ctx: &PlanContext<'_>,
        planned: Vec<f64>,
        cap: Option<FreqMHz>,
    ) -> Result<EnergySchedule, CoreError> {
        let n = ctx.pipe.dag.node_count();
        let mut freqs = vec![None; n];
        let mut realized_dur = vec![0.0f64; n];
        let mut realized_energy = vec![0.0f64; n];
        for id in ctx.pipe.dag.node_ids() {
            let i = id.index();
            (freqs[i], realized_dur[i], realized_energy[i]) =
                realize_node(ctx, id, planned[i], cap);
        }
        Ok(EnergySchedule::evaluate(
            ctx,
            planned,
            freqs,
            realized_dur,
            realized_energy,
        ))
    }

    /// [`EnergySchedule::realize`] of `planned` given the realization
    /// `prev` of a plan that differs from it in a few nodes: copies
    /// `prev`'s per-node frequencies, durations and energies and
    /// re-realizes only the nodes whose planned duration differs in bits.
    /// Realization is per node, and time and energy are evaluated afresh,
    /// so the result is bit-identical to a full realization.
    fn realize_from(
        ctx: &PlanContext<'_>,
        prev: &EnergySchedule,
        planned: Vec<f64>,
    ) -> EnergySchedule {
        let mut freqs = prev.freqs.clone();
        let mut realized_dur = prev.realized_dur.clone();
        let mut realized_energy = prev.realized_energy.clone();
        for id in ctx.pipe.dag.node_ids() {
            let i = id.index();
            if planned[i].to_bits() != prev.planned[i].to_bits() {
                (freqs[i], realized_dur[i], realized_energy[i]) =
                    realize_node(ctx, id, planned[i], None);
            }
        }
        EnergySchedule::evaluate(ctx, planned, freqs, realized_dur, realized_energy)
    }

    /// Assembles a schedule from its per-node realization: one forward
    /// pass for the iteration time, an index-order sum for the energy.
    fn evaluate(
        ctx: &PlanContext<'_>,
        planned: Vec<f64>,
        freqs: Vec<Option<FreqMHz>>,
        realized_dur: Vec<f64>,
        realized_energy: Vec<f64>,
    ) -> EnergySchedule {
        let (_, time_s) = node_start_times(&ctx.pipe.dag, |id, _| realized_dur[id.index()]);
        let compute_j = realized_energy.iter().sum();
        EnergySchedule {
            planned,
            freqs,
            realized_dur,
            realized_energy,
            time_s,
            compute_j,
        }
    }

    /// Full Eq. 3 energy report for this schedule given straggler time
    /// `t_prime` (`None` = no straggler).
    pub fn energy_report(&self, ctx: &PlanContext<'_>, t_prime: Option<f64>) -> PipelineEnergy {
        self.energy_report_with_sleep(ctx, t_prime, None)
    }

    /// [`EnergySchedule::energy_report`] with an optional sleep plan
    /// overlaid: each sleep window replaces its slice of `P_blocking`
    /// idling with the state's actual draw, shrinking `blocking_j` by the
    /// plan's total savings. With `None` (or an empty plan) the report is
    /// identical to the frequency-only one.
    pub fn energy_report_with_sleep(
        &self,
        ctx: &PlanContext<'_>,
        t_prime: Option<f64>,
        sleep: Option<&SleepPlan>,
    ) -> PipelineEnergy {
        self.energy_sums(ctx, sleep).at(t_prime)
    }

    /// The `T'`-independent half of
    /// [`EnergySchedule::energy_report_with_sleep`]: one walk of this
    /// schedule, after which [`EnergySums::at`] prices it at any
    /// straggler time.
    pub fn energy_sums(&self, ctx: &PlanContext<'_>, sleep: Option<&SleepPlan>) -> EnergySums {
        EnergySums::new(
            &ctx.pipe,
            |id, _| self.realized_dur[id.index()],
            |id, _| self.realized_energy[id.index()],
            ctx.gpu.blocking_w,
        )
        .with_sleep(sleep)
    }

    /// The frequency assigned to `node`, if it is a computation.
    pub fn freq_of(&self, node: NodeId) -> Option<FreqMHz> {
        self.freqs[node.index()]
    }
}

/// Lowers one node's planned duration to (frequency, realized duration,
/// realized energy), with frequencies limited to `cap` when one is given.
fn realize_node(
    ctx: &PlanContext<'_>,
    id: NodeId,
    planned: f64,
    cap: Option<FreqMHz>,
) -> (Option<FreqMHz>, f64, f64) {
    match ctx.pipe.dag.node(id) {
        PipeNode::Comp(_) => {
            let info = ctx.info(id).expect("comp node has plan info");
            let profile = ctx.profile_of(id).expect("comp node has profile");
            let deadline = planned.clamp(info.t_min, info.t_max);
            let entry = match cap {
                Some(cap) => profile
                    .best_under_cap(deadline, cap)
                    .unwrap_or_else(|| profile.slowest_entry()),
                None => profile
                    .slowest_within(deadline)
                    .expect("clamped deadline is always satisfiable"),
            };
            (Some(entry.freq), entry.time_s, entry.energy_j)
        }
        PipeNode::Fixed {
            time_s, power_w, ..
        } => (None, *time_s, time_s * power_w),
        _ => (None, 0.0, 0.0),
    }
}

/// One point on the frontier.
#[derive(Debug, Clone)]
pub struct FrontierPoint {
    /// Planned iteration time (continuous relaxation), seconds.
    pub planned_time_s: f64,
    /// Planned computation energy `Σ e_i(t_i)` from the fitted curves,
    /// joules (blocking energy is T′-dependent and reported separately via
    /// [`EnergySchedule::energy_report`]).
    pub planned_energy_j: f64,
    /// The realized schedule (frequencies, realized time and energy).
    pub schedule: EnergySchedule,
}

/// The iteration time–energy Pareto frontier of one pipeline.
///
/// Points ascend in planned time from `T_min` (all computations at max
/// frequency — after intrinsic-bloat removal) to `T*` (the minimum-energy
/// iteration time). Slowing past `T*` would *increase* energy, so lookups
/// clamp to it (Eq. 2: `T_opt = min(T*, T')`).
#[derive(Debug, Clone)]
pub struct ParetoFrontier {
    points: Vec<FrontierPoint>,
}

impl ParetoFrontier {
    /// Builds a frontier from points already ascending in planned time.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or not strictly ascending in
    /// `planned_time_s` — the invariants every lookup relies on.
    pub fn from_points(points: Vec<FrontierPoint>) -> ParetoFrontier {
        assert!(!points.is_empty(), "frontier must have at least one point");
        assert!(
            points
                .windows(2)
                .all(|w| w[0].planned_time_s < w[1].planned_time_s),
            "frontier points must ascend strictly in planned time"
        );
        ParetoFrontier { points }
    }

    /// All frontier points, ascending in planned iteration time.
    pub fn points(&self) -> &[FrontierPoint] {
        &self.points
    }

    /// Number of points on the frontier.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the frontier is empty (never true for a characterized one).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Shortest iteration time on the frontier.
    pub fn t_min(&self) -> f64 {
        self.points
            .first()
            .expect("frontier is non-empty")
            .planned_time_s
    }

    /// Minimum-energy iteration time `T*`.
    pub fn t_star(&self) -> f64 {
        self.points
            .last()
            .expect("frontier is non-empty")
            .planned_time_s
    }

    /// The fastest schedule (used when there is no straggler — removes
    /// intrinsic bloat at unchanged iteration time).
    pub fn fastest(&self) -> &FrontierPoint {
        self.points.first().expect("frontier is non-empty")
    }

    /// The minimum-energy schedule (`T*` point).
    pub fn most_efficient(&self) -> &FrontierPoint {
        self.points.last().expect("frontier is non-empty")
    }

    /// §3.1 straggler reaction: the Pareto-optimal schedule for straggler
    /// iteration time `t_prime`, i.e. the slowest schedule not exceeding
    /// `T_opt = min(T*, T')`.
    pub fn lookup(&self, t_prime: f64) -> &FrontierPoint {
        &self.points[self.lookup_index(t_prime)]
    }

    /// Index of the point [`ParetoFrontier::lookup`] returns: binary search
    /// (O(log n)) for the last point with `planned_time_s <= T_opt`.
    pub fn lookup_index(&self, t_prime: f64) -> usize {
        let t_opt = t_prime.min(self.t_star());
        // Points ascend in time; `partition_point` finds the first point
        // beyond the bound, so the one before it is the slowest schedule
        // not exceeding `T_opt` (index 0 when even the fastest exceeds it).
        self.points
            .partition_point(|p| p.planned_time_s <= t_opt + 1e-12)
            .saturating_sub(1)
    }

    /// Re-clamps the frontier to a GPU frequency cap (§2.3 datacenter
    /// power/thermal capping): every point is re-realized with its
    /// frequencies limited to `cap`, then points that collapsed onto a
    /// slower-or-costlier neighbour are dropped so the result is again a
    /// valid frontier (strictly ascending times, strictly descending
    /// energies). A cap makes points *invalid*, never the frontier —
    /// lookups keep working against the clamped curve instead of
    /// deploying frequencies the silicon will silently throttle.
    ///
    /// Clamping is monotone: re-clamping to the same or a higher cap is a
    /// no-op, since no assigned frequency exceeds the earlier cap.
    ///
    /// # Errors
    ///
    /// Propagates realization failures from the profile database.
    pub fn clamp_to_freq_cap(
        &self,
        ctx: &PlanContext<'_>,
        cap: FreqMHz,
    ) -> Result<ParetoFrontier, CoreError> {
        let mut points: Vec<FrontierPoint> = Vec::with_capacity(self.points.len());
        let mut best_energy = f64::INFINITY;
        for p in &self.points {
            let schedule =
                EnergySchedule::realize_with_cap(ctx, p.schedule.planned.clone(), Some(cap))?;
            // The capped realization can only be slower than the plan
            // asked for; keep planned time consistent with what actually
            // runs so lookups stay truthful.
            let planned_time_s = p.planned_time_s.max(schedule.time_s);
            let planned_energy_j = schedule.compute_j;
            let ascends = match points.last() {
                Some(prev) => planned_time_s > prev.planned_time_s + 1e-12,
                None => true,
            };
            if ascends && planned_energy_j < best_energy {
                best_energy = planned_energy_j;
                points.push(FrontierPoint {
                    planned_time_s,
                    planned_energy_j,
                    schedule,
                });
            }
        }
        // The first point always survives the filter, so a non-empty
        // frontier re-clamps to a non-empty frontier — worst case a cap
        // below the whole frequency range collapses it to one point.
        Ok(ParetoFrontier { points })
    }
}

/// Tuning knobs for [`characterize`].
#[derive(Debug, Clone)]
pub struct FrontierOptions {
    /// Unit time `τ` by which each step shortens the iteration (§4.2; the
    /// paper uses 1 ms). `None` derives τ from the workload: 5% of the
    /// median per-computation time range (`t_max − t_min`), clamped to
    /// `[0.2 ms, 20 ms]`. τ must sit well below per-computation slack —
    /// not the iteration span — or the sweep overshoots the slack of
    /// non-critical paths and leaves savings on the table.
    pub tau_s: Option<f64>,
    /// Hard cap on cut iterations (safety net; Appendix E shows O(N+M)
    /// iterations suffice for pipeline DAGs).
    pub max_iters: usize,
    /// Run the stretch-into-slack pass after each cut (default true).
    /// Disabling it reverts to pure fixed-step cuts — exposed for the
    /// ablation study, not for production use (coarse steps then leak
    /// overshoot energy).
    pub stretch: bool,
    /// Warm-start consecutive Phillips–Dessouky max-flow solves from the
    /// previous iteration's flow (default true). The frontier produced is
    /// bit-identical either way — the solver extracts the minimal
    /// source-side min cut, which is unique across all maximum flows —
    /// so disabling this only buys back the cold solve cost; it exists
    /// for the cold baseline of the `solver` claims (`claims` bin) and for
    /// differential testing.
    pub warm_start: bool,
}

impl Default for FrontierOptions {
    fn default() -> Self {
        FrontierOptions {
            tau_s: None,
            max_iters: 100_000,
            stretch: true,
            warm_start: true,
        }
    }
}

/// Workload-derived default unit time: 5% of the median per-computation
/// time range.
fn default_tau(ctx: &PlanContext<'_>) -> f64 {
    let mut spans: Vec<f64> = ctx
        .plan_info
        .iter()
        .flatten()
        .map(|i| i.t_max - i.t_min)
        .filter(|s| *s > 0.0)
        .collect();
    if spans.is_empty() {
        return 1e-3;
    }
    spans.sort_by(f64::total_cmp);
    (spans[spans.len() / 2] * 0.05).clamp(0.2e-3, 20e-3)
}

/// The reusable characterization engine for one pipeline.
///
/// Building the edge-centric DAG and its topological order (inside
/// [`CutSolver`]) costs O(N + M) per pipeline and never changes while the
/// pipeline structure is fixed — only profiles (and hence fits) do. The
/// server re-characterizes a job every time fresh profiles arrive or
/// options change; holding a `FrontierSolver` per job makes those reruns
/// reuse the graph artifacts instead of rebuilding them.
///
/// The artifacts are built by the first [`FrontierSolver::characterize`],
/// not by the constructor: a job whose every plan is a plan-cache hit
/// ([`FrontierSolver::characterize_cached`]) never solves, so it never
/// pays for them nor keeps them.
///
/// The solver is `Send + Sync` (the counters are atomic, the artifacts
/// behind a [`OnceLock`]), so one instance can serve characterizations
/// scheduled from any worker thread; concurrent first solves build the
/// artifacts once.
#[derive(Debug)]
pub struct FrontierSolver {
    /// Built by the first characterization.
    cut: OnceLock<CutSolver>,
    node_count: usize,
    /// Characterizations run through this solver.
    runs: AtomicUsize,
    /// Warm-started min-cut solves across all characterizations.
    warm_start_hits: AtomicU64,
    /// Changed-topology min-cut solves seeded with the previous flow.
    seeded_solves: AtomicU64,
    /// Augmenting paths searched across all characterizations.
    augmenting_paths: AtomicU64,
    /// Estimated paths avoided by warm starts (see
    /// [`crate::cut::ArenaStats`]).
    augmenting_paths_saved: AtomicU64,
    /// Fleet plan-cache hits observed by [`FrontierSolver::characterize_cached`].
    cache_hits: AtomicU64,
    /// Fleet plan-cache misses (each one ran the full solver).
    cache_misses: AtomicU64,
    /// Plans this solver inserted into a fleet cache.
    cache_inserts: AtomicU64,
    telemetry: Telemetry,
}

/// Reuse statistics of one [`FrontierSolver`] — the named replacement for
/// the old anonymous `(runs, artifact_reuses)` tuple, extended with the
/// warm-start counters of the incremental max-flow path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolverStats {
    /// Characterizations run through the solver.
    pub runs: usize,
    /// Characterizations that reused the cached graph artifacts (every run
    /// after the first).
    pub artifact_reuses: usize,
    /// Phillips–Dessouky solves that reused the previous iteration's flow.
    pub warm_start_hits: u64,
    /// Solves of a changed critical topology rebuilt carrying the previous
    /// iteration's flow.
    pub seeded_solves: u64,
    /// Augmenting paths actually searched across all solves.
    pub augmenting_paths: u64,
    /// Estimated augmenting-path searches avoided by warm starts.
    pub augmenting_paths_saved: u64,
    /// Characterizations answered from the fleet plan cache — the solver
    /// never ran (not counted in `runs`).
    pub cache_hits: u64,
    /// Cached characterizations that missed and ran the solver.
    pub cache_misses: u64,
    /// Frontiers this solver published into the fleet plan cache.
    pub cache_inserts: u64,
}

impl FrontierSolver {
    /// A solver for `pipe`, with telemetry disabled. Only the node count
    /// is recorded here; the reusable artifacts (edge-centric DAG,
    /// topological order) are built by the first characterization.
    pub fn new(pipe: &PipelineDag) -> FrontierSolver {
        FrontierSolver::with_telemetry(pipe, Telemetry::disabled())
    }

    /// [`FrontierSolver::new`] emitting through `telemetry`: every
    /// characterization records solver runs, artifact reuses,
    /// Phillips–Dessouky iterations, and cut (re-)solves, and threads the
    /// handle down into the max-flow substrate.
    pub fn with_telemetry(pipe: &PipelineDag, telemetry: Telemetry) -> FrontierSolver {
        FrontierSolver {
            cut: OnceLock::new(),
            node_count: pipe.dag.node_count(),
            runs: AtomicUsize::new(0),
            warm_start_hits: AtomicU64::new(0),
            seeded_solves: AtomicU64::new(0),
            augmenting_paths: AtomicU64::new(0),
            augmenting_paths_saved: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            cache_inserts: AtomicU64::new(0),
            telemetry,
        }
    }

    /// Total characterizations run through this solver.
    pub fn runs(&self) -> usize {
        self.runs.load(Ordering::Relaxed)
    }

    /// Characterizations that reused the cached artifacts (every run after
    /// the first).
    pub fn artifact_reuses(&self) -> usize {
        self.runs().saturating_sub(1)
    }

    /// The artifacts, once a characterization has built them.
    #[cfg(test)]
    pub(crate) fn built_cut(&self) -> Option<&CutSolver> {
        self.cut.get()
    }

    /// Both reuse counters as a named struct, plus the accumulated
    /// warm-start counters.
    pub fn stats(&self) -> SolverStats {
        let runs = self.runs();
        SolverStats {
            runs,
            artifact_reuses: runs.saturating_sub(1),
            warm_start_hits: self.warm_start_hits.load(Ordering::Relaxed),
            seeded_solves: self.seeded_solves.load(Ordering::Relaxed),
            augmenting_paths: self.augmenting_paths.load(Ordering::Relaxed),
            augmenting_paths_saved: self.augmenting_paths_saved.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_inserts: self.cache_inserts.load(Ordering::Relaxed),
        }
    }

    /// Algorithm 1 against the cached artifacts: characterizes the full
    /// Pareto frontier of `ctx`'s pipeline. The first call builds the
    /// artifacts from `ctx`'s pipeline.
    ///
    /// `ctx` must describe the same pipeline this solver was built for
    /// (same DAG structure); its profiles/fits may differ between calls.
    ///
    /// # Errors
    ///
    /// Propagates profile/fit errors from realization; returns
    /// [`CoreError::EmptyFrontier`] only if the pipeline has no
    /// computations.
    ///
    /// # Panics
    ///
    /// If the pipeline DAG has a cycle (see [`CutSolver::new`]). Debug
    /// builds also assert the context's DAG matches the solver's.
    pub fn characterize(
        &self,
        ctx: &PlanContext<'_>,
        opts: &FrontierOptions,
    ) -> Result<ParetoFrontier, CoreError> {
        debug_assert_eq!(
            ctx.pipe.dag.node_count(),
            self.node_count,
            "FrontierSolver reused across different pipelines"
        );
        let tel = &self.telemetry;
        let prior_runs = self.runs.fetch_add(1, Ordering::Relaxed);
        if tel.is_enabled() {
            tel.counter("perseus_solver_runs_total").inc();
            if prior_runs > 0 {
                tel.counter("perseus_solver_artifact_reuses_total").inc();
            }
        }
        if ctx.pipe.computation_count() == 0 {
            return Err(CoreError::EmptyFrontier);
        }
        // The solve, one nested span per phase: per step `timing`,
        // `contract`, `cut_solve` and `apply` (see `get_next_pareto_arena`)
        // and `stretch`, then `realize` once.
        let _frontier = span!(tel, "frontier");
        let cut = self.cut.get_or_init(|| CutSolver::new(&ctx.pipe));
        let fastest = ctx.fastest_durations();
        let (_, t_floor) = node_start_times(&ctx.pipe.dag, |id, _| fastest[id.index()]);
        let mut planned = ctx.min_energy_durations();
        let (_, t_star) = node_start_times(&ctx.pipe.dag, |id, _| planned[id.index()]);
        // Default τ balances per-computation resolution against the number
        // of sweep iterations for very long pipelines (the stretch pass
        // makes coarse steps safe).
        let tau = opts
            .tau_s
            .unwrap_or_else(|| default_tau(ctx).max((t_star - t_floor) / 512.0))
            .max(1e-6);

        let mut raw_points: Vec<(f64, Vec<f64>)> = vec![(t_star, planned.clone())];
        let mut makespan = t_star;
        // Sweep all the way to the floor: the early-stop margin must stay
        // well below any slowdown a user could measure, even for short
        // iterations.
        let floor_margin = (tau * 0.5).min(t_floor * 5e-4);
        let mut pd_iterations = 0u64;
        // One arena for the whole sweep: the timing buffers, the compacted
        // problem and the previous iteration's max flow persist across
        // steps, so iterations refill buffers and re-augment (or start
        // from the carried flow) instead of rebuilding.
        let mut arena = SolverArena::new();
        arena.set_warm(opts.warm_start);
        for _ in 0..opts.max_iters {
            if makespan <= t_floor + floor_margin {
                break;
            }
            pd_iterations += 1;
            match get_next_pareto_arena(ctx, cut, &mut planned, tau, &mut arena, tel) {
                CutOutcome::Reduced { new_makespan, .. } => {
                    // Steps may legitimately shrink below τ when a cut edge
                    // has little headroom left; only a truly stalled step
                    // ends the sweep.
                    if new_makespan >= makespan - tau * 1e-7 {
                        break;
                    }
                    makespan = new_makespan;
                    if opts.stretch {
                        let _span = span!(tel, "stretch");
                        stretch_into_slack(ctx, cut, &arena, &mut planned);
                    }
                    raw_points.push((new_makespan, planned.clone()));
                }
                CutOutcome::AtMinimumTime => break,
            }
        }
        let arena_stats = arena.stats();
        self.warm_start_hits
            .fetch_add(arena_stats.warm_start_hits, Ordering::Relaxed);
        self.seeded_solves
            .fetch_add(arena_stats.seeded_solves, Ordering::Relaxed);
        self.augmenting_paths
            .fetch_add(arena_stats.augmenting_paths, Ordering::Relaxed);
        self.augmenting_paths_saved
            .fetch_add(arena_stats.augmenting_paths_saved, Ordering::Relaxed);

        // Ascending time; drop any non-Pareto stragglers produced by
        // clamping. Consecutive points differ in a few durations, so each
        // point's fitted energies and realization start from the previous
        // one's and redo only the nodes whose planned duration changed.
        let _realize = span!(tel, "realize");
        raw_points.reverse();
        let mut points: Vec<FrontierPoint> = Vec::with_capacity(raw_points.len());
        let mut best_energy = f64::INFINITY;
        let mut node_energy = vec![0.0f64; ctx.pipe.dag.node_count()];
        let mut last: Vec<f64> = Vec::new();
        for (time, durations) in raw_points {
            let mut planned_energy = 0.0;
            for id in ctx.pipe.dag.node_ids() {
                let Some(info) = ctx.info(id) else { continue };
                let (i, t) = (id.index(), durations[id.index()]);
                if last.get(i).map_or(true, |l| l.to_bits() != t.to_bits()) {
                    node_energy[i] = info.fit.energy(t);
                }
                planned_energy += node_energy[i];
            }
            last.clone_from(&durations);
            if planned_energy < best_energy {
                best_energy = planned_energy;
                let schedule = match points.last() {
                    Some(prev) => EnergySchedule::realize_from(ctx, &prev.schedule, durations),
                    None => EnergySchedule::realize(ctx, durations)?,
                };
                points.push(FrontierPoint {
                    planned_time_s: time,
                    planned_energy_j: planned_energy,
                    schedule,
                });
            }
        }
        if points.is_empty() {
            return Err(CoreError::EmptyFrontier);
        }
        if tel.is_enabled() {
            tel.counter("perseus_pd_iterations_total")
                .add(pd_iterations);
            tel.counter("perseus_frontier_points_total")
                .add(points.len() as u64);
        }
        Ok(ParetoFrontier { points })
    }

    /// [`FrontierSolver::characterize`] behind the fleet-wide plan cache:
    /// fingerprints the problem (policy `"perseus"`), and on a hit returns
    /// the cache entry's **shared** frontier — no solve, no profile fits,
    /// no copy. `runs` does not advance, no Phillips–Dessouky iteration
    /// happens, and not even the [`PlanContext`] is built: the fit
    /// regression only pays off when the solver actually runs, so it is
    /// deferred to the miss path. On a miss the context is built, the
    /// full characterization runs, and its frontier is published into the
    /// cache (first insert wins) for every other job — on any shard,
    /// under any tenant — that shares the structure.
    ///
    /// Returns the shared frontier, the context a miss built (`None` on a
    /// hit, which builds none; a caller that plans more from the same
    /// profiles reuses it instead of fitting them again), and the
    /// fingerprint (so callers can invalidate the entry if the job's
    /// structure later drifts). The returned frontier is bit-identical
    /// either way: planning is deterministic in the fingerprinted inputs,
    /// which the differential tests and the `fleet` claims of the `claims`
    /// bin pin. A fleet of a thousand jobs drawn from twenty structures
    /// holds twenty frontier allocations, not a thousand.
    ///
    /// The key holds only what the frontier depends on. A Kareus job and
    /// a Perseus job of one structure therefore share one solve and one
    /// entry: the cache holds frontiers, not deployments, and each job
    /// derives its sleep plans (if any) from the shared frontier itself.
    ///
    /// # Errors
    ///
    /// As [`FrontierSolver::characterize`]; a hit cannot fail.
    pub fn characterize_cached<'p>(
        &self,
        pipe: &'p PipelineDag,
        gpu: &perseus_gpu::GpuSpec,
        profiles: &perseus_profiler::ProfileDb<perseus_pipeline::OpKey>,
        opts: &FrontierOptions,
        cache: &PlanCache,
    ) -> Result<
        (
            Arc<ParetoFrontier>,
            Option<PlanContext<'p>>,
            PlanFingerprint,
        ),
        CoreError,
    > {
        let fp = plan_fingerprint("perseus", pipe, gpu, profiles, opts);
        if let Some(frontier) = cache.get(fp) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            if self.telemetry.is_enabled() {
                self.telemetry
                    .counter("perseus_solver_cache_hits_total")
                    .inc();
            }
            return Ok((frontier, None, fp));
        }
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
        if self.telemetry.is_enabled() {
            self.telemetry
                .counter("perseus_solver_cache_misses_total")
                .inc();
        }
        let ctx = PlanContext::new(pipe, gpu, profiles.clone())?;
        let frontier = cache.insert(fp, Arc::new(self.characterize(&ctx, opts)?));
        self.cache_inserts.fetch_add(1, Ordering::Relaxed);
        Ok((frontier, Some(ctx), fp))
    }

    /// Characterizes many independent pipelines in parallel on a scoped
    /// worker pool (one OS thread per available core, capped by the job
    /// count). Each entry pairs a solver with the context and options to
    /// run it against; results come back in input order, and every result
    /// is bit-identical to the corresponding sequential
    /// [`FrontierSolver::characterize`] call — the jobs share no mutable
    /// state (each sweep owns its [`SolverArena`]).
    pub fn characterize_all(
        jobs: &[(&FrontierSolver, &PlanContext<'_>, &FrontierOptions)],
    ) -> Vec<Result<ParetoFrontier, CoreError>> {
        parallel_map(jobs, |&(solver, ctx, opts)| solver.characterize(ctx, opts))
    }
}

/// Algorithm 1: characterizes the full Pareto frontier of `ctx`'s pipeline.
///
/// One-shot convenience over [`FrontierSolver`]: builds the reusable
/// artifacts, runs one characterization, and drops them. Callers that
/// re-characterize the same pipeline (the server, sweeps over options)
/// should hold a [`FrontierSolver`] instead.
///
/// # Errors
///
/// Propagates profile/fit errors from realization; returns
/// [`CoreError::EmptyFrontier`] only if the pipeline has no computations.
pub fn characterize(
    ctx: &PlanContext<'_>,
    opts: &FrontierOptions,
) -> Result<ParetoFrontier, CoreError> {
    FrontierSolver::new(&ctx.pipe).characterize(ctx, opts)
}
