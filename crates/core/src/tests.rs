use perseus_gpu::{GpuSpec, Workload};
use perseus_models::StageWorkloads;
use perseus_pipeline::{node_start_times, PipelineBuilder, PipelineDag, ScheduleKind};

use crate::context::PlanContext;
use crate::cut::{get_next_pareto, CutOutcome};
use crate::frontier::{
    characterize, EnergySchedule, FrontierOptions, FrontierSolver, ParetoFrontier,
};
use crate::ledger::{attribute_schedule, BloatLedger, EnergyKind};

/// Bitwise frontier comparison: every f64 compared via `to_bits`, every
/// frequency assignment exactly.
fn assert_frontiers_bit_identical(a: &ParetoFrontier, b: &ParetoFrontier) {
    assert_eq!(a.points().len(), b.points().len(), "point counts differ");
    for (x, y) in a.points().iter().zip(b.points()) {
        assert_eq!(x.planned_time_s.to_bits(), y.planned_time_s.to_bits());
        assert_eq!(x.planned_energy_j.to_bits(), y.planned_energy_j.to_bits());
        assert_eq!(x.schedule.freqs, y.schedule.freqs);
        assert_eq!(x.schedule.time_s.to_bits(), y.schedule.time_s.to_bits());
        assert_eq!(
            x.schedule.compute_j.to_bits(),
            y.schedule.compute_j.to_bits()
        );
        for (p, q) in x.schedule.planned.iter().zip(&y.schedule.planned) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
        for (p, q) in x.schedule.realized_dur.iter().zip(&y.schedule.realized_dur) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
        for (p, q) in x
            .schedule
            .realized_energy
            .iter()
            .zip(&y.schedule.realized_energy)
        {
            assert_eq!(p.to_bits(), q.to_bits());
        }
    }
}

#[test]
fn warm_started_characterize_is_bit_identical_to_cold() {
    let gpu = GpuSpec::a100_pcie();
    let pipe = build_pipe(4, 6);
    let stages = stages_with_scales(&[1.0, 1.1, 0.95, 1.2]);
    let ctx = PlanContext::from_model_profiles(&pipe, &gpu, &stages).unwrap();
    // The second sweep's coarse τ without the stretch pass changes the
    // critical topology often, so its warm run also seeds rebuilds.
    for (tau_s, stretch) in [(2e-3, true), (10e-3, false)] {
        let mut opts = FrontierOptions {
            tau_s: Some(tau_s),
            stretch,
            ..FrontierOptions::default()
        };
        let warm_solver = FrontierSolver::new(&pipe);
        let warm = warm_solver.characterize(&ctx, &opts).unwrap();
        opts.warm_start = false;
        let cold_solver = FrontierSolver::new(&pipe);
        let cold = cold_solver.characterize(&ctx, &opts).unwrap();

        assert_frontiers_bit_identical(&warm, &cold);
        let ws = warm_solver.stats();
        let cs = cold_solver.stats();
        assert!(ws.warm_start_hits > 0, "warm sweep never warm-started");
        assert!(ws.seeded_solves > 0, "warm sweep never seeded a rebuild");
        assert_eq!(cs.warm_start_hits, 0, "cold sweep must not warm-start");
        assert_eq!(cs.seeded_solves, 0, "cold sweep must not seed");
        assert!(
            ws.augmenting_paths < cs.augmenting_paths,
            "warm starting did not reduce augmenting-path searches: {} vs {}",
            ws.augmenting_paths,
            cs.augmenting_paths
        );
    }
}

/// A traced characterization splits its wall time into one span per
/// solver phase: the per-step spans run once per Phillips–Dessouky
/// iteration, the final realization once.
#[test]
fn characterize_spans_every_solver_phase() {
    let gpu = GpuSpec::a100_pcie();
    let pipe = build_pipe(4, 6);
    let stages = stages_with_scales(&[1.0, 1.1, 0.95, 1.2]);
    let ctx = PlanContext::from_model_profiles(&pipe, &gpu, &stages).unwrap();
    let tel = perseus_telemetry::Telemetry::enabled();
    let opts = FrontierOptions {
        tau_s: Some(2e-3),
        ..FrontierOptions::default()
    };
    FrontierSolver::with_telemetry(&pipe, tel.clone())
        .characterize(&ctx, &opts)
        .unwrap();
    let snap = tel.snapshot();
    let calls = |path: &str| snap.value_of("perseus_span_calls_total", &[("span", path)]);
    let iterations = snap.value_of("perseus_pd_iterations_total", &[]).unwrap();
    assert!(iterations > 1.0);
    for phase in ["timing", "contract", "cut_solve", "apply", "stretch"] {
        assert_eq!(
            calls(&format!("frontier/{phase}")),
            Some(iterations),
            "{phase}"
        );
    }
    assert_eq!(calls("frontier/realize"), Some(1.0));
    assert_eq!(calls("frontier"), Some(1.0));
}

/// FNV-1a over a 128-bit state, one byte per round: the hash the
/// [`frontier_bits_are_pinned`] constants were taken with. Production
/// code hashes with [`crate::content_hash`].
fn fnv1a_128_bytewise(bytes: &[u8]) -> u128 {
    use crate::fingerprint::{FNV128_OFFSET, FNV128_PRIME};
    bytes.iter().fold(FNV128_OFFSET, |h, &b| {
        (h ^ u128::from(b)).wrapping_mul(FNV128_PRIME)
    })
}

/// FNV-1a over every bit of every frontier point: planned time and
/// energy, and the schedule's planned durations, frequencies, realized
/// durations and energies, time and compute energy.
fn frontier_bits_hash(frontier: &ParetoFrontier) -> u128 {
    let mut bytes = Vec::new();
    let mut put = |bits: u64| bytes.extend_from_slice(&bits.to_le_bytes());
    for p in frontier.points() {
        put(p.planned_time_s.to_bits());
        put(p.planned_energy_j.to_bits());
        let s = &p.schedule;
        s.planned.iter().for_each(|x| put(x.to_bits()));
        s.freqs
            .iter()
            .for_each(|f| put(f.map_or(u64::MAX, |f| u64::from(f.0))));
        s.realized_dur.iter().for_each(|x| put(x.to_bits()));
        s.realized_energy.iter().for_each(|x| put(x.to_bits()));
        put(s.time_s.to_bits());
        put(s.compute_j.to_bits());
    }
    fnv1a_128_bytewise(&bytes)
}

/// The [`frontier_bits_hash`] of the frontier of an `n`-stage,
/// `m`-microbatch 1F1B pipeline with per-stage work `scales`.
fn pinned_frontier_hash(
    n: usize,
    m: usize,
    scales: &[f64],
    tau_s: Option<f64>,
    stretch: bool,
) -> u128 {
    let gpu = GpuSpec::a100_pcie();
    let pipe = build_pipe(n, m);
    let ctx = PlanContext::from_model_profiles(&pipe, &gpu, &stages_with_scales(scales)).unwrap();
    let opts = FrontierOptions {
        tau_s,
        stretch,
        ..FrontierOptions::default()
    };
    frontier_bits_hash(&characterize(&ctx, &opts).unwrap())
}

/// Pins the frontier bit for bit on three small shapes, one of them a
/// coarse-τ sweep without the stretch pass, whose critical topology
/// changes often. The 4-decimal goldens cannot see a 1-ulp drift in a
/// solver rewrite; these hashes can.
#[test]
fn frontier_bits_are_pinned() {
    assert_eq!(
        pinned_frontier_hash(4, 6, &[1.0, 1.1, 0.95, 1.2], Some(2e-3), true),
        0xf3ef_9d90_f706_f888_5a94_f76b_51a5_8869
    );
    assert_eq!(
        pinned_frontier_hash(3, 8, &[1.2, 1.0, 0.8], None, true),
        0x0dfb_f5f3_bddb_12df_b986_9298_384b_80dd
    );
    assert_eq!(
        pinned_frontier_hash(4, 8, &[1.0, 1.3, 0.9, 1.15], Some(10e-3), false),
        0xd281_f7da_4dd6_84ad_8928_0b13_7468_d6ed
    );
}

#[test]
fn parallel_characterize_all_matches_sequential() {
    let gpu = GpuSpec::a100_pcie();
    let shapes: [(usize, usize, &[f64]); 4] = [
        (2, 4, &[1.0, 1.2]),
        (3, 5, &[0.9, 1.0, 1.3]),
        (4, 6, &[1.0, 1.1, 0.95, 1.2]),
        (3, 8, &[1.2, 1.0, 0.8]),
    ];
    let pipes: Vec<PipelineDag> = shapes.iter().map(|&(n, m, _)| build_pipe(n, m)).collect();
    let stage_sets: Vec<Vec<StageWorkloads>> = shapes
        .iter()
        .map(|&(_, _, scales)| stages_with_scales(scales))
        .collect();
    let ctxs: Vec<PlanContext<'_>> = pipes
        .iter()
        .zip(&stage_sets)
        .map(|(pipe, stages)| PlanContext::from_model_profiles(pipe, &gpu, stages).unwrap())
        .collect();
    let solvers: Vec<FrontierSolver> = pipes.iter().map(FrontierSolver::new).collect();
    let opts = FrontierOptions {
        tau_s: Some(2e-3),
        ..FrontierOptions::default()
    };
    let jobs: Vec<(&FrontierSolver, &PlanContext<'_>, &FrontierOptions)> = solvers
        .iter()
        .zip(&ctxs)
        .map(|(solver, ctx)| (solver, ctx, &opts))
        .collect();
    let parallel = FrontierSolver::characterize_all(&jobs);
    assert_eq!(parallel.len(), jobs.len());
    for ((_, ctx, opts), result) in jobs.iter().zip(&parallel) {
        // Fresh solver per sequential run so reuse counters stay honest.
        let sequential = FrontierSolver::new(&ctx.pipe)
            .characterize(ctx, opts)
            .unwrap();
        assert_frontiers_bit_identical(result.as_ref().unwrap(), &sequential);
    }
}

/// Stage workloads with a configurable per-stage scale, mimicking stage
/// imbalance. `scales[s]` multiplies stage `s`'s work.
fn stages_with_scales(scales: &[f64]) -> Vec<StageWorkloads> {
    scales
        .iter()
        .map(|&k| StageWorkloads {
            fwd: Workload::new(40.0 * k, 0.004 * k, 0.85),
            bwd: Workload::new(80.0 * k, 0.008 * k, 0.92),
        })
        .collect()
}

fn build_pipe(n: usize, m: usize) -> PipelineDag {
    PipelineBuilder::new(ScheduleKind::OneFOneB, n, m)
        .build()
        .unwrap()
}

fn frontier_for(
    gpu: &GpuSpec,
    pipe: &PipelineDag,
    scales: &[f64],
    tau: Option<f64>,
) -> ParetoFrontier {
    let stages = stages_with_scales(scales);
    let ctx = PlanContext::from_model_profiles(pipe, gpu, &stages).unwrap();
    characterize(
        &ctx,
        &FrontierOptions {
            tau_s: tau,
            max_iters: 100_000,
            stretch: true,
            warm_start: true,
        },
    )
    .unwrap()
}

#[test]
fn frontier_is_monotone_tradeoff() {
    let gpu = GpuSpec::a100_pcie();
    let pipe = build_pipe(4, 6);
    let frontier = frontier_for(&gpu, &pipe, &[1.0, 1.1, 0.95, 1.2], None);
    assert!(
        frontier.points().len() > 10,
        "frontier too sparse: {}",
        frontier.points().len()
    );
    for pair in frontier.points().windows(2) {
        assert!(pair[0].planned_time_s < pair[1].planned_time_s);
        assert!(pair[0].planned_energy_j > pair[1].planned_energy_j);
    }
    assert!(frontier.t_min() < frontier.t_star());
}

#[test]
fn fastest_point_matches_max_frequency_iteration_time() {
    // Intrinsic bloat removal must not slow the pipeline: the leftmost
    // frontier point runs at (essentially) the all-max-frequency time.
    let gpu = GpuSpec::a100_pcie();
    let pipe = build_pipe(4, 6);
    let stages = stages_with_scales(&[1.0, 1.1, 0.95, 1.2]);
    let ctx = PlanContext::from_model_profiles(&pipe, &gpu, &stages).unwrap();
    let frontier = characterize(&ctx, &FrontierOptions::default()).unwrap();
    let fastest = ctx.fastest_durations();
    let (_, t_floor) = node_start_times(&pipe.dag, |id, _| fastest[id.index()]);
    let slowdown = frontier.t_min() / t_floor - 1.0;
    assert!(
        slowdown < 0.02,
        "fastest frontier point {:.2}% slower than floor",
        slowdown * 100.0
    );
}

#[test]
fn fastest_point_saves_energy_versus_all_max() {
    // The whole point of intrinsic bloat removal: same time, less energy.
    let gpu = GpuSpec::a40();
    let pipe = build_pipe(4, 8);
    let stages = stages_with_scales(&[1.0, 1.15, 0.9, 1.25]);
    let ctx = PlanContext::from_model_profiles(&pipe, &gpu, &stages).unwrap();
    let frontier = characterize(&ctx, &FrontierOptions::default()).unwrap();

    let all_max = EnergySchedule::realize(&ctx, ctx.fastest_durations()).unwrap();
    let base = all_max.energy_report(&ctx, None);
    let perseus = frontier.fastest().schedule.energy_report(&ctx, None);
    let savings = 1.0 - perseus.total_j() / base.total_j();
    let slowdown = perseus.iter_time_s / base.iter_time_s - 1.0;
    assert!(
        savings > 0.02,
        "expected intrinsic savings, got {:.2}%",
        savings * 100.0
    );
    assert!(slowdown < 0.02, "slowdown {:.2}%", slowdown * 100.0);
}

#[test]
fn balanced_pipeline_still_has_warmup_flush_slack() {
    // Even with perfectly balanced stages, the 1F1B warmup/flush phases
    // leave non-critical computations (§6.3 discussion of Table 6).
    let gpu = GpuSpec::a100_pcie();
    let pipe = build_pipe(4, 8);
    let stages = stages_with_scales(&[1.0, 1.0, 1.0, 1.0]);
    let ctx = PlanContext::from_model_profiles(&pipe, &gpu, &stages).unwrap();
    let frontier = characterize(&ctx, &FrontierOptions::default()).unwrap();
    let all_max = EnergySchedule::realize(&ctx, ctx.fastest_durations()).unwrap();
    let base = all_max.energy_report(&ctx, None);
    let perseus = frontier.fastest().schedule.energy_report(&ctx, None);
    let savings = 1.0 - perseus.total_j() / base.total_j();
    assert!(
        savings > 0.005,
        "warmup/flush slack should yield savings: {savings}"
    );
}

#[test]
fn lookup_clamps_to_t_star_and_t_min() {
    let gpu = GpuSpec::a100_pcie();
    let pipe = build_pipe(2, 4);
    let frontier = frontier_for(&gpu, &pipe, &[1.0, 1.2], None);
    // Faster than feasible -> fastest point.
    let p = frontier.lookup(frontier.t_min() * 0.5);
    assert_eq!(p.planned_time_s, frontier.t_min());
    // Slower than T* -> clamp to T* (going past T* wastes energy).
    let p = frontier.lookup(frontier.t_star() * 10.0);
    assert_eq!(p.planned_time_s, frontier.t_star());
    // In between: the slowest point not exceeding T'.
    let mid = 0.5 * (frontier.t_min() + frontier.t_star());
    let p = frontier.lookup(mid);
    assert!(p.planned_time_s <= mid + 1e-12);
    let next_idx = frontier
        .points()
        .iter()
        .position(|q| q.planned_time_s > p.planned_time_s)
        .unwrap();
    assert!(frontier.points()[next_idx].planned_time_s > mid);
}

#[test]
fn straggler_reduces_energy_up_to_t_star() {
    // Eq. 2 behavior: energy at lookup(T') decreases as T' grows toward
    // T*, then plateaus (compute part) while blocking keeps growing.
    let gpu = GpuSpec::a40();
    let pipe = build_pipe(4, 6);
    let stages = stages_with_scales(&[1.0, 1.1, 1.0, 1.15]);
    let ctx = PlanContext::from_model_profiles(&pipe, &gpu, &stages).unwrap();
    let frontier = characterize(&ctx, &FrontierOptions::default()).unwrap();

    let t = frontier.t_min();
    let mut prev_compute = f64::INFINITY;
    for factor in [1.0, 1.1, 1.2, 1.3] {
        let t_prime = t * factor;
        let point = frontier.lookup(t_prime);
        let report = point.schedule.energy_report(&ctx, Some(t_prime));
        assert!(
            report.compute_j <= prev_compute + 1e-9,
            "compute energy should not increase with more slack"
        );
        prev_compute = report.compute_j;
        // The chosen schedule never exceeds the straggler's time.
        assert!(point.schedule.time_s <= t_prime + 1e-9);
    }
}

#[test]
fn get_next_pareto_reduces_makespan_by_tau() {
    let gpu = GpuSpec::a100_pcie();
    let pipe = build_pipe(3, 4);
    let stages = stages_with_scales(&[1.0, 1.2, 0.9]);
    let ctx = PlanContext::from_model_profiles(&pipe, &gpu, &stages).unwrap();
    let mut planned = ctx.min_energy_durations();
    let (_, t0) = node_start_times(&pipe.dag, |id, _| planned[id.index()]);
    let tau = 1e-3;
    match get_next_pareto(&ctx, &mut planned, tau) {
        CutOutcome::Reduced {
            new_makespan,
            sped_up,
            ..
        } => {
            assert!(!sped_up.is_empty());
            let drop = t0 - new_makespan;
            assert!(
                drop > tau * 0.5 && drop < tau * 1.5,
                "expected ~tau reduction, got {drop} (tau {tau})"
            );
        }
        CutOutcome::AtMinimumTime => panic!("min-energy schedule must be reducible"),
    }
}

#[test]
fn get_next_pareto_stops_at_minimum_time() {
    let gpu = GpuSpec::a100_pcie();
    let pipe = build_pipe(2, 3);
    let stages = stages_with_scales(&[1.0, 1.0]);
    let ctx = PlanContext::from_model_profiles(&pipe, &gpu, &stages).unwrap();
    let mut planned = ctx.fastest_durations();
    assert_eq!(
        get_next_pareto(&ctx, &mut planned, 1e-3),
        CutOutcome::AtMinimumTime
    );
}

#[test]
fn planned_durations_stay_within_bounds() {
    let gpu = GpuSpec::a40();
    let pipe = build_pipe(4, 5);
    let stages = stages_with_scales(&[1.0, 1.3, 0.8, 1.1]);
    let ctx = PlanContext::from_model_profiles(&pipe, &gpu, &stages).unwrap();
    let frontier = characterize(&ctx, &FrontierOptions::default()).unwrap();
    for p in frontier.points() {
        for id in pipe.dag.node_ids() {
            if let Some(info) = ctx.info(id) {
                let t = p.schedule.planned[id.index()];
                assert!(
                    t >= info.t_min - 1e-9,
                    "planned {t} below t_min {}",
                    info.t_min
                );
                assert!(
                    t <= info.t_max + 1e-9,
                    "planned {t} above t_max {}",
                    info.t_max
                );
            }
        }
    }
}

#[test]
fn realized_schedule_is_feasible() {
    // §4.3: realized durations never exceed planned ones, and assigned
    // frequencies are supported clock steps.
    let gpu = GpuSpec::a100_pcie();
    let pipe = build_pipe(3, 6);
    let stages = stages_with_scales(&[1.0, 1.2, 1.05]);
    let ctx = PlanContext::from_model_profiles(&pipe, &gpu, &stages).unwrap();
    let frontier = characterize(&ctx, &FrontierOptions::default()).unwrap();
    for p in [
        frontier.fastest(),
        frontier.lookup(frontier.t_star() * 0.7),
        frontier.most_efficient(),
    ] {
        for id in pipe.dag.node_ids() {
            if let Some(f) = p.schedule.freq_of(id) {
                assert!(gpu.supports(f), "unsupported frequency {f:?}");
                let planned = p.schedule.planned[id.index()].max(ctx.info(id).unwrap().t_min);
                assert!(p.schedule.realized_dur[id.index()] <= planned + 1e-9);
            }
        }
        assert!(p.schedule.time_s <= p.planned_time_s + 1e-9);
    }
}

#[test]
fn energy_report_accounts_blocking_and_straggler_wait() {
    let gpu = GpuSpec::a100_pcie();
    let pipe = build_pipe(2, 3);
    let stages = stages_with_scales(&[1.0, 1.0]);
    let ctx = PlanContext::from_model_profiles(&pipe, &gpu, &stages).unwrap();
    let sched = EnergySchedule::realize(&ctx, ctx.fastest_durations()).unwrap();
    let free = sched.energy_report(&ctx, None);
    let waiting = sched.energy_report(&ctx, Some(free.iter_time_s * 1.5));
    assert_eq!(free.compute_j, waiting.compute_j);
    // Waiting on the straggler adds N * (T' - T) * P_blocking.
    let extra = waiting.blocking_j - free.blocking_j;
    let expected = 2.0 * (free.iter_time_s * 0.5) * gpu.blocking_w;
    assert!(
        (extra - expected).abs() / expected < 1e-9,
        "extra {extra} expected {expected}"
    );
    assert!(waiting.total_j() > free.total_j());
    assert!(waiting.avg_power_w() < free.avg_power_w());
}

/// Eq. 3 and the bloat ledger, each split into a `T'`-independent half
/// and an evaluation at the sync time, against a reference copy of the
/// whole-walk arithmetic they replaced.
mod split_pricing {
    use super::*;
    use crate::energy::PipelineEnergy;
    use crate::ledger::{
        attribute_schedule_with_sleep, slack_fill, AttributionSums, EnergyBreakdown,
        ScheduleAttribution,
    };
    use crate::planner::FrontierPlan;
    use crate::sleep::SleepPlan;
    use perseus_gpu::PowerStateModel;
    use perseus_models::{min_imbalance_partition, zoo};
    use perseus_pipeline::{node_schedule_gaps, PipeNode};

    /// Eq. 3 priced in one walk, sleep savings subtracted at the end.
    fn reference_report(
        ctx: &PlanContext<'_>,
        schedule: &EnergySchedule,
        t_prime: Option<f64>,
        sleep: Option<&SleepPlan>,
    ) -> PipelineEnergy {
        let pipe = &ctx.pipe;
        let (_, makespan) = node_start_times(&pipe.dag, |id, _| schedule.realized_dur[id.index()]);
        let sync = t_prime.map_or(makespan, |t| t.max(makespan));
        let mut busy = vec![0.0f64; pipe.n_stages];
        let mut compute_j = 0.0;
        let mut fixed_j = 0.0;
        for id in pipe.dag.node_ids() {
            match pipe.dag.node(id) {
                PipeNode::Comp(c) => {
                    busy[c.stage] += schedule.realized_dur[id.index()];
                    compute_j += schedule.realized_energy[id.index()];
                }
                PipeNode::Fixed { stage, .. } => {
                    busy[*stage] += schedule.realized_dur[id.index()];
                    fixed_j += schedule.realized_energy[id.index()];
                }
                _ => {}
            }
        }
        let blocking_time: f64 = busy.iter().map(|b| (sync - b).max(0.0)).sum();
        let mut report = PipelineEnergy {
            iter_time_s: makespan,
            sync_time_s: sync,
            compute_j,
            fixed_j,
            blocking_j: ctx.gpu.blocking_w * blocking_time,
        };
        if let Some(plan) = sleep {
            report.blocking_j -= plan.saved_j(ctx.gpu.blocking_w);
        }
        report
    }

    /// The ledger in one walk: every lane, the sync wait included.
    fn reference_attribution(
        ctx: &PlanContext<'_>,
        schedule: &EnergySchedule,
        t_prime: Option<f64>,
        sleep: Option<&SleepPlan>,
    ) -> ScheduleAttribution {
        let dag = &ctx.pipe.dag;
        let (_, gaps, makespan) =
            node_schedule_gaps(dag, |id, _| schedule.realized_dur[id.index()]);
        let sync = t_prime.map_or(makespan, |t| t.max(makespan));
        let p_blocking = ctx.gpu.blocking_w;
        let n_stages = ctx.pipe.n_stages;
        let mut per_stage = vec![EnergyBreakdown::default(); n_stages];
        let mut per_kind = [EnergyBreakdown::default(); 7];
        let mut busy_fill = vec![0.0f64; n_stages];
        for id in dag.node_ids() {
            match dag.node(id) {
                PipeNode::Comp(c) => {
                    let d = schedule.realized_dur[id.index()];
                    let e = schedule.realized_energy[id.index()];
                    let (fill_t, fill_e) = slack_fill(ctx, schedule, &gaps, id);
                    let useful = fill_e.min(e);
                    let intrinsic = (e - useful) + p_blocking * (fill_t - d);
                    busy_fill[c.stage] += fill_t;
                    per_stage[c.stage].useful_j += useful;
                    per_stage[c.stage].intrinsic_j += intrinsic;
                    let k = match c.kind {
                        perseus_pipeline::CompKind::Forward => EnergyKind::Forward,
                        perseus_pipeline::CompKind::Backward => EnergyKind::Backward,
                        perseus_pipeline::CompKind::Recompute => EnergyKind::Recompute,
                    }
                    .index();
                    per_kind[k].useful_j += useful;
                    per_kind[k].intrinsic_j += intrinsic;
                }
                PipeNode::Fixed { stage, .. } => {
                    busy_fill[*stage] += schedule.realized_dur[id.index()];
                    let e = schedule.realized_energy[id.index()];
                    per_stage[*stage].useful_j += e;
                    per_kind[EnergyKind::Fixed.index()].useful_j += e;
                }
                _ => {}
            }
        }
        for (stage, fill) in busy_fill.iter().enumerate() {
            let mut idle = p_blocking * (makespan - fill).max(0.0);
            if let Some(plan) = sleep {
                for w in plan.stage_windows(stage) {
                    let cost = w.actual_j(p_blocking);
                    idle -= p_blocking * w.span_s();
                    per_stage[stage].useful_j += cost;
                    per_kind[EnergyKind::StaticSleep.index()].useful_j += cost;
                }
            }
            per_stage[stage].useful_j += idle;
            per_kind[EnergyKind::Idle.index()].useful_j += idle;
        }
        let wait = p_blocking * (sync - makespan).max(0.0);
        for stage in per_stage.iter_mut() {
            stage.extrinsic_j += wait;
        }
        per_kind[EnergyKind::SyncWait.index()].extrinsic_j += wait * n_stages as f64;
        let mut total = EnergyBreakdown::default();
        for stage in &per_stage {
            total.accumulate(*stage);
        }
        ScheduleAttribution {
            iter_time_s: makespan,
            sync_time_s: sync,
            total,
            per_stage,
            per_kind,
        }
    }

    /// Every point of a real frontier (GPT-3 1.3B on A100, 4 stages × 8
    /// microbatches), with and without its Kareus sleep plan, at `T'`
    /// absent, below, at and above the point's makespan: the public
    /// pricers and one set of sums evaluated at every `T'` all equal the
    /// reference bit for bit.
    #[test]
    fn split_pricing_is_bit_identical_to_one_walk() {
        let gpu = GpuSpec::a100_pcie();
        let model = zoo::gpt3_xl(4);
        let partition = min_imbalance_partition(&model.fwd_latency_weights(&gpu), 4).unwrap();
        let stages = model.stage_workloads(&partition, &gpu).unwrap();
        let pipe = build_pipe(4, 8);
        let ctx = PlanContext::from_model_profiles(&pipe, &gpu, &stages).unwrap();
        let frontier =
            std::sync::Arc::new(characterize(&ctx, &FrontierOptions::default()).unwrap());
        let plan = FrontierPlan::with_sleep(frontier, &ctx, &PowerStateModel::default_for(&gpu));
        let sleep_plans = plan.sleep().unwrap();
        assert!(
            sleep_plans.iter().any(|p| !p.is_empty()),
            "the frontier must exercise sleep windows"
        );

        for (i, point) in plan.frontier().points().iter().enumerate() {
            let schedule = &point.schedule;
            let t = schedule.time_s;
            for sleep in [None, Some(&sleep_plans[i])] {
                let energy = schedule.energy_sums(&ctx, sleep);
                let lanes = AttributionSums::new(&ctx, schedule, sleep);
                for t_prime in [None, Some(0.5 * t), Some(t), Some(1.3 * t)] {
                    let at = format!("point {i}, sleep {}, T' {t_prime:?}", sleep.is_some());
                    // Debug prints every f64 in its shortest round-tripping
                    // form, so equal text means bit-equal joules and times.
                    let want = format!("{:?}", reference_report(&ctx, schedule, t_prime, sleep));
                    let report = schedule.energy_report_with_sleep(&ctx, t_prime, sleep);
                    assert_eq!(format!("{report:?}"), want, "{at}");
                    assert_eq!(format!("{:?}", energy.at(t_prime)), want, "{at}");
                    if sleep.is_none() {
                        let plain = schedule.energy_report(&ctx, t_prime);
                        assert_eq!(format!("{plain:?}"), want, "{at}");
                    }

                    let want = format!(
                        "{:?}",
                        reference_attribution(&ctx, schedule, t_prime, sleep)
                    );
                    let attr = attribute_schedule_with_sleep(&ctx, schedule, t_prime, sleep);
                    assert_eq!(format!("{attr:?}"), want, "{at}");
                    assert_eq!(format!("{:?}", lanes.at(t_prime)), want, "{at}");
                    if sleep.is_none() {
                        let plain = attribute_schedule(&ctx, schedule, t_prime);
                        assert_eq!(format!("{plain:?}"), want, "{at}");
                    }
                }
            }
        }
    }
}

#[test]
fn fixed_ops_are_never_modified() {
    let gpu = GpuSpec::a100_pcie();
    let pipe = PipelineBuilder::new(ScheduleKind::OneFOneB, 2, 4)
        .with_data_loading(0.02, 45.0)
        .build()
        .unwrap();
    let stages = stages_with_scales(&[1.0, 1.1]);
    let ctx = PlanContext::from_model_profiles(&pipe, &gpu, &stages).unwrap();
    let frontier = characterize(&ctx, &FrontierOptions::default()).unwrap();
    for p in frontier.points() {
        for (id, _, time_s, power_w) in pipe.fixed_ops() {
            assert_eq!(p.schedule.planned[id.index()], time_s);
            assert_eq!(p.schedule.freq_of(id), None);
            assert!((p.schedule.realized_energy[id.index()] - time_s * power_w).abs() < 1e-12);
        }
    }
}

#[test]
fn missing_profile_is_reported() {
    let gpu = GpuSpec::a100_pcie();
    let pipe = build_pipe(2, 2);
    let profiles = perseus_profiler::ProfileDb::new();
    match PlanContext::new(&pipe, &gpu, profiles) {
        Err(crate::CoreError::MissingProfile { stage: _, kind: _ }) => {}
        other => panic!("expected MissingProfile, got {other:?}"),
    }
}

#[test]
fn explicit_tau_controls_granularity() {
    let gpu = GpuSpec::a100_pcie();
    let pipe = build_pipe(2, 3);
    let coarse = frontier_for(&gpu, &pipe, &[1.0, 1.2], Some(20e-3));
    let fine = frontier_for(&gpu, &pipe, &[1.0, 1.2], Some(2e-3));
    assert!(fine.points().len() > coarse.points().len());
}

#[test]
fn more_imbalance_means_more_intrinsic_savings() {
    // §6.2: stage imbalance is what creates intrinsic bloat.
    let gpu = GpuSpec::a100_pcie();
    let pipe = build_pipe(4, 6);
    let savings_for = |scales: &[f64]| {
        let stages = stages_with_scales(scales);
        let ctx = PlanContext::from_model_profiles(&pipe, &gpu, &stages).unwrap();
        let frontier = characterize(&ctx, &FrontierOptions::default()).unwrap();
        let base = EnergySchedule::realize(&ctx, ctx.fastest_durations())
            .unwrap()
            .energy_report(&ctx, None);
        let perseus = frontier.fastest().schedule.energy_report(&ctx, None);
        1.0 - perseus.total_j() / base.total_j()
    };
    let balanced = savings_for(&[1.0, 1.0, 1.0, 1.0]);
    let imbalanced = savings_for(&[1.0, 1.0, 1.0, 1.4]);
    assert!(
        imbalanced > balanced,
        "imbalanced {imbalanced} should beat balanced {balanced}"
    );
}

#[test]
fn attribution_splits_all_max_into_useful_and_intrinsic() {
    // An imbalanced pipeline at max frequency has intrinsic bloat (the
    // slack-filling alternative is strictly cheaper) and, without a
    // straggler, no extrinsic bloat.
    let gpu = GpuSpec::a100_pcie();
    let pipe = build_pipe(4, 6);
    let stages = stages_with_scales(&[1.0, 1.2, 0.9, 1.3]);
    let ctx = PlanContext::from_model_profiles(&pipe, &gpu, &stages).unwrap();
    let sched = EnergySchedule::realize(&ctx, ctx.fastest_durations()).unwrap();
    let attr = attribute_schedule(&ctx, &sched, None);
    let report = sched.energy_report(&ctx, None);
    assert!(
        (attr.total.total_j() - report.total_j()).abs() / report.total_j() < 1e-12,
        "attribution total {} vs Eq.3 total {}",
        attr.total.total_j(),
        report.total_j()
    );
    assert!(attr.total.useful_j > 0.0);
    assert!(
        attr.total.intrinsic_j > 0.0,
        "imbalance at max frequency must show intrinsic bloat"
    );
    assert_eq!(attr.total.extrinsic_j, 0.0);
    assert_eq!(attr.iter_time_s, report.iter_time_s);
    assert_eq!(attr.sync_time_s, report.iter_time_s);
}

#[test]
fn attribution_charges_the_straggler_wait_as_extrinsic() {
    let gpu = GpuSpec::a100_pcie();
    let pipe = build_pipe(4, 6);
    let stages = stages_with_scales(&[1.0, 1.1, 0.95, 1.2]);
    let ctx = PlanContext::from_model_profiles(&pipe, &gpu, &stages).unwrap();
    let sched = EnergySchedule::realize(&ctx, ctx.fastest_durations()).unwrap();
    let t_prime = sched.time_s * 1.4;
    let attr = attribute_schedule(&ctx, &sched, Some(t_prime));
    let expected_wait = 4.0 * gpu.blocking_w * (t_prime - sched.time_s);
    assert!(
        (attr.total.extrinsic_j - expected_wait).abs() / expected_wait < 1e-12,
        "extrinsic {} vs N*P_b*(T'-T) {}",
        attr.total.extrinsic_j,
        expected_wait
    );
    // The wait is charged to SyncWait and split evenly over stages.
    assert_eq!(
        attr.kind(EnergyKind::SyncWait).extrinsic_j,
        attr.total.extrinsic_j
    );
    for stage in &attr.per_stage {
        assert!((stage.extrinsic_j - expected_wait / 4.0).abs() / expected_wait < 1e-12);
    }
    // A straggler finishing before the pipeline adds nothing.
    let early = attribute_schedule(&ctx, &sched, Some(sched.time_s * 0.5));
    assert_eq!(early.total.extrinsic_j, 0.0);
    assert_eq!(early.sync_time_s, sched.time_s);
}

#[test]
fn attribution_of_min_energy_schedule_has_no_instruction_bloat() {
    // At the frontier's most efficient point every computation already
    // runs at its min-energy duration — the slack-filling alternative IS
    // the realized instruction, so intrinsic bloat vanishes.
    let gpu = GpuSpec::a100_pcie();
    let pipe = build_pipe(4, 6);
    let stages = stages_with_scales(&[1.0, 1.15, 0.9, 1.25]);
    let ctx = PlanContext::from_model_profiles(&pipe, &gpu, &stages).unwrap();
    let frontier = characterize(&ctx, &FrontierOptions::default()).unwrap();
    let sched = &frontier.most_efficient().schedule;
    let attr = attribute_schedule(&ctx, sched, None);
    assert!(
        attr.total.intrinsic_j <= attr.total.total_j() * 1e-9,
        "min-energy schedule shows intrinsic bloat: {} J",
        attr.total.intrinsic_j
    );
}

#[test]
fn ledger_aggregates_weighted_attributions() {
    let gpu = GpuSpec::a100_pcie();
    let pipe = build_pipe(2, 4);
    let stages = stages_with_scales(&[1.0, 1.2]);
    let ctx = PlanContext::from_model_profiles(&pipe, &gpu, &stages).unwrap();
    let sched = EnergySchedule::realize(&ctx, ctx.fastest_durations()).unwrap();
    let attr = attribute_schedule(&ctx, &sched, Some(sched.time_s * 1.2));

    let mut ledger = BloatLedger::new(2);
    ledger.record(&attr, 3.0);
    ledger.record(&attr, 1.0);
    ledger.note_iteration();
    assert_eq!(ledger.iterations(), 1);
    let total = ledger.total();
    assert!((total.total_j() - 4.0 * attr.total.total_j()).abs() < 1e-9);
    let stage_sum: f64 = ledger.per_stage().iter().map(|b| b.total_j()).sum();
    let kind_sum: f64 = EnergyKind::ALL
        .iter()
        .map(|k| ledger.kind(*k).total_j())
        .sum();
    assert!((stage_sum - total.total_j()).abs() < 1e-9);
    assert!((kind_sum - total.total_j()).abs() < 1e-9);

    let mut other = BloatLedger::new(2);
    other.record(&attr, 2.0);
    other.note_iteration();
    ledger.merge(&other);
    assert_eq!(ledger.iterations(), 2);
    assert!((ledger.total().total_j() - 6.0 * attr.total.total_j()).abs() < 1e-9);
    assert!((ledger.mean_per_iteration().total_j() - 3.0 * attr.total.total_j()).abs() < 1e-9);
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn frontier_invariants_hold_for_random_pipelines(
            n in 2usize..5,
            m in 2usize..7,
            scales in proptest::collection::vec(0.7f64..1.4, 2..5),
        ) {
            prop_assume!(scales.len() >= n);
            let gpu = GpuSpec::a100_pcie();
            let pipe = build_pipe(n, m);
            let stages = stages_with_scales(&scales[..n]);
            let ctx = PlanContext::from_model_profiles(&pipe, &gpu, &stages).unwrap();
            let frontier =
                characterize(&ctx, &FrontierOptions { tau_s: Some(5e-3), max_iters: 50_000, ..FrontierOptions::default() })
                    .unwrap();
            // Monotone tradeoff.
            for pair in frontier.points().windows(2) {
                prop_assert!(pair[0].planned_time_s < pair[1].planned_time_s);
                prop_assert!(pair[0].planned_energy_j >= pair[1].planned_energy_j);
            }
            // Realized schedules never slower than planned.
            for p in frontier.points() {
                prop_assert!(p.schedule.time_s <= p.planned_time_s + 1e-9);
            }
        }

        // Telemetry is observation only: characterizing with an enabled
        // registry yields the bit-identical frontier a disabled handle
        // does, for any random pipeline shape.
        #[test]
        fn telemetry_never_changes_the_characterized_frontier(
            n in 2usize..5,
            m in 2usize..7,
            scales in proptest::collection::vec(0.7f64..1.4, 2..5),
        ) {
            prop_assume!(scales.len() >= n);
            let gpu = GpuSpec::a100_pcie();
            let pipe = build_pipe(n, m);
            let stages = stages_with_scales(&scales[..n]);
            let ctx = PlanContext::from_model_profiles(&pipe, &gpu, &stages).unwrap();
            let opts = FrontierOptions { tau_s: Some(5e-3), max_iters: 50_000, ..FrontierOptions::default() };
            let tel = perseus_telemetry::Telemetry::enabled();
            let traced = crate::frontier::FrontierSolver::with_telemetry(&pipe, tel.clone())
                .characterize(&ctx, &opts)
                .unwrap();
            let silent = crate::frontier::FrontierSolver::new(&pipe)
                .characterize(&ctx, &opts)
                .unwrap();
            prop_assert_eq!(traced.points().len(), silent.points().len());
            for (a, b) in traced.points().iter().zip(silent.points()) {
                prop_assert_eq!(a.planned_time_s.to_bits(), b.planned_time_s.to_bits());
                prop_assert_eq!(a.planned_energy_j.to_bits(), b.planned_energy_j.to_bits());
                prop_assert_eq!(&a.schedule.freqs, &b.schedule.freqs);
                prop_assert_eq!(a.schedule.time_s.to_bits(), b.schedule.time_s.to_bits());
                prop_assert_eq!(a.schedule.compute_j.to_bits(), b.schedule.compute_j.to_bits());
            }
            // And the traced run did count its PD iterations.
            let snap = tel.snapshot();
            prop_assert!(snap.value_of("perseus_pd_iterations_total", &[]).unwrap_or(0.0) >= 1.0);
            prop_assert_eq!(
                snap.value_of("perseus_solver_runs_total", &[]),
                Some(1.0)
            );
        }

        #[test]
        fn lookup_selects_slowest_point_within_the_deadline(
            t_min in 0.2f64..5.0,
            gaps in proptest::collection::vec(1e-3f64..0.5, 1..60),
            // T' as a factor of the frontier span, deliberately ranging
            // below T_min and beyond T*.
            factor in -0.5f64..2.0,
        ) {
            let frontier = synthetic_frontier(t_min, &gaps);
            let t_star = frontier.t_star();
            let t_prime = t_min + (t_star - t_min) * factor;
            let chosen = frontier.lookup(t_prime);
            let eps = 1e-12;
            // Perseus straggler rule (§3.2): run no slower than
            // min(T*, T'), at the lowest energy available. A deadline
            // below T_min is infeasible; the fastest point is the best
            // the frontier can do.
            let t_opt = t_prime.min(t_star).max(t_min);
            prop_assert!(chosen.planned_time_s <= t_opt + eps);
            // ... and `chosen` is the SLOWEST such point: every point
            // strictly slower than it overshoots the deadline.
            for p in frontier.points() {
                if p.planned_time_s > chosen.planned_time_s {
                    prop_assert!(p.planned_time_s > t_opt + eps);
                }
            }
        }

        // Explicit lower-edge clamp: a deadline strictly below the fastest
        // point (including absurd negatives a skewed clock could produce)
        // is infeasible — lookup answers the fastest point, never panics.
        #[test]
        fn lookup_clamps_deadlines_below_the_fastest_point(
            t_min in 0.2f64..5.0,
            gaps in proptest::collection::vec(1e-3f64..0.5, 1..40),
            below in 1e-6f64..10.0,
        ) {
            let frontier = synthetic_frontier(t_min, &gaps);
            let chosen = frontier.lookup(t_min - below);
            prop_assert_eq!(chosen.planned_time_s, frontier.t_min());
            prop_assert_eq!(
                frontier.lookup(-below).planned_time_s,
                frontier.t_min()
            );
        }

        // The ledger's contract (satellite: conservation invariant):
        // useful + intrinsic + extrinsic equals Eq. 3's total to within
        // 1e-9 relative, for random pipeline shapes, random frequency
        // plans, frequency caps, and clock-skewed straggler times
        // (negative and sub-makespan T' included). The per-stage and
        // per-kind aggregations must sum back to the same total.
        #[test]
        fn ledger_conserves_energy_for_random_schedules(
            n in 2usize..5,
            m in 2usize..7,
            scales in proptest::collection::vec(0.7f64..1.4, 4..5),
            fracs in proptest::collection::vec(0.0f64..1.0, 16..17),
            t_factor in -0.5f64..2.5,
            cap_frac in 0.0f64..1.0,
        ) {
            let gpu = GpuSpec::a100_pcie();
            let mut builder = PipelineBuilder::new(ScheduleKind::OneFOneB, n, m);
            if m % 2 == 0 {
                // Exercise fixed-time operations too.
                builder = builder.with_data_loading(0.005, 45.0);
            }
            let pipe = builder.build().unwrap();
            let stages = stages_with_scales(&scales[..n]);
            let ctx = PlanContext::from_model_profiles(&pipe, &gpu, &stages).unwrap();

            // A random frequency plan: each computation somewhere on
            // [t_min, t_max], realized under an optional frequency cap
            // (the §2.3 thermal-throttle fault).
            let mut planned = ctx.fastest_durations();
            for (i, id) in pipe.dag.node_ids().enumerate() {
                if let Some(info) = ctx.info(id) {
                    let frac = fracs[i % fracs.len()];
                    planned[id.index()] = info.t_min + frac * (info.t_max - info.t_min);
                }
            }
            let cap = if cap_frac < 0.5 {
                None
            } else {
                let freqs = gpu.frequencies();
                let idx = ((cap_frac - 0.5) * 2.0 * (freqs.len() - 1) as f64) as usize;
                Some(freqs[idx.min(freqs.len() - 1)])
            };
            let sched = EnergySchedule::realize_with_cap(&ctx, planned, cap).unwrap();

            // T' < 0 models a skewed clock; T' < T models a straggler
            // that is not actually the slowest; both must be inert.
            let t_prime = if t_factor < -0.25 {
                None
            } else {
                Some(sched.time_s * t_factor)
            };
            let attr = attribute_schedule(&ctx, &sched, t_prime);
            let report = sched.energy_report(&ctx, t_prime);
            let total = report.total_j();
            prop_assert!(
                (attr.total.total_j() - total).abs() <= 1e-9 * total.max(1.0),
                "conservation violated: attributed {} vs Eq.3 {}",
                attr.total.total_j(),
                total
            );
            let stage_sum: f64 = attr.per_stage.iter().map(|b| b.total_j()).sum();
            let kind_sum: f64 = attr.per_kind.iter().map(|b| b.total_j()).sum();
            prop_assert!((stage_sum - total).abs() <= 1e-9 * total.max(1.0));
            prop_assert!((kind_sum - total).abs() <= 1e-9 * total.max(1.0));
            // Every component is a non-negative quantity of joules.
            for b in attr.per_stage.iter().chain(attr.per_kind.iter()) {
                prop_assert!(b.useful_j >= 0.0);
                prop_assert!(b.intrinsic_j >= 0.0);
                prop_assert!(b.extrinsic_j >= 0.0);
            }
        }

        // Explicit upper-edge clamp: a deadline beyond the slowest point
        // (a catastrophic straggler, `T' = ∞` included) saturates at `T*`
        // — running slower than the min-energy point never saves energy.
        #[test]
        fn lookup_clamps_deadlines_above_the_slowest_point(
            t_min in 0.2f64..5.0,
            gaps in proptest::collection::vec(1e-3f64..0.5, 1..40),
            above in 1e-6f64..100.0,
        ) {
            let frontier = synthetic_frontier(t_min, &gaps);
            let t_star = frontier.t_star();
            let chosen = frontier.lookup(t_star + above);
            prop_assert_eq!(chosen.planned_time_s, t_star);
            prop_assert_eq!(
                frontier.lookup(f64::INFINITY).planned_time_s,
                t_star
            );
        }
    }

    proptest! {
        // The seed a changed critical topology starts from, repaired by the
        // two trimming sweeps, is a feasible flow whatever flows the
        // previous solve left on the new edges: within every capacity
        // (unbounded edges included) and conserved at every node but the
        // terminals, to the flow solver's own relative tolerance.
        #[test]
        fn repaired_seed_is_feasible(
            n in 3usize..12,
            raw in proptest::collection::vec(
                (any::<u16>(), any::<u16>(), 0.0f64..8.0, any::<bool>(), 0.0f64..1.0),
                1..48,
            ),
        ) {
            let (s, t) = (0, n - 1);
            let mut problem = perseus_flow::MinCutProblem::new(n);
            let mut flow = Vec::new();
            for (a, b, cap, unbounded, fill) in raw {
                let (u, v) = ((a as usize) % n, (b as usize) % n);
                if u < v {
                    let cap = if unbounded { f64::INFINITY } else { cap };
                    problem.add_edge(u, v, cap);
                    flow.push(cap.min(8.0) * fill);
                }
            }
            let order: Vec<usize> = (0..n).collect();
            crate::cut::repair_seed(
                &problem,
                &order,
                (s, t),
                &mut flow,
                &mut crate::cut::Incidence::default(),
            );
            let tol = perseus_flow::CAP_EPS * flow.iter().fold(1.0f64, |m, &f| m.max(f));
            let mut balance = vec![0.0f64; n];
            for (e, &f) in problem.edges().iter().zip(&flow) {
                prop_assert!(0.0 <= f && f <= e.cap, "flow {} cap {}", f, e.cap);
                balance[e.dst] += f;
                balance[e.src] -= f;
            }
            for (v, b) in balance.iter().enumerate().filter(|&(v, _)| v != s && v != t) {
                prop_assert!(b.abs() <= tol, "node {} unbalanced by {}", v, b);
            }
        }
    }

    /// Strictly ascending synthetic frontier from a base time and positive
    /// gaps; energies descend, schedules are empty shells (lookup reads
    /// neither).
    fn synthetic_frontier(t_min: f64, gaps: &[f64]) -> ParetoFrontier {
        let mut t = t_min;
        let mut points = Vec::with_capacity(gaps.len() + 1);
        for (i, g) in std::iter::once(&0.0).chain(gaps).enumerate() {
            t += g;
            points.push(crate::frontier::FrontierPoint {
                planned_time_s: t,
                planned_energy_j: (gaps.len() + 1 - i) as f64,
                schedule: EnergySchedule {
                    planned: Vec::new(),
                    freqs: Vec::new(),
                    realized_dur: Vec::new(),
                    realized_energy: Vec::new(),
                    time_s: t,
                    compute_j: (gaps.len() + 1 - i) as f64,
                },
            });
        }
        ParetoFrontier::from_points(points)
    }
}

/// Exhaustive cross-validation: on a tiny pipeline with a coarse frequency
/// set, enumerate EVERY frequency assignment, build the true Pareto front
/// of realized (time, total energy), and check that Perseus's frontier
/// tracks it closely. This validates the whole chain — continuous
/// relaxation, graph-cut sweep, stretch pass, frequency quantization —
/// against ground truth.
#[test]
fn frontier_matches_brute_force_on_tiny_instance() {
    use perseus_pipeline::PipeNode;

    let gpu = GpuSpec {
        name: "tiny-test-gpu",
        min_freq_mhz: 600,
        max_freq_mhz: 1000,
        step_mhz: 100,
        tdp_w: 300.0,
        static_w: 80.0,
        blocking_w: 70.0,
        alpha: 2.2,
        flops_per_mhz_s: 1.0e11,
        cap_knee: 1.0, // pure linear DVFS keeps the ground truth clean
    };
    let pipe = build_pipe(2, 2);
    let stages = vec![
        StageWorkloads {
            fwd: Workload::new(50.0, 0.004, 0.85),
            bwd: Workload::new(100.0, 0.008, 0.92),
        },
        StageWorkloads {
            fwd: Workload::new(65.0, 0.005, 0.85),
            bwd: Workload::new(130.0, 0.010, 0.92),
        },
    ];
    let ctx = PlanContext::from_model_profiles(&pipe, &gpu, &stages).unwrap();

    // Enumerate all 5^8 assignments over the computation nodes.
    let comps: Vec<_> = pipe.computations().map(|(id, _)| id).collect();
    assert_eq!(comps.len(), 8);
    let freqs = gpu.frequencies();
    let n_f = freqs.len();
    let mut brute: Vec<(f64, f64)> = Vec::with_capacity(n_f.pow(8));
    let mut assignment = vec![0usize; comps.len()];
    loop {
        // Evaluate this assignment.
        let mut dur = vec![0.0f64; pipe.dag.node_count()];
        let mut energy = vec![0.0f64; pipe.dag.node_count()];
        for (slot, &id) in comps.iter().enumerate() {
            let profile = ctx.profile_of(id).unwrap();
            let e = profile.entry_at(freqs[assignment[slot]]).unwrap();
            dur[id.index()] = e.time_s;
            energy[id.index()] = e.energy_j;
        }
        let report = crate::pipeline_energy(
            &pipe,
            |id, _: &PipeNode| dur[id.index()],
            |id, _: &PipeNode| energy[id.index()],
            gpu.blocking_w,
            None,
        );
        brute.push((report.iter_time_s, report.total_j()));
        // Next assignment (odometer).
        let mut k = 0;
        loop {
            assignment[k] += 1;
            if assignment[k] < n_f {
                break;
            }
            assignment[k] = 0;
            k += 1;
            if k == comps.len() {
                break;
            }
        }
        if k == comps.len() {
            break;
        }
    }
    // True Pareto front (ascending time, strictly descending energy).
    brute.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut front: Vec<(f64, f64)> = Vec::new();
    let mut best = f64::INFINITY;
    for (t, e) in brute {
        if e < best {
            best = e;
            front.push((t, e));
        }
    }

    let frontier = characterize(&ctx, &FrontierOptions::default()).unwrap();
    // For every ground-truth Pareto point, Perseus must offer a schedule
    // that is no slower and at most a few percent hungrier (continuous
    // relaxation + τ quantization account for the gap).
    for &(t_b, e_b) in &front {
        let candidate = frontier
            .points()
            .iter()
            .filter(|p| p.schedule.time_s <= t_b + 1e-9)
            .map(|p| p.schedule.energy_report(&ctx, None).total_j())
            .fold(f64::INFINITY, f64::min);
        assert!(
            candidate <= e_b * 1.05,
            "at T={t_b:.4}: perseus best {candidate:.2} J vs brute optimum {e_b:.2} J"
        );
    }
    // And the fastest point must hit the true minimum time exactly.
    let t_floor = front.first().unwrap().0;
    assert!((frontier.fastest().schedule.time_s - t_floor).abs() < 1e-9);
}

mod fingerprint_and_cache {
    use std::sync::Arc;

    use super::*;
    use crate::cache::PlanCache;
    use crate::fingerprint::{plan_fingerprint, PlanFingerprint};
    use crate::planner::{Perseus, Planner};
    use perseus_pipeline::{CompKind, OpKey};
    use perseus_profiler::{OpProfile, ProfileDb};
    use perseus_store::{Persist, StoreError};

    /// All (key, profile) pairs for `scales`, in natural stage/kind order.
    fn profile_pairs(gpu: &GpuSpec, scales: &[f64]) -> Vec<(OpKey, OpProfile)> {
        let mut pairs = Vec::new();
        for (s, sw) in stages_with_scales(scales).iter().enumerate() {
            for (kind, w) in [
                (CompKind::Forward, &sw.fwd),
                (CompKind::Backward, &sw.bwd),
                (CompKind::Recompute, &sw.fwd),
            ] {
                pairs.push((
                    OpKey {
                        stage: s,
                        chunk: 0,
                        kind,
                    },
                    OpProfile::from_model(gpu, w),
                ));
            }
        }
        pairs
    }

    fn db_in_order(pairs: &[(OpKey, OpProfile)], order: &[usize]) -> ProfileDb<OpKey> {
        let mut db = ProfileDb::new();
        for &i in order {
            let (k, p) = &pairs[i];
            db.insert(*k, p.clone());
        }
        db
    }

    /// Tiny deterministic shuffle so proptest cases stay reproducible.
    fn shuffled(n: usize, mut seed: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (seed >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        order
    }

    fn default_opts() -> FrontierOptions {
        FrontierOptions {
            tau_s: Some(5e-3),
            max_iters: 50_000,
            stretch: true,
            warm_start: true,
        }
    }

    #[test]
    fn fingerprint_ignores_job_identity_and_insertion_order() {
        let gpu = GpuSpec::a100_pcie();
        let pipe = build_pipe(3, 5);
        let scales = [1.0, 1.1, 0.9];
        let pairs = profile_pairs(&gpu, &scales);
        let natural = db_in_order(&pairs, &(0..pairs.len()).collect::<Vec<_>>());
        let opts = default_opts();
        let fp = plan_fingerprint("perseus", &pipe, &gpu, &natural, &opts);
        // The fingerprint API takes no job name and no tenant: two jobs
        // with identical structure *cannot* fingerprint differently. Any
        // insertion order of the same profiles agrees too.
        for seed in [1u64, 7, 42, 1234] {
            let shuffled_db = db_in_order(&pairs, &shuffled(pairs.len(), seed));
            assert_eq!(
                fp,
                plan_fingerprint("perseus", &pipe, &gpu, &shuffled_db, &opts),
                "insertion order (seed {seed}) changed the fingerprint"
            );
        }
    }

    #[test]
    fn fingerprint_separates_every_structural_axis() {
        let gpu = GpuSpec::a100_pcie();
        let pipe = build_pipe(3, 5);
        let scales = [1.0, 1.1, 0.9];
        let pairs = profile_pairs(&gpu, &scales);
        let order: Vec<usize> = (0..pairs.len()).collect();
        let db = db_in_order(&pairs, &order);
        let opts = default_opts();

        let mut fps = vec![plan_fingerprint("perseus", &pipe, &gpu, &db, &opts)];
        // Different policy name.
        fps.push(plan_fingerprint("zeus_global", &pipe, &gpu, &db, &opts));
        // Different DAG shape: one more stage, one more microbatch, and a
        // different schedule kind (different edge set at equal node
        // counts per stage program).
        let wider = build_pipe(4, 5);
        let deeper = build_pipe(3, 6);
        let gpipe = PipelineBuilder::new(ScheduleKind::GPipe, 3, 5)
            .build()
            .unwrap();
        fps.push(plan_fingerprint("perseus", &wider, &gpu, &db, &opts));
        fps.push(plan_fingerprint("perseus", &deeper, &gpu, &db, &opts));
        fps.push(plan_fingerprint("perseus", &gpipe, &gpu, &db, &opts));
        // Different GPU model.
        fps.push(plan_fingerprint(
            "perseus",
            &pipe,
            &GpuSpec::v100(),
            &db,
            &opts,
        ));
        fps.push(plan_fingerprint(
            "perseus",
            &pipe,
            &GpuSpec::h100_sxm(),
            &db,
            &opts,
        ));
        // Different frontier options.
        let coarse = FrontierOptions {
            tau_s: Some(1e-2),
            ..default_opts()
        };
        let no_stretch = FrontierOptions {
            stretch: false,
            ..default_opts()
        };
        fps.push(plan_fingerprint("perseus", &pipe, &gpu, &db, &coarse));
        fps.push(plan_fingerprint("perseus", &pipe, &gpu, &db, &no_stretch));
        // Perturbed profiles: one stage's workload nudged by 0.01%.
        let nudged = db_in_order(&profile_pairs(&gpu, &[1.0001, 1.1, 0.9]), &order);
        fps.push(plan_fingerprint("perseus", &pipe, &gpu, &nudged, &opts));

        for i in 0..fps.len() {
            for j in i + 1..fps.len() {
                assert_ne!(fps[i], fps[j], "axes {i} and {j} collided");
            }
        }
    }

    #[test]
    fn cache_counts_hits_misses_and_keeps_first_insert() {
        let cache = PlanCache::new();
        let gpu = GpuSpec::a100_pcie();
        let pipe = build_pipe(2, 4);
        let frontier = Arc::new(frontier_for(&gpu, &pipe, &[1.0, 1.2], Some(5e-3)));
        let fp = PlanFingerprint(0xdead_beef);

        assert!(cache.get(fp).is_none());
        let stored = cache.insert(fp, Arc::clone(&frontier));
        assert!(
            Arc::ptr_eq(&stored, &frontier),
            "insert stores the caller's Arc"
        );
        let hit = cache.get(fp).expect("inserted entry must hit");
        assert!(
            Arc::ptr_eq(&hit, &frontier),
            "a hit must not copy the frontier"
        );
        // Second insert under the same fingerprint is a no-op: the cache
        // keeps the first frontier (both were solved from identical inputs).
        let other = Arc::new(frontier_for(&gpu, &pipe, &[1.3, 0.8], Some(5e-3)));
        let kept = cache.insert(fp, other);
        assert!(Arc::ptr_eq(&kept, &frontier));
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.inserts, stats.entries),
            (1, 1, 1, 1)
        );
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);

        cache.invalidate(fp);
        assert!(cache.get(fp).is_none());
        assert_eq!(cache.stats().invalidations, 1);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn solver_cache_hit_is_bitwise_identical_and_skips_the_solve() {
        let gpu = GpuSpec::a100_pcie();
        let pipe = build_pipe(3, 5);
        let stages = stages_with_scales(&[1.0, 1.1, 0.9]);
        let ctx = PlanContext::from_model_profiles(&pipe, &gpu, &stages).unwrap();
        let opts = default_opts();
        let cache = PlanCache::new();

        let cold_solver = FrontierSolver::new(&pipe);
        let (cold, built0, fp0) = cold_solver
            .characterize_cached(&pipe, &gpu, &ctx.profiles, &opts, &cache)
            .unwrap();
        assert!(built0.is_some(), "empty cache cannot hit");

        // A *different* job (fresh solver — job identity lives in the
        // solver/server, never in the fingerprint) hits the shared entry.
        let warm_solver = FrontierSolver::new(&pipe);
        let (warm, built1, fp1) = warm_solver
            .characterize_cached(&pipe, &gpu, &ctx.profiles, &opts, &cache)
            .unwrap();
        assert!(built1.is_none(), "identical structure must hit");
        assert_eq!(fp0, fp1);
        assert!(
            Arc::ptr_eq(&cold, &warm),
            "a hit must share the solving job's frontier allocation, not copy it"
        );
        assert_frontiers_bit_identical(&cold, &warm);
        let ws = warm_solver.stats();
        assert_eq!(ws.runs, 0, "a cache hit must not run the solver");
        assert_eq!((ws.cache_hits, ws.cache_misses), (1, 0));
        let cs = cold_solver.stats();
        assert_eq!(
            (cs.cache_hits, cs.cache_misses, cs.cache_inserts),
            (0, 1, 1)
        );

        // And the cached frontier is byte-identical to a fresh plan from
        // the Perseus planner itself.
        let fresh = Perseus::new(opts.clone()).plan(&ctx).unwrap();
        assert_eq!(
            cache.get(fp0).unwrap().to_bytes(),
            fresh.as_frontier().unwrap().to_bytes()
        );
    }

    /// A solver that only answers plan-cache hits never builds its
    /// edge-centric DAG. Its first solve builds it, and later solves,
    /// concurrent ones included, all read that one build.
    #[test]
    fn a_solver_builds_its_cut_dag_on_the_first_solve_only() {
        let gpu = GpuSpec::a100_pcie();
        let pipe = build_pipe(3, 5);
        let stages = stages_with_scales(&[1.0, 1.1, 0.9]);
        let ctx = PlanContext::from_model_profiles(&pipe, &gpu, &stages).unwrap();
        let opts = default_opts();
        let cache = PlanCache::new();
        FrontierSolver::new(&pipe)
            .characterize_cached(&pipe, &gpu, &ctx.profiles, &opts, &cache)
            .unwrap();

        let solver = FrontierSolver::new(&pipe);
        for _ in 0..2 {
            let (_, built, _) = solver
                .characterize_cached(&pipe, &gpu, &ctx.profiles, &opts, &cache)
                .unwrap();
            assert!(built.is_none(), "identical structure must hit");
        }
        assert_eq!(solver.stats().cache_hits, 2);
        assert!(
            solver.built_cut().is_none(),
            "a cache hit built the edge-centric DAG"
        );

        // Two characterizations released together: both read the one
        // build, and so does a third.
        let start = std::sync::Barrier::new(2);
        let seen: Vec<usize> = std::thread::scope(|s| {
            let runs: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        solver.characterize(&ctx, &opts).unwrap();
                        solver.built_cut().expect("a solve builds the DAG") as *const _ as usize
                    })
                })
                .collect();
            runs.into_iter().map(|r| r.join().unwrap()).collect()
        });
        solver.characterize(&ctx, &opts).unwrap();
        let last = solver.built_cut().unwrap() as *const _ as usize;
        assert_eq!(seen, vec![last; 2], "the edge-centric DAG was rebuilt");
        assert_eq!(solver.stats().runs, 3);
    }

    /// The plan key of `model` on A100 at `stages` × `microbatches`: the
    /// model partitioned for minimum imbalance, 1F1B, model profiles.
    fn fleet_key_bytes(
        model: &perseus_models::ModelSpec,
        stages: usize,
        microbatches: usize,
    ) -> Vec<u8> {
        let gpu = GpuSpec::a100_pcie();
        let partition =
            perseus_models::min_imbalance_partition(&model.fwd_latency_weights(&gpu), stages)
                .unwrap();
        let workloads = model.stage_workloads(&partition, &gpu).unwrap();
        let pipe = build_pipe(stages, microbatches);
        let profiles = crate::model_profiles(&pipe, &gpu, &workloads);
        crate::fingerprint::plan_key_bytes("perseus", &pipe, &gpu, &profiles, &default_opts())
    }

    /// Flipping any one bit of a real plan key changes the key: each
    /// round of the word-wise hash is a bijection of its state.
    #[test]
    fn every_bit_of_a_plan_key_moves_the_key() {
        let mut bytes = fleet_key_bytes(&perseus_models::zoo::gpt3_xl(4), 4, 8);
        assert!(
            bytes.len() % 8 != 0,
            "the key should exercise the byte tail"
        );
        let key = crate::content_hash(&bytes);
        for bit in 0..bytes.len() * 8 {
            bytes[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crate::content_hash(&bytes), key, "flipping bit {bit}");
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        // A zero byte appended to the tail, or a zero word appended to the
        // words, lengthens the input; the folded-in length tells them apart.
        for pad in [1, 8] {
            let mut longer = bytes.clone();
            longer.resize(bytes.len() + pad, 0);
            assert_ne!(crate::content_hash(&longer), key, "{pad} zero bytes");
        }
    }

    /// The 27 structures of a fleet of GPT-3 1.3B, Bloom 3B and BERT 1.3B
    /// on A100 at 2/4/8 stages × 4/8/16 microbatches key apart.
    #[test]
    fn fleet_structures_have_distinct_keys() {
        use perseus_models::zoo;
        let mut keys = std::collections::HashSet::new();
        for model in [zoo::gpt3_xl(4), zoo::bloom_3b(4), zoo::bert_huge(8)] {
            for stages in [2, 4, 8] {
                for microbatches in [4, 8, 16] {
                    let bytes = fleet_key_bytes(&model, stages, microbatches);
                    keys.insert(crate::content_hash(&bytes));
                }
            }
        }
        assert_eq!(keys.len(), 27);
    }

    /// A fresh path `<tmp>/<unique dir>/plan-cache.wal` and its directory.
    fn temp_wal(tag: &str) -> (std::path::PathBuf, std::path::PathBuf) {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "perseus-core-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let wal = dir.join("plan-cache.wal");
        (dir, wal)
    }

    #[test]
    fn durable_cache_reopens_with_entries_intact() {
        let (dir, wal) = temp_wal("cache");
        let gpu = GpuSpec::a100_pcie();
        let pipe = build_pipe(2, 4);
        let frontier = Arc::new(frontier_for(&gpu, &pipe, &[1.0, 1.2], Some(5e-3)));
        let fps = [
            PlanFingerprint(10),
            PlanFingerprint(20),
            PlanFingerprint(30),
        ];
        {
            let cache = PlanCache::open(&wal).unwrap();
            for fp in fps {
                cache.insert(fp, Arc::clone(&frontier));
            }
            cache.invalidate(fps[2]);
            // Dropped without any shutdown handshake — a crash.
        }
        let cache = PlanCache::open(&wal).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.recovered_entries, 2, "insert - invalidate survives");
        assert_eq!(cache.fingerprints(), vec![fps[0], fps[1]]);
        assert_eq!(cache.get(fps[0]).unwrap().to_bytes(), frontier.to_bytes());
        assert!(cache.get(fps[2]).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Seeded damage to a `plan-cache.wal` holding inserts and
    /// invalidations: bit flips, truncation at every record boundary and
    /// inside every record, and an appended record of the epoch-stamped
    /// format the log used to have. Opening never panics: it recovers
    /// exactly the net entries of the longest intact prefix of the
    /// records, each frontier bit-identical to the one inserted, or — for
    /// a damaged file header only — fails with a typed error.
    #[test]
    fn damaged_cache_log_recovers_a_prefix_without_panicking() {
        use std::collections::BTreeMap;

        use perseus_store::{ByteWriter, Journal};

        /// SplitMix64: picks the damaged bytes without an RNG dependency.
        struct SplitMix64(u64);
        impl SplitMix64 {
            fn below(&mut self, n: usize) -> usize {
                self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = self.0;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                ((z ^ (z >> 31)) % n.max(1) as u64) as usize
            }
        }

        let (dir, wal) = temp_wal("cache-damage");
        let gpu = GpuSpec::a100_pcie();
        let pipe = build_pipe(2, 4);
        let frontiers = [
            Arc::new(frontier_for(&gpu, &pipe, &[1.0, 1.2], Some(5e-3))),
            Arc::new(frontier_for(&gpu, &pipe, &[1.3, 0.8], Some(5e-3))),
        ];
        // One journal record each: `Some(i)` inserts frontier i, `None`
        // invalidates.
        let history: [(u128, Option<usize>); 6] = [
            (1, Some(0)),
            (2, Some(1)),
            (1, None),
            (3, Some(0)),
            (1, Some(0)),
            (2, None),
        ];
        // The net entries after each prefix of the records, as
        // (fingerprint, frontier bytes) sorted by fingerprint.
        let mut net = BTreeMap::new();
        let mut prefixes = vec![Vec::new()];
        {
            let cache = PlanCache::open(&wal).unwrap();
            for (fp, op) in history {
                let fp = PlanFingerprint(fp);
                match op {
                    Some(i) => {
                        cache.insert(fp, Arc::clone(&frontiers[i]));
                        net.insert(fp, frontiers[i].to_bytes());
                    }
                    None => {
                        cache.invalidate(fp);
                        net.remove(&fp);
                    }
                }
                prefixes.push(net.clone().into_iter().collect::<Vec<_>>());
            }
        }
        let pristine = std::fs::read(&wal).unwrap();
        // Record frames start after the 8-byte header; each is
        // `len:u32le crc:u32le body[len]`.
        let mut bounds = vec![8usize];
        while *bounds.last().unwrap() < pristine.len() {
            let at = *bounds.last().unwrap();
            let len = u32::from_le_bytes(pristine[at..at + 4].try_into().unwrap()) as usize;
            bounds.push(at + 8 + len);
        }
        assert_eq!(bounds.len(), history.len() + 1, "one record per mutation");

        // Opens `bytes` as the log; returns how many records' worth of
        // entries came back, or `None` on a typed open error.
        let recovered_prefix = |bytes: &[u8], what: &str| -> Option<usize> {
            std::fs::write(&wal, bytes).unwrap();
            let cache = match PlanCache::open(&wal) {
                Ok(cache) => cache,
                Err(StoreError::Corrupt { .. }) => return None,
                Err(e) => panic!("{what}: untyped failure {e}"),
            };
            let got: Vec<_> = cache
                .fingerprints()
                .into_iter()
                .map(|fp| (fp, cache.get(fp).unwrap().to_bytes()))
                .collect();
            assert_eq!(cache.stats().recovered_entries, got.len() as u64);
            let k = prefixes.iter().position(|p| *p == got);
            Some(k.unwrap_or_else(|| panic!("{what}: recovered entries match no prefix")))
        };
        for (i, p) in prefixes.iter().enumerate() {
            assert!(
                !prefixes[..i].contains(p),
                "prefixes must be distinguishable"
            );
        }

        let all = history.len();
        assert_eq!(recovered_prefix(&pristine, "pristine"), Some(all));
        for (k, &end) in bounds.iter().enumerate() {
            let what = format!("truncated after {k} records");
            assert_eq!(recovered_prefix(&pristine[..end], &what), Some(k));
        }
        let mut rng = SplitMix64(0x0C4C_4E00);
        for k in 0..all {
            let cut = bounds[k] + 1 + rng.below(bounds[k + 1] - bounds[k] - 1);
            let what = format!("truncated inside record {k} at byte {cut}");
            assert_eq!(recovered_prefix(&pristine[..cut], &what), Some(k));
        }
        for round in 0..64 {
            let at = rng.below(pristine.len());
            let mut bytes = pristine.clone();
            bytes[at] ^= 1 << rng.below(8);
            let what = format!("round {round}: bit flip at byte {at}");
            // CRC32 catches every single-bit error, so the damaged record
            // and everything after it are dropped; a damaged header is
            // refused outright.
            let intact = bounds.iter().rposition(|&start| start <= at);
            assert_eq!(recovered_prefix(&bytes, &what), intact, "{what}");
        }
        for at in [0, 4] {
            let mut bytes = pristine.clone();
            bytes[at] ^= 1;
            let what = format!("header byte {at} flipped");
            assert_eq!(recovered_prefix(&bytes, &what), None, "{what}");
        }
        // Records of the epoch-stamped format: a tag-0 insert (fingerprint,
        // epoch, then the frontier under the plan-output tag 1), a tag-2
        // epoch advance and a tag-3 sweep. Then a tag-4 insert, keyed by
        // the byte-at-a-time hash, which no lookup can produce any more.
        // CRC-valid frames, so only the payload decode can refuse one;
        // replay stops there even when current records follow it.
        let mut old_insert = ByteWriter::new();
        old_insert.put_u8(0);
        PlanFingerprint(9).encode(&mut old_insert);
        old_insert.put_u64(1);
        old_insert.put_u8(1);
        frontiers[0].encode(&mut old_insert);
        let mut bytewise_insert = ByteWriter::new();
        bytewise_insert.put_u8(4);
        PlanFingerprint(9).encode(&mut bytewise_insert);
        frontiers[0].encode(&mut bytewise_insert);
        let old_records = [
            old_insert.into_bytes(),
            vec![2, 2, 0, 0, 0, 0, 0, 0, 0],
            vec![3, 2, 0, 0, 0, 0, 0, 0, 0],
            bytewise_insert.into_bytes(),
        ];
        for old in &old_records {
            for k in [all, 3] {
                std::fs::write(&wal, &pristine[..bounds[k]]).unwrap();
                let (mut journal, _) = Journal::open(&wal).unwrap();
                journal.append(old).unwrap();
                // Each body is `seq:u64le payload`.
                for i in k..all {
                    journal
                        .append(&pristine[bounds[i] + 16..bounds[i + 1]])
                        .unwrap();
                }
                drop(journal);
                let bytes = std::fs::read(&wal).unwrap();
                let what = format!("old-format tag-{} record after {k} records", old[0]);
                assert_eq!(recovered_prefix(&bytes, &what), Some(k), "{what}");
                // That open dropped the unreadable record from the log, so
                // an insert made now replays at the next open.
                PlanCache::open(&wal)
                    .unwrap()
                    .insert(PlanFingerprint(99), Arc::clone(&frontiers[1]));
                let mut want: Vec<_> = prefixes[k].iter().map(|(fp, _)| *fp).collect();
                want.push(PlanFingerprint(99));
                want.sort();
                assert_eq!(
                    PlanCache::open(&wal).unwrap().fingerprints(),
                    want,
                    "{what}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            // Equal (profiles, DAG, GPU, options) ⇒ equal fingerprint, no
            // matter how the profile database was assembled.
            #[test]
            fn fingerprint_is_insertion_order_invariant(
                n in 2usize..5,
                m in 2usize..7,
                scales in proptest::collection::vec(0.7f64..1.4, 2..5),
                seed in any::<u64>(),
            ) {
                prop_assume!(scales.len() >= n);
                let gpu = GpuSpec::a100_pcie();
                let pipe = build_pipe(n, m);
                let pairs = profile_pairs(&gpu, &scales[..n]);
                let opts = default_opts();
                let natural = db_in_order(&pairs, &(0..pairs.len()).collect::<Vec<_>>());
                let permuted = db_in_order(&pairs, &shuffled(pairs.len(), seed));
                prop_assert_eq!(
                    plan_fingerprint("perseus", &pipe, &gpu, &natural, &opts),
                    plan_fingerprint("perseus", &pipe, &gpu, &permuted, &opts)
                );
            }

            // Any single perturbed profile value ⇒ a distinct fingerprint
            // (no silent cross-job plan sharing between jobs that differ).
            #[test]
            fn fingerprint_detects_single_profile_perturbation(
                n in 2usize..5,
                m in 2usize..7,
                scales in proptest::collection::vec(0.7f64..1.4, 2..5),
                which in any::<proptest::sample::Index>(),
                nudge in prop_oneof![Just(1.0001f64), Just(0.9999f64), Just(1.01f64)],
            ) {
                prop_assume!(scales.len() >= n);
                let gpu = GpuSpec::a100_pcie();
                let pipe = build_pipe(n, m);
                let opts = default_opts();
                let base: Vec<f64> = scales[..n].to_vec();
                let mut bent = base.clone();
                let i = which.index(n);
                bent[i] *= nudge;
                let order: Vec<usize> = (0..3 * n).collect();
                let a = db_in_order(&profile_pairs(&gpu, &base), &order);
                let b = db_in_order(&profile_pairs(&gpu, &bent), &order);
                prop_assert_ne!(
                    plan_fingerprint("perseus", &pipe, &gpu, &a, &opts),
                    plan_fingerprint("perseus", &pipe, &gpu, &b, &opts)
                );
            }

            // Any DAG edge-set change (schedule kind, depth, width) ⇒ a
            // distinct fingerprint under identical profiles.
            #[test]
            fn fingerprint_detects_dag_shape_changes(
                n in 2usize..5,
                m in 2usize..7,
                scales in proptest::collection::vec(0.7f64..1.4, 4..5),
            ) {
                let gpu = GpuSpec::a100_pcie();
                let opts = default_opts();
                let pairs = profile_pairs(&gpu, &scales[..n]);
                let db = db_in_order(&pairs, &(0..pairs.len()).collect::<Vec<_>>());
                let base = build_pipe(n, m);
                let fp = |p: &PipelineDag| plan_fingerprint("perseus", p, &gpu, &db, &opts);
                prop_assert_ne!(fp(&base), fp(&build_pipe(n, m + 1)));
                prop_assert_ne!(fp(&base), fp(&build_pipe(n + 1, m)));
                let gpipe = PipelineBuilder::new(ScheduleKind::GPipe, n, m).build().unwrap();
                prop_assert_ne!(fp(&base), fp(&gpipe));
            }
        }
    }
}

mod sleep_tests {
    use super::*;
    use crate::ledger::attribute_schedule_with_sleep;
    use crate::planner::{FrontierPlan, Perseus, Planner};
    use crate::sleep::{KareusPlanner, SleepPlan};
    use perseus_gpu::{PowerState, PowerStateModel};

    fn default_opts() -> FrontierOptions {
        FrontierOptions {
            tau_s: Some(2e-3),
            ..FrontierOptions::default()
        }
    }

    fn kareus_output(
        ctx: &PlanContext<'_>,
        power: PowerStateModel,
    ) -> (ParetoFrontier, Vec<SleepPlan>) {
        let planner = KareusPlanner::new(default_opts(), power);
        assert_eq!(planner.name(), "kareus");
        let plan = planner.plan(ctx).unwrap();
        let plan = plan.as_frontier_plan().expect("kareus plans a frontier");
        let sleep = plan.sleep().expect("kareus carries sleep plans");
        ((**plan.frontier()).clone(), sleep.to_vec())
    }

    #[test]
    fn kareus_dominates_perseus_at_every_deadline() {
        let gpu = GpuSpec::a100_pcie();
        // A deep, imbalanced pipeline with few microbatches: long bubbles.
        let pipe = build_pipe(4, 5);
        let stages = stages_with_scales(&[1.0, 1.3, 0.8, 1.2]);
        let ctx = PlanContext::from_model_profiles(&pipe, &gpu, &stages).unwrap();
        let power = PowerStateModel::default_for(&gpu);
        let (frontier, sleep) = kareus_output(&ctx, power);
        let perseus = Perseus::new(default_opts()).plan(&ctx).unwrap();
        assert_frontiers_bit_identical(&frontier, perseus.as_frontier().unwrap());

        let mut any_strict = false;
        for (point, plan) in frontier.points().iter().zip(&sleep) {
            let t_prime = Some(point.planned_time_s);
            let base = point.schedule.energy_report(&ctx, t_prime).total_j();
            let joint = point
                .schedule
                .energy_report_with_sleep(&ctx, t_prime, Some(plan))
                .total_j();
            assert!(
                joint <= base + 1e-9,
                "kareus used more energy than perseus at T'={t_prime:?}"
            );
            if plan.window_count() > 0 {
                assert!(joint < base, "windows inserted but nothing saved");
                any_strict = true;
            }
        }
        assert!(
            any_strict,
            "a bubbly pipeline must yield at least one profitable window"
        );
    }

    #[test]
    fn sleep_windows_fit_inside_the_iteration() {
        let gpu = GpuSpec::a100_pcie();
        let pipe = build_pipe(4, 6);
        let stages = stages_with_scales(&[1.0, 1.1, 0.95, 1.2]);
        let ctx = PlanContext::from_model_profiles(&pipe, &gpu, &stages).unwrap();
        let (frontier, sleep) = kareus_output(&ctx, PowerStateModel::default_for(&gpu));
        assert_eq!(sleep.len(), frontier.len());
        for (point, plan) in frontier.points().iter().zip(&sleep) {
            for stage in 0..ctx.pipe.n_stages {
                let mut prev_end = 0.0f64;
                for w in plan.stage_windows(stage) {
                    assert!(w.start_s >= prev_end - 1e-12, "windows overlap");
                    assert!(w.end_s <= point.schedule.time_s + 1e-9);
                    // Profitable by construction: the span amortizes the
                    // transition.
                    assert!(w.span_s() > w.entry_s + w.exit_s);
                    assert!(w.saved_j(gpu.blocking_w) > 0.0);
                    prev_end = w.end_s;
                }
            }
        }
    }

    #[test]
    fn zero_latency_zero_power_state_reclaims_every_bubble() {
        let gpu = GpuSpec::a100_pcie();
        let pipe = build_pipe(4, 4);
        let stages = stages_with_scales(&[1.0, 1.25, 0.9, 1.1]);
        let ctx = PlanContext::from_model_profiles(&pipe, &gpu, &stages).unwrap();
        let power = PowerStateModel {
            states: vec![PowerState {
                name: "free-sleep",
                power_w: 0.0,
                entry_s: 0.0,
                exit_s: 0.0,
            }],
        };
        let (frontier, sleep) = kareus_output(&ctx, power);
        for (point, plan) in frontier.points().iter().zip(&sleep) {
            // Every positive-length bubble is reclaimed: the idle lane of
            // the sleep-aware attribution collapses to (float) zero.
            let attr = attribute_schedule_with_sleep(&ctx, &point.schedule, None, Some(plan));
            let idle = attr.kind(EnergyKind::Idle).useful_j;
            let total = attr.total.total_j();
            assert!(
                idle.abs() <= 1e-9 * total.max(1.0),
                "idle lane not fully reclaimed: {idle} J of {total} J"
            );
            // A zero-power state draws nothing, so the static lane is
            // free.
            assert_eq!(attr.kind(EnergyKind::StaticSleep).useful_j, 0.0);
        }
    }

    #[test]
    fn unamortizable_latency_degenerates_to_perseus() {
        let gpu = GpuSpec::a100_pcie();
        let pipe = build_pipe(3, 6);
        let stages = stages_with_scales(&[1.0, 1.2, 0.9]);
        let ctx = PlanContext::from_model_profiles(&pipe, &gpu, &stages).unwrap();
        // Entry alone outlasts any bubble a sub-second iteration can hold.
        let power = PowerStateModel {
            states: vec![PowerState {
                name: "glacial",
                power_w: 1.0,
                entry_s: 1e6,
                exit_s: 1e6,
            }],
        };
        let joint = KareusPlanner::new(default_opts(), power)
            .plan(&ctx)
            .unwrap();
        let perseus = Perseus::new(default_opts()).plan(&ctx).unwrap();
        assert_frontiers_bit_identical(
            joint.as_frontier().unwrap(),
            perseus.as_frontier().unwrap(),
        );
        let sleep = joint.as_frontier_plan().and_then(FrontierPlan::sleep);
        assert!(sleep.unwrap().iter().all(SleepPlan::is_empty));
        // Bit-identical selection and energy at every frontier deadline.
        for point in perseus.as_frontier().unwrap().points() {
            let t = Some(point.planned_time_s);
            let a = joint.select(t);
            let b = perseus.select(t);
            assert_eq!(a.time_s.to_bits(), b.time_s.to_bits());
            let ja = a
                .energy_report_with_sleep(&ctx, t, joint.sleep_plan(t))
                .total_j();
            let jb = b.energy_report(&ctx, t).total_j();
            assert_eq!(ja.to_bits(), jb.to_bits());
        }
    }

    #[test]
    fn kareus_rejects_invalid_power_states() {
        let gpu = GpuSpec::a100_pcie();
        let pipe = build_pipe(2, 4);
        let stages = stages_with_scales(&[1.0, 1.1]);
        let ctx = PlanContext::from_model_profiles(&pipe, &gpu, &stages).unwrap();
        let power = PowerStateModel {
            states: vec![PowerState {
                name: "hot",
                power_w: gpu.blocking_w * 2.0,
                entry_s: 0.0,
                exit_s: 0.0,
            }],
        };
        let planner = KareusPlanner::new(default_opts(), power);
        assert!(matches!(
            planner.plan(&ctx),
            Err(crate::context::CoreError::PowerState(_))
        ));
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(10))]

            // The conservation identity survives the sleep overlay: the
            // sleep-aware attribution total equals the sleep-aware Eq. 3
            // total to 1e-9 relative, and both drop below the
            // frequency-only totals by exactly the plan's savings.
            #[test]
            fn sleep_attribution_conserves_energy(
                n in 2usize..5,
                m in 2usize..7,
                scales in proptest::collection::vec(0.7f64..1.4, 4..5),
                t_factor in -0.5f64..2.5,
            ) {
                let gpu = GpuSpec::a100_pcie();
                let pipe = build_pipe(n, m);
                let stages = stages_with_scales(&scales[..n]);
                let ctx =
                    PlanContext::from_model_profiles(&pipe, &gpu, &stages).unwrap();
                let planner = KareusPlanner::new(
                    default_opts(),
                    PowerStateModel::default_for(&gpu),
                );
                let plan = planner.plan(&ctx).unwrap();
                let t_prime = if t_factor < -0.25 {
                    None
                } else {
                    Some(plan.select(None).time_s * t_factor)
                };
                let sched = plan.select(t_prime);
                let sleep = plan.sleep_plan(t_prime);
                prop_assert!(sleep.is_some(), "kareus always carries a plan");

                let attr =
                    attribute_schedule_with_sleep(&ctx, sched, t_prime, sleep);
                let report = sched.energy_report_with_sleep(&ctx, t_prime, sleep);
                let total = report.total_j();
                prop_assert!(
                    (attr.total.total_j() - total).abs() <= 1e-9 * total.max(1.0),
                    "sleep conservation violated: attributed {} vs Eq.3 {}",
                    attr.total.total_j(),
                    total
                );
                let stage_sum: f64 =
                    attr.per_stage.iter().map(|b| b.total_j()).sum();
                let kind_sum: f64 =
                    attr.per_kind.iter().map(|b| b.total_j()).sum();
                prop_assert!((stage_sum - total).abs() <= 1e-9 * total.max(1.0));
                prop_assert!((kind_sum - total).abs() <= 1e-9 * total.max(1.0));

                // Differential claim at this deadline: joint never burns
                // more than frequency-only, and the gap is exactly the
                // plan's accounted savings.
                let base = sched.energy_report(&ctx, t_prime).total_j();
                let saved = sleep.unwrap().saved_j(gpu.blocking_w);
                prop_assert!(saved >= 0.0);
                prop_assert!(total <= base + 1e-9 * base.max(1.0));
                prop_assert!(
                    ((base - total) - saved).abs() <= 1e-9 * base.max(1.0)
                );
            }
        }
    }
}
