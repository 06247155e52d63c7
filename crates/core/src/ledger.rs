//! Energy-bloat attribution (§2's taxonomy made measurable).
//!
//! Eq. 3 prices an iteration as one scalar; this module explains it.
//! Every joule of a realized [`EnergySchedule`] is attributed to exactly
//! one of three buckets:
//!
//! * **useful** — what the iteration would have cost had every
//!   instruction run at the frequency that exactly fills its schedule
//!   gap (the slack-filling alternative), plus fixed-time operations and
//!   the pipeline bubble not even a perfect schedule can reclaim;
//! * **intrinsic bloat** — the excess of the actual instruction over its
//!   slack-filling alternative *inside one pipeline*: energy burned
//!   running faster than the schedule needed, plus the blocking power
//!   drawn over the slack the faster run left behind;
//! * **extrinsic bloat** — the blocking energy of all `N` stage GPUs
//!   while the pipeline waits for the straggler (`T' − T`).
//!
//! The decomposition is conservative by construction:
//! `useful + intrinsic + extrinsic == total` (Eq. 3) to floating-point
//! accuracy — each component is computed independently, never as a
//! residual, and a proptest pins the identity down across random
//! schedules, frequency plans, caps, and chaos seeds.

use perseus_dag::NodeId;
use perseus_pipeline::{node_schedule_gaps, CompKind, PipeNode};

use crate::context::PlanContext;
use crate::frontier::EnergySchedule;
use crate::sleep::SleepPlan;

/// Joules split into the paper's three destinies.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Energy the work itself needed (slack-filling frequencies, fixed
    /// ops, irreducible pipeline bubble).
    pub useful_j: f64,
    /// Intrinsic bloat: actual-vs-slack-filling excess inside one
    /// pipeline.
    pub intrinsic_j: f64,
    /// Extrinsic bloat: blocking energy of the gradient-sync wait to
    /// `T_opt`.
    pub extrinsic_j: f64,
}

impl EnergyBreakdown {
    /// Total energy, joules — equals Eq. 3's total for the same schedule.
    pub fn total_j(&self) -> f64 {
        self.useful_j + self.intrinsic_j + self.extrinsic_j
    }

    /// Bloat (intrinsic + extrinsic) as a fraction of the total, in
    /// `[0, 1]`; zero for an empty breakdown.
    pub fn bloat_share(&self) -> f64 {
        let total = self.total_j();
        if total > 0.0 {
            (self.intrinsic_j + self.extrinsic_j) / total
        } else {
            0.0
        }
    }

    /// Extrinsic bloat as a fraction of all bloat, in `[0, 1]`; zero when
    /// there is no bloat at all.
    pub fn extrinsic_share_of_bloat(&self) -> f64 {
        let bloat = self.intrinsic_j + self.extrinsic_j;
        if bloat > 0.0 {
            self.extrinsic_j / bloat
        } else {
            0.0
        }
    }

    /// Adds `other` into this breakdown, component-wise.
    pub fn accumulate(&mut self, other: EnergyBreakdown) {
        self.useful_j += other.useful_j;
        self.intrinsic_j += other.intrinsic_j;
        self.extrinsic_j += other.extrinsic_j;
    }

    /// This breakdown scaled by `factor` (replica/tensor-parallel
    /// multipliers).
    pub fn scaled(&self, factor: f64) -> EnergyBreakdown {
        EnergyBreakdown {
            useful_j: self.useful_j * factor,
            intrinsic_j: self.intrinsic_j * factor,
            extrinsic_j: self.extrinsic_j * factor,
        }
    }
}

/// What an attributed joule was spent *on* — the per-instruction-kind
/// axis of the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnergyKind {
    /// Forward-pass computations.
    Forward,
    /// Backward-pass computations.
    Backward,
    /// Activation recomputations.
    Recompute,
    /// Fixed-time operations (data loading, P2P).
    Fixed,
    /// In-pipeline blocking the slack-filling schedule cannot reclaim
    /// (the bubble), at `P_blocking`.
    Idle,
    /// Blocking while every stage waits for the straggler's gradient
    /// sync.
    SyncWait,
    /// Bubble time spent parked in a GPU sleep state (transition drawn at
    /// `P_blocking`, residual draw while parked) — the static-energy lane
    /// a joint planner reclaims from `Idle`.
    StaticSleep,
}

impl EnergyKind {
    /// Every kind, in ledger column order.
    pub const ALL: [EnergyKind; 7] = [
        EnergyKind::Forward,
        EnergyKind::Backward,
        EnergyKind::Recompute,
        EnergyKind::Fixed,
        EnergyKind::Idle,
        EnergyKind::SyncWait,
        EnergyKind::StaticSleep,
    ];

    /// Dense index into a per-kind array (the order of
    /// [`EnergyKind::ALL`]).
    pub fn index(self) -> usize {
        match self {
            EnergyKind::Forward => 0,
            EnergyKind::Backward => 1,
            EnergyKind::Recompute => 2,
            EnergyKind::Fixed => 3,
            EnergyKind::Idle => 4,
            EnergyKind::SyncWait => 5,
            EnergyKind::StaticSleep => 6,
        }
    }

    /// Stable display label (used by reports and the flight-recorder
    /// dump).
    pub fn label(self) -> &'static str {
        match self {
            EnergyKind::Forward => "forward",
            EnergyKind::Backward => "backward",
            EnergyKind::Recompute => "recompute",
            EnergyKind::Fixed => "fixed",
            EnergyKind::Idle => "idle",
            EnergyKind::SyncWait => "sync_wait",
            EnergyKind::StaticSleep => "static_sleep",
        }
    }

    fn of_comp(kind: CompKind) -> EnergyKind {
        match kind {
            CompKind::Forward => EnergyKind::Forward,
            CompKind::Backward => EnergyKind::Backward,
            CompKind::Recompute => EnergyKind::Recompute,
        }
    }
}

/// The full attribution of one pipeline iteration: the Eq. 3 total split
/// three ways, along the per-stage and per-instruction-kind axes.
///
/// Every aggregation sums back to `total`:
/// `Σ per_stage == Σ per_kind == total`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleAttribution {
    /// The pipeline's own makespan `T`, seconds.
    pub iter_time_s: f64,
    /// End of the iteration including the straggler wait: `max(T, T')`.
    pub sync_time_s: f64,
    /// Whole-iteration breakdown.
    pub total: EnergyBreakdown,
    /// Breakdown per physical stage (length = `n_stages`).
    pub per_stage: Vec<EnergyBreakdown>,
    /// Breakdown per [`EnergyKind`], indexed by [`EnergyKind::index`].
    pub per_kind: [EnergyBreakdown; 7],
}

impl ScheduleAttribution {
    /// The breakdown of one kind.
    pub fn kind(&self, kind: EnergyKind) -> EnergyBreakdown {
        self.per_kind[kind.index()]
    }
}

/// Attributes every joule of a realized `schedule` (Eq. 3 at straggler
/// time `t_prime`) to useful work, intrinsic bloat, or extrinsic bloat.
///
/// The slack-filling alternative of each computation is priced with the
/// same §4.3 conversion the planner deploys: the slowest measured
/// frequency whose latency fits the instruction's schedule gap (bounded
/// by the profile's min-energy duration — slowing past `t_max` would
/// *increase* energy and is never "useful"). Fixed-time operations are
/// useful in full; the bubble left after slack-filling is useful
/// blocking; everything the actual instruction burned beyond its
/// alternative is intrinsic bloat; the `T' − T` wait is extrinsic.
///
/// Pure observation: nothing here feeds back into planning, and the
/// returned components sum to `schedule.energy_report(ctx, t_prime)
/// .total_j()` exactly (modulo float rounding).
pub fn attribute_schedule(
    ctx: &PlanContext<'_>,
    schedule: &EnergySchedule,
    t_prime: Option<f64>,
) -> ScheduleAttribution {
    attribute_schedule_with_sleep(ctx, schedule, t_prime, None)
}

/// [`attribute_schedule`] with an optional per-stage sleep plan overlaid.
///
/// Sleep windows carve energy out of the `Idle` lane: a window's span is
/// priced at the sleep state's actual draw (blocking power during the
/// entry/exit transitions, the residual state power while parked) and
/// booked under [`EnergyKind::StaticSleep`] as useful energy — a GPU asleep
/// in a bubble is doing exactly what the joint plan asked of it. The
/// remaining bubble stays in `Idle` at `P_blocking`. Windows are computed
/// by the planner against the same slack-filled timeline used here, so the
/// per-stage window spans never exceed the idle pool and conservation
/// stays exact: the attribution total drops by precisely the plan's
/// [`SleepPlan::saved_j`].
pub fn attribute_schedule_with_sleep(
    ctx: &PlanContext<'_>,
    schedule: &EnergySchedule,
    t_prime: Option<f64>,
    sleep: Option<&SleepPlan>,
) -> ScheduleAttribution {
    AttributionSums::new(ctx, schedule, sleep).at(t_prime)
}

/// The `T'`-independent half of [`attribute_schedule_with_sleep`]: every
/// lane but the gradient-sync wait, per stage and per kind. Built by one
/// walk of the schedule; [`AttributionSums::at`] then adds the `SyncWait`
/// lane for any straggler time in O(`n_stages`).
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionSums {
    makespan_s: f64,
    p_blocking_w: f64,
    /// Useful and intrinsic joules per stage; extrinsic is still zero.
    per_stage: Vec<EnergyBreakdown>,
    /// Every lane per kind, `SyncWait` still zero.
    per_kind: [EnergyBreakdown; 7],
}

impl AttributionSums {
    /// Walks `schedule` (with `sleep`'s windows overlaid, if any): the
    /// slack-fill pricing of every instruction, then the bubble of each
    /// stage split into sleep windows and `Idle`.
    pub fn new(
        ctx: &PlanContext<'_>,
        schedule: &EnergySchedule,
        sleep: Option<&SleepPlan>,
    ) -> AttributionSums {
        let dag = &ctx.pipe.dag;
        let (_, gaps, makespan) =
            node_schedule_gaps(dag, |id, _| schedule.realized_dur[id.index()]);
        let p_blocking = ctx.gpu.blocking_w;
        let n_stages = ctx.pipe.n_stages;

        let mut per_stage = vec![EnergyBreakdown::default(); n_stages];
        let mut per_kind = [EnergyBreakdown::default(); 7];
        // Per-stage occupancy of the slack-filling schedule: realized busy
        // time plus the slack each alternative additionally fills. Stages
        // execute serially and gaps never cross the next same-stage start,
        // so this stays within the makespan.
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
                    let k = EnergyKind::of_comp(c.kind).index();
                    per_kind[k].useful_j += useful;
                    per_kind[k].intrinsic_j += intrinsic;
                }
                PipeNode::Fixed { stage, .. } => {
                    // Fixed ops have exactly one frequency choice: useful
                    // in full, no alternative to compare against.
                    busy_fill[*stage] += schedule.realized_dur[id.index()];
                    let e = schedule.realized_energy[id.index()];
                    per_stage[*stage].useful_j += e;
                    per_kind[EnergyKind::Fixed.index()].useful_j += e;
                }
                _ => {}
            }
        }

        // The bubble: in-pipeline blocking that survives even
        // slack-filling. Sleep windows replace their slice of it with the
        // state's actual draw; the subtraction is left unclamped so the
        // lane totals match the sleep-aware energy report bit-for-bit.
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
        AttributionSums {
            makespan_s: makespan,
            p_blocking_w: p_blocking,
            per_stage,
            per_kind,
        }
    }

    /// The attribution at straggler iteration time `t_prime` (`None` = no
    /// straggler): these lanes plus the gradient-sync wait, in which all
    /// stages block until the straggler finishes.
    pub fn at(&self, t_prime: Option<f64>) -> ScheduleAttribution {
        let makespan = self.makespan_s;
        let sync = t_prime.map_or(makespan, |t| t.max(makespan));
        let mut per_stage = self.per_stage.clone();
        let mut per_kind = self.per_kind;
        let wait = self.p_blocking_w * (sync - makespan).max(0.0);
        for stage in per_stage.iter_mut() {
            stage.extrinsic_j += wait;
        }
        per_kind[EnergyKind::SyncWait.index()].extrinsic_j += wait * per_stage.len() as f64;

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
}

/// The slack-filling alternative of computation `id` in a realized
/// `schedule` whose schedule gaps are `gaps`: `(duration, energy)` of the
/// slowest profiled point that fits the gap without slowing past the
/// min-energy duration, or the realized point when that is already slower
/// (under a frequency cap there is nothing left to fill). The one fill
/// rule the ledger prices intrinsic bloat against and the Kareus sleep
/// pass finds bubbles in; the two must agree for the sleep-aware
/// conservation identity to hold to 1e-9.
pub(crate) fn slack_fill(
    ctx: &PlanContext<'_>,
    schedule: &EnergySchedule,
    gaps: &[f64],
    id: NodeId,
) -> (f64, f64) {
    let d = schedule.realized_dur[id.index()];
    let info = ctx.info(id).expect("comp node has plan info");
    let profile = ctx.profile_of(id).expect("comp node has profile");
    let deadline = gaps[id.index()].max(d).min(info.t_max.max(d));
    match profile.slowest_within(deadline) {
        Ok(entry) if entry.time_s >= d => (entry.time_s, entry.energy_j),
        _ => (d, schedule.realized_energy[id.index()]),
    }
}

/// The accumulating ledger: [`ScheduleAttribution`]s recorded across
/// iterations and pipelines, weighted by how many GPUs each pipeline
/// replica spans (§4.4: operator-parallel replicas share one schedule).
///
/// Observe-only by contract: recording into a ledger never changes any
/// planner or emulator output — the golden-trace gates re-assert
/// table3/fig9 byte-identity with attribution enabled.
#[derive(Debug, Clone, PartialEq)]
pub struct BloatLedger {
    n_stages: usize,
    iterations: u64,
    total: EnergyBreakdown,
    per_stage: Vec<EnergyBreakdown>,
    per_kind: [EnergyBreakdown; 7],
}

impl BloatLedger {
    /// An empty ledger for pipelines of `n_stages` physical stages.
    pub fn new(n_stages: usize) -> BloatLedger {
        BloatLedger {
            n_stages,
            iterations: 0,
            total: EnergyBreakdown::default(),
            per_stage: vec![EnergyBreakdown::default(); n_stages],
            per_kind: [EnergyBreakdown::default(); 7],
        }
    }

    /// Accumulates one pipeline attribution, scaled by `weight` (replica
    /// count × tensor-parallel degree). Does not advance the iteration
    /// counter — several pipelines of one synchronized iteration record
    /// individually, then the caller calls
    /// [`BloatLedger::note_iteration`] once.
    ///
    /// # Panics
    ///
    /// Panics if `attr` describes a different stage count than the
    /// ledger.
    pub fn record(&mut self, attr: &ScheduleAttribution, weight: f64) {
        assert_eq!(
            attr.per_stage.len(),
            self.n_stages,
            "attribution stage count does not match the ledger"
        );
        self.total.accumulate(attr.total.scaled(weight));
        for (acc, stage) in self.per_stage.iter_mut().zip(&attr.per_stage) {
            acc.accumulate(stage.scaled(weight));
        }
        for (acc, kind) in self.per_kind.iter_mut().zip(&attr.per_kind) {
            acc.accumulate(kind.scaled(weight));
        }
    }

    /// Marks one synchronized iteration as fully recorded.
    pub fn note_iteration(&mut self) {
        self.iterations += 1;
    }

    /// Stage count the ledger was built for.
    pub fn n_stages(&self) -> usize {
        self.n_stages
    }

    /// Synchronized iterations recorded so far.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Accumulated whole-cluster breakdown.
    pub fn total(&self) -> EnergyBreakdown {
        self.total
    }

    /// Accumulated breakdown per physical stage.
    pub fn per_stage(&self) -> &[EnergyBreakdown] {
        &self.per_stage
    }

    /// Accumulated breakdown of one kind.
    pub fn kind(&self, kind: EnergyKind) -> EnergyBreakdown {
        self.per_kind[kind.index()]
    }

    /// Mean per-iteration breakdown, or the zero breakdown before any
    /// iteration was noted.
    pub fn mean_per_iteration(&self) -> EnergyBreakdown {
        if self.iterations > 0 {
            self.total.scaled(1.0 / self.iterations as f64)
        } else {
            EnergyBreakdown::default()
        }
    }

    /// Merges another ledger of the same shape into this one.
    ///
    /// # Panics
    ///
    /// Panics if the stage counts differ.
    pub fn merge(&mut self, other: &BloatLedger) {
        assert_eq!(other.n_stages, self.n_stages, "ledger stage counts differ");
        self.iterations += other.iterations;
        self.total.accumulate(other.total);
        for (acc, stage) in self.per_stage.iter_mut().zip(&other.per_stage) {
            acc.accumulate(*stage);
        }
        for (acc, kind) in self.per_kind.iter_mut().zip(&other.per_kind) {
            acc.accumulate(*kind);
        }
    }
}
