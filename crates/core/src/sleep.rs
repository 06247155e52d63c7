//! Joint dynamic + static energy planning: the Kareus sleep-insertion
//! pass.
//!
//! Perseus shapes *dynamic* energy only — frequency planning cannot touch
//! the `P_blocking` watts a GPU burns while it sits in a pipeline bubble.
//! Kareus (the Chung/Chowdhury follow-up to the source paper) closes the
//! gap by *jointly* choosing frequencies and sleep intervals: starting
//! from the Perseus time–energy frontier, every bubble long enough to
//! amortize a [`PowerState`](perseus_gpu::PowerState)'s entry/exit latency
//! is filled with the most profitable sleep state.
//!
//! The decomposition keeps Perseus' key property: a [`SleepPlan`] is
//! derived from a frontier point's *schedule*, never from the straggler
//! deadline `T'`, so the joint plan stays `T'`-independent and cacheable.
//! The GPU never sleeps during the gradient-sync wait — that time is
//! extrinsic bloat owned by the straggler, and sleeping there would couple
//! the plan to `T'`.
//!
//! Bubbles are measured against the same *slack-filled* timeline the bloat
//! ledger attributes against ([`attribute_schedule`]): each instruction is
//! assumed to stretch to the slowest profiled point that still fits its
//! schedule gap. This guarantees the inserted windows never overlap work
//! the slack-filling alternative would do, so the ledger's `Idle` lane can
//! fund every window exactly and the 1e-9 conservation identity survives.
//!
//! [`attribute_schedule`]: crate::ledger::attribute_schedule

use std::sync::Arc;

use perseus_gpu::PowerStateModel;
use perseus_pipeline::{node_schedule_gaps, PipeNode};

use crate::context::{CoreError, PlanContext};
use crate::frontier::{characterize, EnergySchedule, FrontierOptions};
use crate::ledger::slack_fill;
use crate::planner::{FrontierPlan, PlanOutput, Planner};

/// One sleep interval on one stage's timeline: the GPU enters the state at
/// `start_s`, is fully awake again by `end_s`.
///
/// The entry and exit transitions are drawn at `P_blocking` (clocks are
/// ramping, nothing useful runs); only the parked middle draws the state's
/// residual power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SleepWindow {
    /// When the stage enters the sleep state, seconds from iteration
    /// start.
    pub start_s: f64,
    /// When the stage is awake again, seconds from iteration start.
    pub end_s: f64,
    /// Residual draw while parked, watts.
    pub state_power_w: f64,
    /// Entry latency, seconds.
    pub entry_s: f64,
    /// Exit latency, seconds.
    pub exit_s: f64,
}

impl SleepWindow {
    /// Total wall-clock span of the window.
    pub fn span_s(&self) -> f64 {
        self.end_s - self.start_s
    }

    /// Time actually parked in the state (span minus transitions).
    pub fn parked_s(&self) -> f64 {
        (self.span_s() - self.entry_s - self.exit_s).max(0.0)
    }

    /// Joules the window actually draws: blocking power during the
    /// transitions, residual state power while parked.
    pub fn actual_j(&self, p_blocking_w: f64) -> f64 {
        p_blocking_w * (self.span_s() - self.parked_s()) + self.state_power_w * self.parked_s()
    }

    /// Joules saved versus idling at `p_blocking_w` for the whole span.
    pub fn saved_j(&self, p_blocking_w: f64) -> f64 {
        p_blocking_w * self.span_s() - self.actual_j(p_blocking_w)
    }
}

/// The per-stage sleep schedule attached to one frontier point.
///
/// Windows are sorted by start time within each stage and never overlap
/// the slack-filled occupancy of that stage's instructions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SleepPlan {
    /// Sleep windows per physical stage (length = `n_stages`).
    pub per_stage: Vec<Vec<SleepWindow>>,
}

impl SleepPlan {
    /// An empty plan for `n_stages` stages: the GPU never sleeps.
    pub fn empty(n_stages: usize) -> SleepPlan {
        SleepPlan {
            per_stage: vec![Vec::new(); n_stages],
        }
    }

    /// The windows of one stage; empty for out-of-range stages.
    pub fn stage_windows(&self, stage: usize) -> &[SleepWindow] {
        self.per_stage.get(stage).map_or(&[], |w| w.as_slice())
    }

    /// Total number of sleep windows across all stages.
    pub fn window_count(&self) -> usize {
        self.per_stage.iter().map(Vec::len).sum()
    }

    /// True when no stage ever sleeps — the joint plan degenerates to the
    /// frequency-only plan it started from.
    pub fn is_empty(&self) -> bool {
        self.per_stage.iter().all(Vec::is_empty)
    }

    /// Total joules the plan saves versus idling at `p_blocking_w`.
    pub fn saved_j(&self, p_blocking_w: f64) -> f64 {
        self.per_stage
            .iter()
            .flatten()
            .map(|w| w.saved_j(p_blocking_w))
            .sum()
    }
}

/// Greedily inserts sleep windows into the bubbles of a realized
/// `schedule` (the Kareus joint-planning pass).
///
/// Each stage's timeline is reconstructed with the slack-filled
/// instruction durations the bloat ledger uses; every gap between
/// consecutive occupancies (including the ramp-up before a stage's first
/// instruction and the drain after its last) is a candidate bubble. The
/// most profitable power state is chosen per bubble via
/// [`PowerStateModel::best_for`]; bubbles too short to amortize any
/// state's entry/exit latency are left idle.
///
/// The result depends only on the schedule, the profiles, and the power
/// model — never on `T'` — so it can be computed once per frontier point
/// and cached alongside it.
pub fn insert_sleep(
    ctx: &PlanContext<'_>,
    schedule: &EnergySchedule,
    model: &PowerStateModel,
) -> SleepPlan {
    let n_stages = ctx.pipe.n_stages;
    let mut plan = SleepPlan::empty(n_stages);
    if model.is_empty() {
        return plan;
    }
    let dag = &ctx.pipe.dag;
    let (starts, gaps, makespan) =
        node_schedule_gaps(dag, |id, _| schedule.realized_dur[id.index()]);
    let p_blocking = ctx.gpu.blocking_w;

    // Slack-filled occupancy per stage: (start, filled duration) of every
    // instruction, with the fill rule attribute_schedule prices.
    let mut occupancy: Vec<Vec<(f64, f64)>> = vec![Vec::new(); n_stages];
    for id in dag.node_ids() {
        let (stage, fill_t) = match dag.node(id) {
            PipeNode::Comp(c) => (c.stage, slack_fill(ctx, schedule, &gaps, id).0),
            PipeNode::Fixed { stage, .. } => (*stage, schedule.realized_dur[id.index()]),
            _ => continue,
        };
        occupancy[stage].push((starts[id.index()], fill_t));
    }

    for (stage, nodes) in occupancy.iter_mut().enumerate() {
        nodes.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite start times"));
        let mut cursor = 0.0f64;
        let mut bubbles: Vec<(f64, f64)> = Vec::new();
        for &(start, fill) in nodes.iter() {
            if start > cursor {
                bubbles.push((cursor, start));
            }
            // fill never crosses the next same-stage start (it is bounded
            // by the node's schedule gap), so the cursor stays monotone.
            cursor = cursor.max(start + fill);
        }
        if makespan > cursor {
            bubbles.push((cursor, makespan));
        }
        for (from, to) in bubbles {
            if let Some((state, _saved)) = model.best_for(to - from, p_blocking) {
                plan.per_stage[stage].push(SleepWindow {
                    start_s: from,
                    end_s: to,
                    state_power_w: state.power_w,
                    entry_s: state.entry_s,
                    exit_s: state.exit_s,
                });
            }
        }
    }
    plan
}

/// Kareus as a [`Planner`]: the Perseus frontier with a sleep plan grafted
/// onto every point.
///
/// Selection semantics are identical to Perseus — straggler lookup on the
/// frontier — but each selected point carries the sleep schedule that
/// reclaims its bubbles' static energy. With an empty power-state model,
/// or one whose every transition outlasts every bubble, the output
/// degenerates to the Perseus frontier with empty sleep plans.
#[derive(Debug, Clone)]
pub struct KareusPlanner {
    /// Frontier characterization options (shared with Perseus).
    pub opts: FrontierOptions,
    /// The idle-state menu to draw sleep windows from.
    pub power: PowerStateModel,
}

impl KareusPlanner {
    /// A Kareus planner over the given frontier options and power states.
    pub fn new(opts: FrontierOptions, power: PowerStateModel) -> KareusPlanner {
        KareusPlanner { opts, power }
    }
}

impl Planner for KareusPlanner {
    fn name(&self) -> &'static str {
        "kareus"
    }

    fn plan(&self, ctx: &PlanContext<'_>) -> Result<PlanOutput, CoreError> {
        self.power
            .validate(&ctx.gpu)
            .map_err(CoreError::PowerState)?;
        let frontier = Arc::new(characterize(ctx, &self.opts)?);
        Ok(PlanOutput::Frontier(FrontierPlan::with_sleep(
            frontier,
            ctx,
            &self.power,
        )))
    }
}
