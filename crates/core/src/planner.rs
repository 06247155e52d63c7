//! The [`Planner`] trait: one interface over every energy policy.
//!
//! Perseus and the baselines it is compared against (§6.1) differ in what
//! they compute — a single schedule, a full time–energy frontier, or a
//! sweep of candidate schedules — but a deployment decision always reduces
//! to "given the straggler iteration time `T'` (or none), which schedule
//! runs?". [`PlanOutput`] captures the three output shapes and
//! [`PlanOutput::select`] answers that question uniformly, so callers
//! select from any policy's output without per-policy match arms.
//!
//! Crucially, every planner's output is independent of `T'`: the straggler
//! deadline only affects *selection*, never *planning*. That makes
//! [`PlanOutput`] cacheable — plan once per (pipeline, profiles), select
//! per straggler event.

use std::sync::Arc;

use perseus_gpu::{FreqMHz, PowerStateModel};

use crate::context::{CoreError, PlanContext};
use crate::frontier::{
    characterize, EnergySchedule, FrontierOptions, FrontierPoint, ParetoFrontier,
};
use crate::sleep::{insert_sleep, SleepPlan};

/// A characterized frontier plus, for a joint dynamic + static plan
/// (Kareus), one [`SleepPlan`] per point in frontier order.
///
/// Kareus is the Perseus frontier with sleep windows grafted onto every
/// point, so both policies hold the same shared `Arc`: a Kareus plan built
/// from a Perseus plan's frontier copies no schedule. Sleep plans are
/// derived from the points' schedules alone, never from `T'`, so a
/// `FrontierPlan` is as cacheable as the frontier it wraps.
#[derive(Debug, Clone)]
pub struct FrontierPlan {
    pub(crate) frontier: Arc<ParetoFrontier>,
    pub(crate) sleep: Option<Vec<SleepPlan>>,
}

impl FrontierPlan {
    /// A frequency-only plan (Perseus): the frontier, no sleep plans.
    pub fn new(frontier: Arc<ParetoFrontier>) -> FrontierPlan {
        FrontierPlan {
            frontier,
            sleep: None,
        }
    }

    /// A joint plan (Kareus): `frontier` with one sleep plan per point,
    /// each drawn from `power` by [`insert_sleep`] against the point's
    /// schedule. The only place sleep plans are derived from a frontier.
    pub fn with_sleep(
        frontier: Arc<ParetoFrontier>,
        ctx: &PlanContext<'_>,
        power: &PowerStateModel,
    ) -> FrontierPlan {
        let sleep = frontier
            .points()
            .iter()
            .map(|p| insert_sleep(ctx, &p.schedule, power))
            .collect();
        FrontierPlan {
            frontier,
            sleep: Some(sleep),
        }
    }

    /// The shared frontier.
    pub fn frontier(&self) -> &Arc<ParetoFrontier> {
        &self.frontier
    }

    /// One sleep plan per frontier point, for a joint plan.
    pub fn sleep(&self) -> Option<&[SleepPlan]> {
        self.sleep.as_deref()
    }

    /// §3.1 straggler reaction: the frontier point for straggler
    /// iteration time `t_prime` ([`ParetoFrontier::lookup`]; with no
    /// straggler known, the fastest point) and the sleep plan that ships
    /// with it (`None` for a frequency-only plan).
    pub fn lookup(&self, t_prime: Option<f64>) -> (&FrontierPoint, Option<&SleepPlan>) {
        self.point(self.lookup_index(t_prime))
    }

    /// Index of the point [`FrontierPlan::lookup`] returns for `t_prime`
    /// ([`ParetoFrontier::lookup_index`] at `t_prime`, or at `T_min` with
    /// no straggler known).
    pub(crate) fn lookup_index(&self, t_prime: Option<f64>) -> usize {
        let t = t_prime.unwrap_or_else(|| self.frontier.t_min());
        self.frontier.lookup_index(t)
    }

    /// Frontier point `index` and the sleep plan that ships with it
    /// (`None` for a frequency-only plan).
    ///
    /// # Panics
    ///
    /// Panics if `index` is not a point of the frontier.
    pub(crate) fn point(&self, index: usize) -> (&FrontierPoint, Option<&SleepPlan>) {
        let sleep = self.sleep.as_ref().map(|plans| &plans[index]);
        (&self.frontier.points()[index], sleep)
    }

    /// Re-clamps the plan to a GPU frequency cap: the frontier via
    /// [`ParetoFrontier::clamp_to_freq_cap`], then, for a joint plan, the
    /// sleep windows re-derived from `power` against the clamped
    /// schedules — a cap stretches computations, moving and narrowing
    /// the bubbles, so the old windows are not carried over. `power` is
    /// the model the sleep plans were drawn from, `None` for a
    /// frequency-only plan.
    ///
    /// # Errors
    ///
    /// Propagates realization failures from the profile database.
    pub fn clamp_freq_cap(
        &self,
        ctx: &PlanContext<'_>,
        cap: FreqMHz,
        power: Option<&PowerStateModel>,
    ) -> Result<FrontierPlan, CoreError> {
        debug_assert_eq!(
            power.is_some(),
            self.sleep.is_some(),
            "a joint plan re-clamps with the power model it was drawn from"
        );
        let clamped = Arc::new(self.frontier.clamp_to_freq_cap(ctx, cap)?);
        Ok(match power {
            Some(power) => FrontierPlan::with_sleep(clamped, ctx, power),
            None => FrontierPlan::new(clamped),
        })
    }
}

/// What a planner produced for one pipeline: the `T'`-independent artifact
/// a deployment schedule is selected from.
#[derive(Debug, Clone)]
pub enum PlanOutput {
    /// A single schedule, deployed regardless of stragglers (AllMaxFreq,
    /// MinEnergyOracle, EnvPipe).
    Schedule(EnergySchedule),
    /// A full iteration time–energy Pareto frontier; stragglers are
    /// answered by lookup at `T_opt = min(T*, T')` (Perseus). A joint plan
    /// (Kareus) carries a sleep plan per point, and
    /// [`PlanOutput::sleep_plan`] exposes the selected point's.
    Frontier(FrontierPlan),
    /// A sweep of candidate schedules plus the deadline to honor when no
    /// straggler is present; selection picks the lowest-energy candidate
    /// meeting the deadline (ZeusGlobal, ZeusPerStage).
    Sweep {
        /// Candidate schedules, in the planner's sweep order.
        schedules: Vec<EnergySchedule>,
        /// Deadline substituted for `T'` when no straggler is known —
        /// typically the pipeline's own all-max iteration time, so the
        /// policy never slows training unprompted.
        no_straggler_deadline_s: f64,
    },
}

impl PlanOutput {
    /// Picks the schedule to deploy for straggler iteration time `t_prime`
    /// (`None` = no straggler known): the schedule at
    /// [`PlanOutput::select_index`].
    ///
    /// # Panics
    ///
    /// Panics if a `Sweep` holds no schedules; planners never produce
    /// empty sweeps.
    pub fn select(&self, t_prime: Option<f64>) -> &EnergySchedule {
        self.schedule_at(self.select_index(t_prime))
    }

    /// Index of the schedule to deploy for straggler iteration time
    /// `t_prime` (`None` = no straggler known). The one selection rule:
    /// [`PlanOutput::select`] and [`PlanOutput::sleep_plan`] read the
    /// schedule and sleep plan at this index, so anything keyed on it
    /// names exactly the deployed schedule.
    ///
    /// * `Schedule` — 0; the policy is straggler-unaware.
    /// * `Frontier` — the frontier lookup index at `t_prime` (Eq. 2's
    ///   `T_opt = min(T*, T')` is applied by the lookup itself); with no
    ///   straggler, the fastest frontier point.
    /// * `Sweep` — the lowest-energy candidate whose iteration time meets
    ///   the deadline (`t_prime`, or the sweep's no-straggler deadline);
    ///   if none meets it, the candidate that was deployed anyway in the
    ///   reference implementation: the first sweep entry.
    ///
    /// # Panics
    ///
    /// Panics if a `Sweep` holds no schedules.
    pub fn select_index(&self, t_prime: Option<f64>) -> usize {
        match self {
            PlanOutput::Schedule(_) => 0,
            PlanOutput::Frontier(plan) => plan.lookup_index(t_prime),
            PlanOutput::Sweep {
                schedules,
                no_straggler_deadline_s,
            } => {
                let deadline = t_prime.unwrap_or(*no_straggler_deadline_s);
                let mut best: Option<usize> = None;
                for (i, s) in schedules.iter().enumerate() {
                    if s.time_s <= deadline || best.is_none() {
                        let better = match best {
                            None => true,
                            Some(b) => {
                                let b = &schedules[b];
                                s.time_s <= deadline
                                    && (b.time_s > deadline || s.compute_j < b.compute_j)
                            }
                        };
                        if better {
                            best = Some(i);
                        }
                    }
                }
                best.expect("sweep is non-empty")
            }
        }
    }

    /// The schedule at selection index `index` (see
    /// [`PlanOutput::select_index`]).
    ///
    /// # Panics
    ///
    /// Panics if `index` names no schedule of this output.
    pub fn schedule_at(&self, index: usize) -> &EnergySchedule {
        match self {
            PlanOutput::Schedule(s) => {
                assert_eq!(index, 0, "a single-schedule output has only index 0");
                s
            }
            PlanOutput::Frontier(plan) => &plan.point(index).0.schedule,
            PlanOutput::Sweep { schedules, .. } => &schedules[index],
        }
    }

    /// The single schedule, if this is a `Schedule` output.
    pub fn as_schedule(&self) -> Option<&EnergySchedule> {
        match self {
            PlanOutput::Schedule(s) => Some(s),
            _ => None,
        }
    }

    /// The frontier, if this is a `Frontier` output.
    pub fn as_frontier(&self) -> Option<&ParetoFrontier> {
        self.as_frontier_plan().map(|plan| &**plan.frontier())
    }

    /// The frontier with its sleep plans, if this is a `Frontier` output.
    pub fn as_frontier_plan(&self) -> Option<&FrontierPlan> {
        match self {
            PlanOutput::Frontier(plan) => Some(plan),
            _ => None,
        }
    }

    /// The sleep plan accompanying the schedule [`PlanOutput::select`]
    /// picks for `t_prime`, if this output carries one.
    ///
    /// Reads the same [`PlanOutput::select_index`] as `select`, so the
    /// returned plan always matches the selected schedule. `None` for
    /// frequency-only outputs — callers treat that as "never sleeps".
    pub fn sleep_plan(&self, t_prime: Option<f64>) -> Option<&SleepPlan> {
        self.sleep_plan_at(self.select_index(t_prime))
    }

    /// The sleep plan that ships with the schedule at selection index
    /// `index`, if this output carries sleep plans.
    pub fn sleep_plan_at(&self, index: usize) -> Option<&SleepPlan> {
        self.as_frontier_plan().and_then(|plan| plan.point(index).1)
    }

    /// The candidate sweep, if this is a `Sweep` output.
    pub fn as_sweep(&self) -> Option<&[EnergySchedule]> {
        match self {
            PlanOutput::Sweep { schedules, .. } => Some(schedules),
            _ => None,
        }
    }

    /// Consumes the output into its single schedule, if any.
    pub fn into_schedule(self) -> Option<EnergySchedule> {
        match self {
            PlanOutput::Schedule(s) => Some(s),
            _ => None,
        }
    }

    /// Consumes the output into its candidate sweep, if any.
    pub fn into_sweep(self) -> Option<Vec<EnergySchedule>> {
        match self {
            PlanOutput::Sweep { schedules, .. } => Some(schedules),
            _ => None,
        }
    }

    /// Re-clamps this output to a GPU frequency cap (§2.3 power/thermal
    /// capping) without re-planning: each schedule is re-realized with
    /// frequencies limited to `cap`, and a frontier is re-clamped via
    /// [`FrontierPlan::clamp_freq_cap`], whose `power` argument this
    /// passes on (`None` unless the output is a joint plan). Selection
    /// semantics are unchanged — the cap shifts what each choice
    /// *realizes*, not how choices are made — so cached outputs stay
    /// cacheable under caps.
    ///
    /// # Errors
    ///
    /// Propagates realization failures from the profile database.
    pub fn clamp_freq_cap(
        &self,
        ctx: &PlanContext<'_>,
        cap: FreqMHz,
        power: Option<&PowerStateModel>,
    ) -> Result<PlanOutput, CoreError> {
        let recap = |s: &EnergySchedule| {
            EnergySchedule::realize_with_cap(ctx, s.planned.clone(), Some(cap))
        };
        Ok(match self {
            PlanOutput::Schedule(s) => PlanOutput::Schedule(recap(s)?),
            PlanOutput::Frontier(plan) => {
                PlanOutput::Frontier(plan.clamp_freq_cap(ctx, cap, power)?)
            }
            PlanOutput::Sweep {
                schedules,
                no_straggler_deadline_s,
            } => PlanOutput::Sweep {
                schedules: schedules.iter().map(recap).collect::<Result<_, _>>()?,
                no_straggler_deadline_s: *no_straggler_deadline_s,
            },
        })
    }
}

/// An energy policy: plans the `T'`-independent artifact for one pipeline.
///
/// Implementations must be `Send + Sync` — the planning server runs `plan`
/// on worker threads and the emulator shares planners behind trait
/// objects.
pub trait Planner: Send + Sync {
    /// Stable identifier used in plan fingerprints and reports.
    fn name(&self) -> &'static str;

    /// Plans against `ctx`. The result depends only on the pipeline and
    /// its profiles, never on straggler state; selection happens in
    /// [`PlanOutput::select`].
    ///
    /// # Errors
    ///
    /// Propagates profile, fit, and characterization failures.
    fn plan(&self, ctx: &PlanContext<'_>) -> Result<PlanOutput, CoreError>;
}

/// Perseus itself as a [`Planner`]: characterizes the Pareto frontier
/// (Algorithm 1); selection is the §3.1 straggler lookup.
#[derive(Debug, Clone, Default)]
pub struct Perseus {
    /// Characterization options.
    pub opts: FrontierOptions,
}

impl Perseus {
    /// A Perseus planner with the given characterization options.
    pub fn new(opts: FrontierOptions) -> Perseus {
        Perseus { opts }
    }
}

impl Planner for Perseus {
    fn name(&self) -> &'static str {
        "perseus"
    }

    fn plan(&self, ctx: &PlanContext<'_>) -> Result<PlanOutput, CoreError> {
        Ok(PlanOutput::Frontier(FrontierPlan::new(Arc::new(
            characterize(ctx, &self.opts)?,
        ))))
    }
}
