//! The [`Planner`] trait: one interface over every energy policy.
//!
//! Perseus and the baselines it is compared against (§6.1) differ in what
//! they compute — a single schedule, a full time–energy frontier, or a
//! sweep of candidate schedules — but a deployment decision always reduces
//! to "given the straggler iteration time `T'` (or none), which schedule
//! runs?". [`PlanOutput`] captures the three output shapes and
//! [`PlanOutput::select`] answers that question uniformly, so the cluster
//! emulator and the planning server can dispatch any policy through a
//! `dyn Planner` without per-policy match arms.
//!
//! Crucially, every planner's output is independent of `T'`: the straggler
//! deadline only affects *selection*, never *planning*. That makes
//! [`PlanOutput`] cacheable — plan once per (pipeline, profiles), select
//! per straggler event.

use perseus_gpu::{FreqMHz, PowerStateModel};

use crate::context::{CoreError, PlanContext};
use crate::frontier::{characterize, EnergySchedule, FrontierOptions, ParetoFrontier};
use crate::sleep::{insert_sleep, SleepPlan};

/// What a planner produced for one pipeline: the `T'`-independent artifact
/// a deployment schedule is selected from.
#[derive(Debug, Clone)]
pub enum PlanOutput {
    /// A single schedule, deployed regardless of stragglers (AllMaxFreq,
    /// MinEnergyOracle, EnvPipe).
    Schedule(EnergySchedule),
    /// A full iteration time–energy Pareto frontier; stragglers are
    /// answered by lookup at `T_opt = min(T*, T')` (Perseus).
    Frontier(ParetoFrontier),
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
    /// A frontier whose every point carries a per-stage sleep schedule
    /// reclaiming static energy from pipeline bubbles (Kareus). Selection
    /// is identical to `Frontier`; [`PlanOutput::sleep_plan`] exposes the
    /// sleep schedule of the selected point.
    SleepFrontier {
        /// The underlying time–energy frontier.
        frontier: ParetoFrontier,
        /// The power-state menu the sleep plans were drawn from (kept so
        /// frequency-cap re-clamps can re-run sleep insertion).
        power: PowerStateModel,
        /// One sleep plan per frontier point, in frontier order.
        sleep: Vec<SleepPlan>,
    },
}

impl PlanOutput {
    /// Picks the schedule to deploy for straggler iteration time `t_prime`
    /// (`None` = no straggler known).
    ///
    /// * `Schedule` — returned as-is; the policy is straggler-unaware.
    /// * `Frontier` — frontier lookup at `t_prime` (Eq. 2's
    ///   `T_opt = min(T*, T')` is applied by the lookup itself); with no
    ///   straggler, the fastest frontier point.
    /// * `Sweep` — the lowest-energy candidate whose iteration time meets
    ///   the deadline (`t_prime`, or the sweep's no-straggler deadline);
    ///   if none meets it, the candidate that was deployed anyway in the
    ///   reference implementation: the first sweep entry.
    ///
    /// # Panics
    ///
    /// Panics if a `Sweep` holds no schedules; planners never produce
    /// empty sweeps.
    pub fn select(&self, t_prime: Option<f64>) -> &EnergySchedule {
        match self {
            PlanOutput::Schedule(s) => s,
            PlanOutput::Frontier(f) | PlanOutput::SleepFrontier { frontier: f, .. } => {
                let t = t_prime.unwrap_or_else(|| f.t_min());
                &f.lookup(t).schedule
            }
            PlanOutput::Sweep {
                schedules,
                no_straggler_deadline_s,
            } => {
                let deadline = t_prime.unwrap_or(*no_straggler_deadline_s);
                let mut best: Option<&EnergySchedule> = None;
                for s in schedules {
                    if s.time_s <= deadline || best.is_none() {
                        let better = match best {
                            None => true,
                            Some(b) => {
                                s.time_s <= deadline
                                    && (b.time_s > deadline || s.compute_j < b.compute_j)
                            }
                        };
                        if better {
                            best = Some(s);
                        }
                    }
                }
                best.expect("sweep is non-empty")
            }
        }
    }

    /// The single schedule, if this is a `Schedule` output.
    pub fn as_schedule(&self) -> Option<&EnergySchedule> {
        match self {
            PlanOutput::Schedule(s) => Some(s),
            _ => None,
        }
    }

    /// The frontier, if this is a `Frontier` or `SleepFrontier` output.
    pub fn as_frontier(&self) -> Option<&ParetoFrontier> {
        match self {
            PlanOutput::Frontier(f) | PlanOutput::SleepFrontier { frontier: f, .. } => Some(f),
            _ => None,
        }
    }

    /// The sleep plan accompanying the schedule [`PlanOutput::select`]
    /// picks for `t_prime`, if this output carries one.
    ///
    /// Uses the same frontier lookup as `select`, so the returned plan
    /// always matches the selected schedule. `None` for frequency-only
    /// outputs — callers treat that as "never sleeps".
    pub fn sleep_plan(&self, t_prime: Option<f64>) -> Option<&SleepPlan> {
        match self {
            PlanOutput::SleepFrontier {
                frontier, sleep, ..
            } => {
                let t = t_prime.unwrap_or_else(|| frontier.t_min());
                sleep.get(frontier.lookup_index(t))
            }
            _ => None,
        }
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
    /// [`ParetoFrontier::clamp_to_freq_cap`]. Selection semantics are
    /// unchanged — the cap shifts what each choice *realizes*, not how
    /// choices are made — so cached outputs stay cacheable under caps.
    ///
    /// # Errors
    ///
    /// Propagates realization failures from the profile database.
    pub fn clamp_freq_cap(
        &self,
        ctx: &PlanContext<'_>,
        cap: FreqMHz,
    ) -> Result<PlanOutput, CoreError> {
        let recap = |s: &EnergySchedule| {
            EnergySchedule::realize_with_cap(ctx, s.planned.clone(), Some(cap))
        };
        Ok(match self {
            PlanOutput::Schedule(s) => PlanOutput::Schedule(recap(s)?),
            PlanOutput::Frontier(f) => PlanOutput::Frontier(f.clamp_to_freq_cap(ctx, cap)?),
            PlanOutput::Sweep {
                schedules,
                no_straggler_deadline_s,
            } => PlanOutput::Sweep {
                schedules: schedules.iter().map(recap).collect::<Result<_, _>>()?,
                no_straggler_deadline_s: *no_straggler_deadline_s,
            },
            PlanOutput::SleepFrontier {
                frontier, power, ..
            } => {
                // The cap changes every point's realized timeline, so the
                // sleep windows are re-derived from the clamped schedules
                // rather than carried over.
                let clamped = frontier.clamp_to_freq_cap(ctx, cap)?;
                let sleep = clamped
                    .points()
                    .iter()
                    .map(|p| insert_sleep(ctx, &p.schedule, power))
                    .collect();
                PlanOutput::SleepFrontier {
                    frontier: clamped,
                    power: power.clone(),
                    sleep,
                }
            }
        })
    }
}

/// An energy policy: plans the `T'`-independent artifact for one pipeline.
///
/// Implementations must be `Send + Sync` — the planning server runs `plan`
/// on worker threads and the emulator shares planners behind trait
/// objects.
pub trait Planner: Send + Sync {
    /// Stable identifier used for registry lookup and reporting.
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
        Ok(PlanOutput::Frontier(characterize(ctx, &self.opts)?))
    }
}
