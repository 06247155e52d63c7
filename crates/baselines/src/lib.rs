//! Baseline energy policies the paper compares Perseus against (§6.1).
//!
//! Every policy implements [`perseus_core::Planner`], so the cluster
//! emulator and planning server dispatch them interchangeably with
//! Perseus itself:
//!
//! * [`AllMaxFreq`] — the default mode of operation: every computation at
//!   the maximum SM clock. All savings percentages are relative to this.
//! * [`MinEnergyOracle`] — every computation at its minimum-energy
//!   frequency: the §2.4 upper bound on possible savings (it slows the
//!   iteration, so it is a bound, not a policy).
//! * [`ZeusGlobal`] — (§6.4) scan one global frequency cap for all stages.
//!   Unaware of stage imbalance, it cannot remove intrinsic bloat.
//! * [`ZeusPerStage`] — (§6.4) per-stage frequencies that balance
//!   *forward* computation time. Unaware of the critical path, it slows
//!   critical computations too.
//! * [`EnvPipe`] — [Choi et al., ATC'23] re-implemented from the paper's
//!   description: the final stage is assumed heaviest and kept at maximum
//!   frequency, while earlier stages' forward/backward clocks are greedily
//!   lowered along the envelope as long as the iteration time stays within
//!   a small tolerance. Two structural handicaps reproduce the paper's
//!   findings: (1) stage-uniform frequencies cannot slow warmup/flush
//!   microbatches individually, and (2) the tolerance-based acceptance can
//!   degrade iteration time when the last stage is *not* the bottleneck.
//!
//! The [`Planner`] trait is the only entry point: the pre-trait free
//! functions (`all_max_freq`, `min_energy_oracle`, `zeus_global_frontier`,
//! `zeus_per_stage_frontier`, `envpipe`) have been removed.

use perseus_core::{CoreError, EnergySchedule, PlanContext, PlanOutput, Planner};
use perseus_gpu::FreqMHz;
use perseus_pipeline::{node_start_times, CompKind};

// ---------------------------------------------------------------------------
// Policy logic (shared by the planners and the derived quantities).
// ---------------------------------------------------------------------------

fn all_max_schedule(ctx: &PlanContext<'_>) -> Result<EnergySchedule, CoreError> {
    EnergySchedule::realize(ctx, ctx.fastest_durations())
}

fn min_energy_schedule(ctx: &PlanContext<'_>) -> Result<EnergySchedule, CoreError> {
    EnergySchedule::realize(ctx, ctx.min_energy_durations())
}

/// The deadline a Zeus-style sweep honors when no straggler is known: the
/// pipeline's own all-max iteration time (with a hair of tolerance for
/// floating-point ties), so the policy never slows training unprompted —
/// it still banks the near-free top-clock savings.
fn no_straggler_deadline(ctx: &PlanContext<'_>) -> Result<f64, CoreError> {
    Ok(all_max_schedule(ctx)?.time_s * (1.0 + 1e-9))
}

/// Plans every computation at frequency `cap` (clamped per computation to
/// its profiled range) and realizes the schedule.
fn schedule_at_cap(ctx: &PlanContext<'_>, cap: FreqMHz) -> Result<EnergySchedule, CoreError> {
    let mut planned = ctx.fastest_durations();
    for id in ctx.pipe.dag.node_ids() {
        if ctx.info(id).is_some() {
            let profile = ctx.profile_of(id).expect("comp has profile");
            if let Some(entry) = profile.entry_at(cap) {
                planned[id.index()] = entry.time_s;
            } else {
                // Cap below the profiled range: Zeus stops at the
                // minimum-energy frequency, like the §5 sweep.
                planned[id.index()] = profile.t_max();
            }
        }
    }
    EnergySchedule::realize(ctx, planned)
}

fn zeus_global_sweep(ctx: &PlanContext<'_>) -> Result<Vec<EnergySchedule>, CoreError> {
    let mut out = Vec::new();
    for f in ctx.gpu.frequencies().into_iter().rev() {
        out.push(schedule_at_cap(ctx, f)?);
        // Stop once every computation has saturated at its min-energy
        // duration (deeper caps change nothing).
        let all_saturated = ctx.pipe.dag.node_ids().all(|id| match ctx.info(id) {
            Some(info) => {
                out.last().expect("just pushed").planned[id.index()] >= info.t_max - 1e-12
            }
            None => true,
        });
        if all_saturated {
            break;
        }
    }
    Ok(out)
}

fn zeus_per_stage_sweep(ctx: &PlanContext<'_>) -> Result<Vec<EnergySchedule>, CoreError> {
    // Per-stage forward profiles define the sweep range: from the slowest
    // stage's fastest forward to the slowest stage's min-energy forward.
    let n_stages = ctx.pipe.n_stages;
    let mut fwd_tmin = vec![0.0f64; n_stages];
    let mut fwd_tmax = vec![0.0f64; n_stages];
    for (id, c) in ctx.pipe.computations() {
        if c.kind == CompKind::Forward {
            let info = ctx.info(id).expect("comp");
            fwd_tmin[c.stage] = info.t_min;
            fwd_tmax[c.stage] = info.t_max;
        }
    }
    let lo = fwd_tmin.iter().copied().fold(0.0, f64::max);
    let hi = fwd_tmax.iter().copied().fold(0.0, f64::max);
    let steps = 60;
    let mut out = Vec::with_capacity(steps + 1);
    for i in 0..=steps {
        let target = lo + (hi - lo) * i as f64 / steps as f64;
        // Pick per-stage clocks off the forward profiles.
        let mut stage_freq: Vec<Option<FreqMHz>> = vec![None; n_stages];
        for (id, c) in ctx.pipe.computations() {
            if c.kind == CompKind::Forward && stage_freq[c.stage].is_none() {
                let profile = ctx.profile_of(id).expect("comp");
                let entry = profile
                    .slowest_within(target.max(profile.t_min()))
                    .expect("target clamped to profiled range");
                stage_freq[c.stage] = Some(entry.freq);
            }
        }
        // Apply the stage clock to every computation on that stage.
        let mut planned = ctx.fastest_durations();
        for (id, c) in ctx.pipe.computations() {
            let profile = ctx.profile_of(id).expect("comp");
            let f = stage_freq[c.stage].expect("every stage has forwards");
            let t = profile
                .entry_at(f)
                .map_or_else(|| profile.t_max(), |e| e.time_s);
            planned[id.index()] = t;
        }
        out.push(EnergySchedule::realize(ctx, planned)?);
    }
    Ok(out)
}

fn envpipe_schedule(
    ctx: &PlanContext<'_>,
    opts: EnvPipeOptions,
) -> Result<EnergySchedule, CoreError> {
    let n_stages = ctx.pipe.n_stages;
    let spec = &ctx.gpu;
    let fastest = ctx.fastest_durations();
    let (_, t0) = node_start_times(&ctx.pipe.dag, |id, _| fastest[id.index()]);
    let budget = t0 * (1.0 + opts.tolerance);

    // State: per (stage, kind) clock, initialized to maximum.
    let kinds = [CompKind::Forward, CompKind::Backward, CompKind::Recompute];
    let kidx = |k: CompKind| match k {
        CompKind::Forward => 0usize,
        CompKind::Backward => 1,
        CompKind::Recompute => 2,
    };
    let mut clock = vec![[spec.max_freq(); 3]; n_stages];

    let planned_for = |clock: &Vec<[FreqMHz; 3]>, ctx: &PlanContext<'_>| -> Vec<f64> {
        let mut planned = ctx.fastest_durations();
        for (id, c) in ctx.pipe.computations() {
            let profile = ctx.profile_of(id).expect("comp");
            let f = clock[c.stage][kidx(c.kind)];
            planned[id.index()] = profile
                .entry_at(f)
                .map_or_else(|| profile.t_max(), |e| e.time_s);
        }
        planned
    };

    // Greedy outer loop: sweep stages from first to second-to-last (the
    // envelope order), lowering each knob while the iteration time stays
    // within budget. The last stage is never touched (EnvPipe's core
    // assumption).
    let mut improved = true;
    while improved {
        improved = false;
        for s in 0..n_stages.saturating_sub(1) {
            for k in kinds {
                let cur = clock[s][kidx(k)];
                if cur == spec.min_freq() {
                    continue;
                }
                let next = FreqMHz(cur.0 - spec.step_mhz);
                if !spec.supports(next) {
                    continue;
                }
                clock[s][kidx(k)] = next;
                let planned = planned_for(&clock, ctx);
                let (_, t) = node_start_times(&ctx.pipe.dag, |id, _| planned[id.index()]);
                if t <= budget {
                    improved = true;
                } else {
                    clock[s][kidx(k)] = cur; // revert
                }
            }
        }
    }
    EnergySchedule::realize(ctx, planned_for(&clock, ctx))
}

// ---------------------------------------------------------------------------
// Planner implementations.
// ---------------------------------------------------------------------------

/// Every computation at maximum frequency — the savings baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllMaxFreq;

impl Planner for AllMaxFreq {
    fn name(&self) -> &'static str {
        "all_max_freq"
    }

    fn plan(&self, ctx: &PlanContext<'_>) -> Result<PlanOutput, CoreError> {
        Ok(PlanOutput::Schedule(all_max_schedule(ctx)?))
    }
}

/// Every computation at its minimum-energy frequency: the largest possible
/// savings under the problem setting (§2.4), at the cost of slowdown.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinEnergyOracle;

impl Planner for MinEnergyOracle {
    fn name(&self) -> &'static str {
        "min_energy_oracle"
    }

    fn plan(&self, ctx: &PlanContext<'_>) -> Result<PlanOutput, CoreError> {
        Ok(PlanOutput::Schedule(min_energy_schedule(ctx)?))
    }
}

/// ZeusGlobal: one candidate schedule per global frequency cap, descending
/// from the maximum clock to the deepest cap any computation's profile
/// covers; selection picks the lowest-energy candidate meeting the
/// straggler deadline.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZeusGlobal;

impl Planner for ZeusGlobal {
    fn name(&self) -> &'static str {
        "zeus_global"
    }

    fn plan(&self, ctx: &PlanContext<'_>) -> Result<PlanOutput, CoreError> {
        Ok(PlanOutput::Sweep {
            schedules: zeus_global_sweep(ctx)?,
            no_straggler_deadline_s: no_straggler_deadline(ctx)?,
        })
    }
}

/// ZeusPerStage: for each target forward latency (swept over the feasible
/// range), every stage picks the slowest frequency whose *forward* time
/// meets the target; the stage's backward runs at the same clock (one
/// power knob per GPU). Balances forward times but ignores the critical
/// path.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZeusPerStage;

impl Planner for ZeusPerStage {
    fn name(&self) -> &'static str {
        "zeus_per_stage"
    }

    fn plan(&self, ctx: &PlanContext<'_>) -> Result<PlanOutput, CoreError> {
        Ok(PlanOutput::Sweep {
            schedules: zeus_per_stage_sweep(ctx)?,
            no_straggler_deadline_s: no_straggler_deadline(ctx)?,
        })
    }
}

/// Tuning for the EnvPipe re-implementation.
#[derive(Debug, Clone, Copy)]
pub struct EnvPipeOptions {
    /// Relative iteration-time inflation EnvPipe tolerates while lowering
    /// clocks (its envelope slack check is locally greedy, not exact).
    pub tolerance: f64,
}

impl Default for EnvPipeOptions {
    fn default() -> Self {
        EnvPipeOptions { tolerance: 0.005 }
    }
}

/// EnvPipe: greedy stage-uniform frequency reduction keeping the last
/// stage at maximum clock. See the module docs for the modeling notes.
#[derive(Debug, Clone, Copy, Default)]
pub struct EnvPipe {
    /// Tuning knobs (tolerance).
    pub opts: EnvPipeOptions,
}

impl EnvPipe {
    /// An EnvPipe planner with the given options.
    pub fn new(opts: EnvPipeOptions) -> EnvPipe {
        EnvPipe { opts }
    }
}

impl Planner for EnvPipe {
    fn name(&self) -> &'static str {
        "envpipe"
    }

    fn plan(&self, ctx: &PlanContext<'_>) -> Result<PlanOutput, CoreError> {
        Ok(PlanOutput::Schedule(envpipe_schedule(ctx, self.opts)?))
    }
}

// ---------------------------------------------------------------------------
// Derived quantities.
// ---------------------------------------------------------------------------

/// §2.4 potential-savings bound: relative per-iteration energy reduction of
/// the min-energy oracle versus all-max (each evaluated at its own
/// iteration time, no straggler).
///
/// # Errors
///
/// Propagates realization errors.
pub fn potential_savings(ctx: &PlanContext<'_>) -> Result<f64, CoreError> {
    let base = all_max_schedule(ctx)?.energy_report(ctx, None);
    let oracle = min_energy_schedule(ctx)?.energy_report(ctx, None);
    Ok(1.0 - oracle.total_j() / base.total_j())
}

#[cfg(test)]
mod tests;
