//! Multi-iteration training-segment simulation (an extension beyond the
//! paper's per-iteration tables): replay a straggler *trace* — stragglers
//! appearing, changing degree, and recovering over the course of training —
//! and account energy iteration by iteration, including the cost of the
//! server's reaction latency.
//!
//! §2.3 notes stragglers are usually announced by the infrastructure; this
//! module quantifies what announcement latency is worth: while the server
//! has not reacted yet, non-straggler pipelines either waste energy
//! (straggler appeared, schedule still fast) or *become the straggler
//! themselves* (straggler recovered, schedule still slow).

use std::collections::HashMap;

use perseus_core::BloatLedger;

use crate::emulator::{Emulator, EmulatorError, Policy, StragglerCause};

/// One event of a straggler trace.
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent {
    /// Iteration index at which the event takes effect.
    pub at_iteration: usize,
    /// Pipeline the event concerns.
    pub pipeline: usize,
    /// New cause, or `None` when the pipeline recovers.
    pub cause: Option<StragglerCause>,
}

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Iterations to simulate.
    pub iterations: usize,
    /// Iterations between a straggler state change and the schedule that
    /// accounts for it reaching the clients (0 = instant reaction; the
    /// paper's lookup makes the server side effectively free, so this is
    /// dominated by notification/deployment latency).
    pub reaction_delay_iters: usize,
}

/// Per-iteration record of a simulated run.
#[derive(Debug, Clone, Copy)]
pub struct IterationRecord {
    /// Synchronized iteration time (everyone waits for the slowest).
    pub sync_time_s: f64,
    /// Cluster energy of this iteration, joules.
    pub energy_j: f64,
    /// The straggler iteration time the deployed schedule believed in.
    pub believed_t_prime_s: Option<f64>,
    /// The actual straggler iteration time.
    pub actual_t_prime_s: Option<f64>,
}

/// Aggregate result of a simulated training segment.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Policy that was simulated.
    pub policy: Policy,
    /// Total cluster energy over the segment, joules.
    pub total_energy_j: f64,
    /// Total wall-clock time of the segment, seconds.
    pub total_time_s: f64,
    /// Per-iteration records.
    pub per_iteration: Vec<IterationRecord>,
}

impl RunSummary {
    /// Average cluster power over the segment, watts.
    pub fn avg_power_w(&self) -> f64 {
        self.total_energy_j / self.total_time_s
    }
}

/// The straggler state a trace implies at any iteration: which pipelines
/// are slow, from what cause, and the worst effective `T'`. Extracted
/// from [`simulate_run`] so fault-injection harnesses replaying their own
/// event streams reuse the same replay semantics (events may arrive in
/// any order; later events for the same pipeline override earlier ones).
#[derive(Debug, Clone)]
pub struct StragglerTimeline {
    events: Vec<TraceEvent>,
}

impl StragglerTimeline {
    /// Builds a timeline from trace events (sorted internally; the sort
    /// is stable, so same-iteration events keep their submission order).
    pub fn new(trace: &[TraceEvent]) -> StragglerTimeline {
        let mut events = trace.to_vec();
        events.sort_by_key(|e| e.at_iteration);
        StragglerTimeline { events }
    }

    /// Straggler state per pipeline in effect at iteration `iter`.
    pub fn state_at(&self, iter: usize) -> Vec<(usize, StragglerCause)> {
        let mut active = HashMap::new();
        for e in self.events.iter().take_while(|e| e.at_iteration <= iter) {
            apply(&mut active, e);
        }
        active.into_iter().collect()
    }

    /// The effective straggler iteration time at `iter`: the worst `T'`
    /// over every active cause, or `None` with no straggler.
    ///
    /// # Errors
    ///
    /// Propagates emulation failures (e.g. invalid straggler degrees).
    pub fn t_prime_at(&self, emu: &Emulator, iter: usize) -> Result<Option<f64>, EmulatorError> {
        worst_t_prime(emu, self.state_at(iter).into_iter().map(|(_, c)| c))
    }

    /// [`StragglerTimeline::t_prime_at`] for every iteration below
    /// `iterations`, in one pass over the events: the worst `T'` only
    /// changes where an event lands, so the active causes are re-priced
    /// once per iteration that has events and carried over the rest.
    /// Bit-identical to calling `t_prime_at` per iteration: each value is
    /// a max over the same set of causes.
    ///
    /// # Errors
    ///
    /// Propagates emulation failures of causes active before
    /// `iterations`.
    pub fn t_prime_per_iteration(
        &self,
        emu: &Emulator,
        iterations: usize,
    ) -> Result<Vec<Option<f64>>, EmulatorError> {
        let mut active = HashMap::new();
        let mut events = self.events.iter().peekable();
        let mut worst = None;
        let mut out = Vec::with_capacity(iterations);
        for iter in 0..iterations {
            let mut changed = false;
            while let Some(e) = events.next_if(|e| e.at_iteration <= iter) {
                apply(&mut active, e);
                changed = true;
            }
            if changed {
                worst = worst_t_prime(emu, active.values().copied())?;
            }
            out.push(worst);
        }
        Ok(out)
    }
}

/// Applies one event to the per-pipeline straggler state.
fn apply(active: &mut HashMap<usize, StragglerCause>, e: &TraceEvent) {
    match e.cause {
        Some(c) => {
            active.insert(e.pipeline, c);
        }
        None => {
            active.remove(&e.pipeline);
        }
    }
}

/// The worst straggler iteration time over `causes`, or `None` with none.
fn worst_t_prime(
    emu: &Emulator,
    causes: impl Iterator<Item = StragglerCause>,
) -> Result<Option<f64>, EmulatorError> {
    let mut worst: Option<f64> = None;
    for cause in causes {
        let t = emu.straggler_iteration_time(cause)?;
        worst = Some(worst.map_or(t, |w: f64| w.max(t)));
    }
    Ok(worst)
}

/// Simulates `cfg.iterations` synchronized iterations of `emu`'s cluster
/// under `policy`, replaying `trace` (events may arrive in any order;
/// later events for the same pipeline override earlier ones).
///
/// The straggler itself always runs at maximum frequency; `policy` governs
/// the non-straggler pipelines, reacting to trace events after
/// `cfg.reaction_delay_iters` iterations.
///
/// # Errors
///
/// Propagates emulation failures (e.g. invalid straggler degrees).
pub fn simulate_run(
    emu: &Emulator,
    policy: Policy,
    trace: &[TraceEvent],
    cfg: &RunConfig,
) -> Result<RunSummary, EmulatorError> {
    simulate_run_impl(emu, policy, trace, cfg, None, None)
}

/// Like [`simulate_run`], but each iteration's energy is additionally
/// attributed into `ledger` (useful / intrinsic / extrinsic, per stage and
/// per instruction kind) via [`Emulator::attribute_with_belief`].
///
/// Attribution is observation only: the returned [`RunSummary`] is
/// bit-identical to [`simulate_run`]'s for the same inputs.
///
/// # Errors
///
/// Propagates emulation failures (e.g. invalid straggler degrees).
pub fn simulate_run_with_ledger(
    emu: &Emulator,
    policy: Policy,
    trace: &[TraceEvent],
    cfg: &RunConfig,
    ledger: &mut BloatLedger,
) -> Result<RunSummary, EmulatorError> {
    simulate_run_impl(emu, policy, trace, cfg, Some(ledger), None)
}

/// Like [`simulate_run`], but each iteration is additionally fed into the
/// streaming observability pipeline `obs` (time series, drift detectors,
/// SLOs) as an [`perseus_telemetry::IterationSample`].
///
/// Observation only: the pipeline reads the same per-iteration numbers
/// the summary reports and never steers the run — the returned
/// [`RunSummary`] is bit-identical to [`simulate_run`]'s for the same
/// inputs.
///
/// # Errors
///
/// Propagates emulation failures (e.g. invalid straggler degrees).
pub fn simulate_run_observed(
    emu: &Emulator,
    policy: Policy,
    trace: &[TraceEvent],
    cfg: &RunConfig,
    obs: &perseus_telemetry::ObsPipeline,
) -> Result<RunSummary, EmulatorError> {
    simulate_run_impl(emu, policy, trace, cfg, None, Some(obs))
}

fn simulate_run_impl(
    emu: &Emulator,
    policy: Policy,
    trace: &[TraceEvent],
    cfg: &RunConfig,
    mut ledger: Option<&mut BloatLedger>,
    obs: Option<&perseus_telemetry::ObsPipeline>,
) -> Result<RunSummary, EmulatorError> {
    let tel = emu.telemetry();
    let _span = perseus_telemetry::span!(tel, "simulate_run", policy = policy);
    let t_prime = StragglerTimeline::new(trace).t_prime_per_iteration(emu, cfg.iterations)?;
    let mut per_iteration = Vec::with_capacity(cfg.iterations);
    let mut total_energy = 0.0;
    let mut total_time = 0.0;
    // Per-stage busy/idle accumulators, flushed to telemetry at the end of
    // the run (pure observation; never feeds back into the simulation).
    let mut stage_busy = vec![0.0_f64; emu.config().n_stages];
    let mut stage_idle = vec![0.0_f64; emu.config().n_stages];
    for iter in 0..cfg.iterations {
        let actual = t_prime[iter];
        let believed = t_prime[iter.saturating_sub(cfg.reaction_delay_iters)];
        let report = emu.report_with_belief(policy, believed, actual)?;
        total_energy += report.total_j();
        total_time += report.sync_time_s;
        if tel.is_enabled() {
            accumulate_stage_occupancy(
                emu,
                policy,
                believed,
                report.sync_time_s,
                &mut stage_busy,
                &mut stage_idle,
            )?;
        }
        if ledger.is_some() || obs.is_some() {
            let attribution = emu.attribute_with_belief(policy, believed, actual)?;
            if let Some(obs) = obs {
                let breakdown = attribution.total();
                let plan = emu.plan_of(policy)?;
                let schedule = plan.select(believed);
                let (mut freq_min, mut freq_max) = (u32::MAX, 0u32);
                for freq in schedule.freqs.iter().flatten() {
                    freq_min = freq_min.min(freq.0);
                    freq_max = freq_max.max(freq.0);
                }
                obs.ingest(&perseus_telemetry::IterationSample {
                    iteration: iter as u64,
                    sync_time_s: report.sync_time_s,
                    useful_j: breakdown.useful_j,
                    intrinsic_j: breakdown.intrinsic_j,
                    extrinsic_j: breakdown.extrinsic_j,
                    freq_min_mhz: if freq_min == u32::MAX { 0 } else { freq_min },
                    freq_max_mhz: freq_max,
                    degraded: false,
                    degraded_lookups: 0,
                    faults: 0,
                });
            }
            if let Some(ledger) = ledger.as_deref_mut() {
                attribution.record_into(ledger);
            }
        }
        per_iteration.push(IterationRecord {
            sync_time_s: report.sync_time_s,
            energy_j: report.total_j(),
            believed_t_prime_s: believed,
            actual_t_prime_s: actual,
        });
    }
    if tel.is_enabled() {
        let policy_name = policy.name();
        tel.counter_with(
            "perseus_emulator_iterations_total",
            &[("policy", policy_name)],
        )
        .add(cfg.iterations as u64);
        for (stage, (busy, idle)) in stage_busy.iter().zip(&stage_idle).enumerate() {
            let stage_label = stage.to_string();
            let labels = [("policy", policy_name), ("stage", stage_label.as_str())];
            tel.float_counter_with("perseus_emulator_stage_busy_seconds_total", &labels)
                .add(*busy);
            tel.float_counter_with("perseus_emulator_stage_idle_seconds_total", &labels)
                .add(*idle);
        }
    }
    Ok(RunSummary {
        policy,
        total_energy_j: total_energy,
        total_time_s: total_time,
        per_iteration,
    })
}

/// Adds one iteration's per-stage busy time (the planned computation
/// durations of the deployed schedule) and idle time (the remainder of the
/// synchronized iteration) into the accumulators.
fn accumulate_stage_occupancy(
    emu: &Emulator,
    policy: Policy,
    believed_t_prime: Option<f64>,
    sync_time_s: f64,
    stage_busy: &mut [f64],
    stage_idle: &mut [f64],
) -> Result<(), EmulatorError> {
    let ctx = emu.ctx();
    let plan = emu.plan_of(policy)?;
    let schedule = plan.select(believed_t_prime);
    let n_stages = stage_busy.len().max(1);
    let mut busy_now = vec![0.0_f64; n_stages];
    for info in ctx.plan_info.iter().flatten() {
        // Interleaved schedules fold virtual stages back onto the physical
        // stage index.
        busy_now[info.key.stage % n_stages] += schedule.realized_dur[info.node.index()];
    }
    for (stage, busy) in busy_now.iter().enumerate() {
        stage_busy[stage] += busy;
        stage_idle[stage] += (sync_time_s - busy).max(0.0);
    }
    Ok(())
}

/// A synthetic thermal-cycling trace: `pipeline` throttles to
/// `degree` every `period` iterations for `duty` iterations (datacenter
/// hot spots oscillate like this, §2.3).
pub fn thermal_cycle_trace(
    pipeline: usize,
    degree: f64,
    period: usize,
    duty: usize,
    iterations: usize,
) -> Vec<TraceEvent> {
    let mut trace = Vec::new();
    let mut at = 0;
    while at < iterations {
        trace.push(TraceEvent {
            at_iteration: at,
            pipeline,
            cause: Some(StragglerCause::Slowdown { degree }),
        });
        trace.push(TraceEvent {
            at_iteration: (at + duty).min(iterations),
            pipeline,
            cause: None,
        });
        at += period;
    }
    trace
}
