//! The chaos harness: replays a [`FaultPlan`](crate::FaultPlan) against a
//! cluster [`Emulator`] and a live [`PerseusServer`] in lockstep, and
//! reports what the system absorbed.
//!
//! The harness is the integration point of the fault model: straggler
//! spikes hit both the emulator's accounting and the server's
//! `set_straggler` path (through the retrying [`JobClient`]),
//! characterization faults hit the server's worker pool, frequency caps
//! re-clamp both sides' frontiers, and clock skew shifts the server's
//! simulated clock. Every fired event is counted, so
//! `faults_injected == faults_scheduled` is a checkable postcondition of
//! any completed run.

use std::collections::VecDeque;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use perseus_cluster::{
    Emulator, EmulatorError, Policy, StragglerCause, StragglerTimeline, TraceEvent,
};
use perseus_core::model_profiles;
use perseus_server::{
    DurabilityStats, FaultInjector, FollowerServer, JobClient, JobSpec, PerseusServer, Replicator,
    ServerConfig, ServerError, SubmissionFault,
};
use perseus_telemetry::{Alert, AlertState, FlightSnapshot, IterationSample};

use crate::plan::{FaultKind, FaultPlan};

/// Errors from a chaos run.
#[derive(Debug)]
pub enum ChaosError {
    /// The emulator side failed.
    Emulator(EmulatorError),
    /// The server side failed in a way the client could not ride out.
    Server(ServerError),
}

impl fmt::Display for ChaosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosError::Emulator(e) => write!(f, "emulator: {e}"),
            ChaosError::Server(e) => write!(f, "server: {e}"),
        }
    }
}

impl std::error::Error for ChaosError {}

impl From<EmulatorError> for ChaosError {
    fn from(e: EmulatorError) -> Self {
        ChaosError::Emulator(e)
    }
}

impl From<ServerError> for ChaosError {
    fn from(e: ServerError) -> Self {
        ChaosError::Server(e)
    }
}

impl From<ChaosError> for perseus_core::Error {
    fn from(e: ChaosError) -> Self {
        perseus_core::Error::subsystem("chaos", e)
    }
}

/// Parameters of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Fault-plan seed (0 = fault-free).
    pub seed: u64,
    /// Iterations to simulate.
    pub iterations: usize,
    /// Policy governing the non-straggler pipelines.
    pub policy: Policy,
    /// Iterations between a straggler state change and the schedule that
    /// accounts for it (mirrors `RunConfig::reaction_delay_iters`).
    pub reaction_delay_iters: usize,
    /// Where to write the flight-recorder post-mortem. The server is
    /// built with it ([`ServerConfig::flight_dump`]) for containment dumps
    /// (lost/panicked characterizations), and the harness writes it at
    /// the end of any run that injected at least one fault. `None`
    /// disables dumping; the in-memory [`FlightSnapshot`] in the report
    /// is populated either way.
    pub flight_dump: Option<PathBuf>,
    /// Directory for the server's write-ahead journal + snapshots. With
    /// `Some`, the server is built via [`PerseusServer::open`] and
    /// [`FaultKind::CrashRestart`] kills and recovers it in place;
    /// with `None` the server is in-memory and a crash rebuilds it from
    /// scratch. For identical seeds *without* durability faults, durable
    /// and in-memory runs produce identical reports — durability is
    /// invisible to the planning path.
    pub durable_dir: Option<PathBuf>,
    /// Explicit fault schedule, overriding seed derivation. The scripted
    /// path (built with [`FaultPlan::from_events`]) is how tests place a
    /// [`FaultKind::DriftBurst`] at a known iteration; `None` derives the
    /// plan from `seed` as always.
    pub plan: Option<FaultPlan>,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            seed: 0,
            iterations: 50,
            policy: Policy::Perseus,
            reaction_delay_iters: 1,
            flight_dump: None,
            durable_dir: None,
            plan: None,
        }
    }
}

/// What a chaos run absorbed and produced.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Seed the fault plan was derived from.
    pub seed: u64,
    /// Iterations simulated.
    pub iterations: usize,
    /// Faults the plan scheduled.
    pub faults_scheduled: u64,
    /// Faults the harness actually fired (must equal `faults_scheduled`
    /// after a completed run).
    pub faults_injected: u64,
    /// Faults the *server* absorbed (drops, delays, panics, caps, skews);
    /// straggler spikes/recoveries are client-visible, not server faults.
    pub server_faults_absorbed: u64,
    /// Lookups the server answered from a stale frontier while degraded.
    pub degraded_lookups: u64,
    /// Straggler notifications the harness sent.
    pub notifications_sent: u64,
    /// Straggler notifications the server answered (post-retry).
    pub notifications_answered: u64,
    /// Client-side retries across all operations.
    pub client_retries: u64,
    /// Total cluster energy over the run, joules.
    pub total_energy_j: f64,
    /// Total wall-clock time of the run, seconds.
    pub total_time_s: f64,
    /// Shortest synchronized iteration time observed.
    pub min_iter_time_s: f64,
    /// The fault-free critical path: the all-max iteration time before
    /// any fault fired. No iteration can be faster than this.
    pub fault_free_critical_path_s: f64,
    /// The per-iteration flight record of the run: one
    /// [`IterationSample`] per simulated iteration (oldest evicted once
    /// the ring fills), with the cluster's energy split into useful /
    /// intrinsic / extrinsic joules. After a [`FaultKind::CrashRestart`]
    /// only post-restart samples remain — the in-memory ring dies with
    /// the process, exactly as it would in production.
    pub flight: FlightSnapshot,
    /// Crash-restarts the run survived (0 unless the plan schedules
    /// [`FaultKind::CrashRestart`]).
    pub crashes_survived: u64,
    /// Leader failovers the run survived (0 unless the plan schedules
    /// [`FaultKind::LeaderFailover`]).
    pub leader_failovers: u64,
    /// Journal-tail scribbles that actually hit a durable journal.
    pub journal_corruptions: u64,
    /// Durability counters summed over every server incarnation of the
    /// run (each crash-restart starts a fresh set). All zero for
    /// in-memory runs.
    pub durability: DurabilityStats,
    /// Every alert the streaming detectors emitted during the run, in
    /// emission order — accumulated from [`PerseusServer::observe_iteration`]
    /// as the run goes, so alerts survive a [`FaultKind::CrashRestart`]
    /// that resets the server-side pipeline.
    pub alerts: Vec<Alert>,
    /// Alerts that transitioned to firing.
    pub alerts_fired: u64,
    /// Alerts that cleared again (hysteresis satisfied).
    pub alerts_cleared: u64,
}

/// Accumulates `b` into `a`, field by field: each server incarnation
/// restarts its counters, so the run-level view is the sum.
fn accumulate(a: &mut DurabilityStats, b: DurabilityStats) {
    a.journal_appends += b.journal_appends;
    a.recoveries += b.recoveries;
    a.truncated_records += b.truncated_records;
    a.truncated_bytes += b.truncated_bytes;
    a.replayed_events += b.replayed_events;
    a.recharacterizations_replayed += b.recharacterizations_replayed;
    a.recharacterizations_avoided += b.recharacterizations_avoided;
    a.snapshots_written += b.snapshots_written;
    a.segments_written += b.segments_written;
    a.corrupt_snapshots += b.corrupt_snapshots;
}

/// A [`FaultInjector`] fed from a script: each characterization task pops
/// the next queued fault (fault-free when the queue is empty), so the
/// sequence of server-side faults is exactly the plan's, independent of
/// worker scheduling.
#[derive(Default)]
pub struct ScriptedInjector {
    queue: Mutex<VecDeque<SubmissionFault>>,
    injected: AtomicU64,
}

impl ScriptedInjector {
    /// An injector with an empty script.
    pub fn new() -> ScriptedInjector {
        ScriptedInjector::default()
    }

    /// Queues `fault` for the next characterization task.
    pub fn push(&self, fault: SubmissionFault) {
        self.queue.lock().push_back(fault);
    }

    /// Non-`None` faults handed out so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }
}

impl FaultInjector for ScriptedInjector {
    fn submission_fault(&self, _job: &str, _epoch: u64) -> SubmissionFault {
        let fault = self
            .queue
            .lock()
            .pop_front()
            .unwrap_or(SubmissionFault::None);
        if fault != SubmissionFault::None {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        fault
    }
}

/// Runs `cfg.iterations` iterations of `emu`'s cluster under the fault
/// plan derived from `cfg.seed`, driving a live [`PerseusServer`]
/// alongside the emulator's energy accounting.
///
/// Graceful-degradation contract exercised here:
///
/// * dropped/delayed/panicked submissions are retried by the
///   [`JobClient`] and absorbed by the server (stale frontier answers are
///   counted in `degraded_lookups`, never panics);
/// * frequency caps re-clamp both the emulator's and the server's
///   frontiers instead of invalidating them;
/// * clock skew never fires pending straggler timers early into the past.
///
/// # Errors
///
/// Emulation failures, or server errors that survive the retry budget.
pub fn run_chaos(emu: &mut Emulator, cfg: &ChaosConfig) -> Result<ChaosReport, ChaosError> {
    let config = emu.config().clone();
    // Durable runs draw from the extended fault vocabulary (crashes and
    // journal corruption need a durable directory to bite); in-memory
    // runs keep the historical stream so seeded traces stay byte-stable.
    let plan = match &cfg.plan {
        Some(plan) => plan.clone(),
        None if cfg.durable_dir.is_some() => {
            FaultPlan::from_seed_durable(cfg.seed, cfg.iterations, config.n_pipelines, &config.gpu)
        }
        None => FaultPlan::from_seed(cfg.seed, cfg.iterations, config.n_pipelines, &config.gpu),
    };

    // Server side: one registered job driven through the retrying client.
    // Every incarnation — the boot, each crash-restart, each promoted
    // follower — is built from this one config. The server shares the
    // emulator's telemetry handle, so one snapshot covers both sides of
    // the run (and stays inert when disabled). Containment dumps: if a
    // characterization is lost or panics and the server absorbs it, the
    // flight record is written immediately — the post-mortem exists even
    // if the run never reaches its end.
    let injector = Arc::new(ScriptedInjector::new());
    let server_cfg = ServerConfig {
        telemetry: emu.telemetry().clone(),
        fault_injector: Some(Arc::clone(&injector) as Arc<dyn FaultInjector>),
        flight_dump: cfg.flight_dump.clone(),
        ..ServerConfig::default()
    };
    let pipe = emu.pipe().clone();
    // The active durable directory: starts at the configured one but
    // moves to the promoted follower's after a LeaderFailover, so later
    // CrashRestarts recover the surviving lineage.
    let mut active_dir = cfg.durable_dir.clone();
    let boot = |dir: &Option<PathBuf>| -> Result<Arc<PerseusServer>, ChaosError> {
        Ok(Arc::new(match dir {
            Some(dir) => PerseusServer::open(dir, server_cfg.clone())?,
            None => PerseusServer::new(server_cfg.clone()),
        }))
    };
    let spec = || JobSpec {
        name: "chaos".into(),
        pipe: pipe.clone(),
        gpu: config.gpu.clone(),
        power_states: None,
    };
    let mut server = boot(&active_dir)?;
    match server.register_job(spec()) {
        // A durable directory that already holds this job (recovered
        // state, or a rerun over the same dir) is not an error.
        Err(ServerError::DuplicateJob(_)) => {}
        other => other?,
    }
    let mut client = JobClient::new(Arc::clone(&server), "chaos");
    let profiles = model_profiles(emu.pipe(), &config.gpu, emu.stages());
    client.submit_profiles_with_retry(&profiles, &config.frontier)?;

    // The fault-free floor, recorded before anything fires: no later
    // schedule (slowed, capped, or degraded) can beat all-max.
    let fault_free_critical_path_s = emu.plan_of(Policy::AllMax)?.select(None).time_s;
    let baseline_t_min = emu.frontier().t_min();

    let mut trace: Vec<TraceEvent> = Vec::new();
    let mut faults_injected = 0u64;
    let mut notifications_sent = 0u64;
    let mut notifications_answered = 0u64;
    let mut total_energy = 0.0;
    let mut total_time = 0.0;
    let mut min_iter_time = f64::INFINITY;
    let mut next_event = 0;
    let mut prev_degraded_lookups = 0u64;
    // Carries across server incarnations: volatile per-job counters and
    // durability stats restart at zero after a crash, so the run-level
    // totals accumulate what every retired incarnation had absorbed.
    let mut crashes_survived = 0u64;
    let mut leader_failovers = 0u64;
    let mut journal_corruptions = 0u64;
    let mut absorbed_carry = 0u64;
    let mut degraded_carry = 0u64;
    let mut retries_carry = 0u64;
    let mut durability_acc = DurabilityStats::default();
    let mut alerts: Vec<Alert> = Vec::new();

    for iter in 0..cfg.iterations {
        let faults_before = faults_injected;
        while next_event < plan.events().len() && plan.events()[next_event].at_iteration <= iter {
            let event = plan.events()[next_event];
            next_event += 1;
            faults_injected += 1;
            match event.kind {
                FaultKind::StragglerSpike { pipeline, cause } => {
                    trace.push(TraceEvent {
                        at_iteration: iter,
                        pipeline,
                        cause: Some(cause),
                    });
                    let degree = (emu.straggler_iteration_time(cause)? / baseline_t_min).max(1.0);
                    notifications_sent += 1;
                    client.notify_straggler_with_retry(pipeline, 0.0, degree)?;
                    notifications_answered += 1;
                }
                FaultKind::StragglerRecover { pipeline } => {
                    trace.push(TraceEvent {
                        at_iteration: iter,
                        pipeline,
                        cause: None,
                    });
                    notifications_sent += 1;
                    client.notify_straggler_with_retry(pipeline, 0.0, 1.0)?;
                    notifications_answered += 1;
                }
                FaultKind::DropSubmission => {
                    injector.push(SubmissionFault::Drop);
                    client.submit_profiles_with_retry(&profiles, &config.frontier)?;
                }
                FaultKind::DelaySubmission { millis } => {
                    injector.push(SubmissionFault::Delay(Duration::from_millis(millis)));
                    client.submit_profiles_with_retry(&profiles, &config.frontier)?;
                }
                FaultKind::PanicWorker => {
                    injector.push(SubmissionFault::Panic);
                    client.submit_profiles_with_retry(&profiles, &config.frontier)?;
                }
                FaultKind::FreqCap { cap } => {
                    emu.apply_freq_cap(cap)?;
                    server.apply_freq_cap("chaos", cap)?;
                }
                FaultKind::ClockSkew { skew_s } => {
                    server.skew_clock("chaos", skew_s)?;
                }
                FaultKind::CrashRestart => {
                    crashes_survived += 1;
                    // Bank the retiring incarnation's counters, then tear
                    // it down completely *before* reopening: dropping the
                    // server joins its worker pool, so no in-flight
                    // characterization can race the new journal handle.
                    if let Ok(status) = server.job_status("chaos") {
                        absorbed_carry += status.chaos.faults_injected;
                        degraded_carry += status.chaos.degraded_lookups;
                    }
                    accumulate(&mut durability_acc, server.durability());
                    retries_carry += client.retries();
                    drop(client);
                    drop(server);
                    server = boot(&active_dir)?;
                    match server.register_job(spec()) {
                        Err(ServerError::DuplicateJob(_)) => {}
                        other => other?,
                    }
                    client = JobClient::new(Arc::clone(&server), "chaos");
                    // A durable restart recovers the frontier from disk; an
                    // in-memory restart (or a recovery whose journal lost
                    // the characterization to corruption) must re-seed.
                    if server.job_status("chaos")?.deployment.is_none() {
                        client.submit_profiles_with_retry(&profiles, &config.frontier)?;
                    }
                    prev_degraded_lookups = 0;
                }
                FaultKind::CorruptJournalTail { len } => {
                    // Deterministic garbage: all-ones nibbles never parse
                    // as a valid record header.
                    let garbage = vec![0xFFu8; len.max(1)];
                    if server.corrupt_journal_tail(&garbage) {
                        journal_corruptions += 1;
                    }
                }
                FaultKind::DriftBurst { pipeline, degree } => {
                    // A sustained slowdown: identical plumbing to a
                    // straggler spike, but the degree is scripted, so the
                    // step the detectors must catch is exact.
                    trace.push(TraceEvent {
                        at_iteration: iter,
                        pipeline,
                        cause: Some(StragglerCause::Slowdown {
                            degree: degree.max(1.0),
                        }),
                    });
                    notifications_sent += 1;
                    client.notify_straggler_with_retry(pipeline, 0.0, degree.max(1.0))?;
                    notifications_answered += 1;
                }
                FaultKind::LeaderFailover => {
                    leader_failovers += 1;
                    // Bank the retiring leader's counters, exactly like a
                    // crash-restart: the promoted incarnation starts its
                    // volatile counters at zero.
                    if let Ok(status) = server.job_status("chaos") {
                        absorbed_carry += status.chaos.faults_injected;
                        degraded_carry += status.chaos.degraded_lookups;
                    }
                    accumulate(&mut durability_acc, server.durability());
                    retries_carry += client.retries();
                    drop(client);
                    if let Some(dir) = &active_dir {
                        // Ship the leader's journal to a fresh follower,
                        // kill the leader, promote the follower. The
                        // promoted server recovers the full job state from
                        // replication alone — its bounded pending tail,
                        // never the journal from genesis.
                        let follower_dir = dir.join(format!("failover-{leader_failovers}"));
                        let mut follower = FollowerServer::open(&follower_dir, server_cfg.clone())?;
                        let replicator = Replicator::new(Arc::clone(&server));
                        replicator.sync(&mut follower)?;
                        drop(replicator);
                        drop(server);
                        let (promoted, _report) = follower.promote()?;
                        server = Arc::new(promoted);
                        active_dir = Some(follower_dir);
                    } else {
                        // No journal to ship on an in-memory run: rebuild
                        // from scratch like CrashRestart.
                        drop(server);
                        server = boot(&active_dir)?;
                    }
                    match server.register_job(spec()) {
                        Err(ServerError::DuplicateJob(_)) => {}
                        other => other?,
                    }
                    client = JobClient::new(Arc::clone(&server), "chaos");
                    if server.job_status("chaos")?.deployment.is_none() {
                        client.submit_profiles_with_retry(&profiles, &config.frontier)?;
                    }
                    prev_degraded_lookups = 0;
                }
            }
        }

        let timeline = StragglerTimeline::new(&trace);
        let actual = timeline.t_prime_at(emu, iter)?;
        let believed = timeline.t_prime_at(emu, iter.saturating_sub(cfg.reaction_delay_iters))?;
        let report = emu.report_with_belief(cfg.policy, believed, actual)?;
        total_energy += report.total_j();
        total_time += report.sync_time_s;
        min_iter_time = min_iter_time.min(report.sync_time_s);

        // Flight recorder + streaming detectors: one sample per
        // iteration. The attribution twin of the report splits the same
        // joules into useful / intrinsic / extrinsic; the deployed
        // frequency envelope comes from the same believed-deadline
        // selection the report uses. Observe-only — no accumulator above
        // reads anything recorded here; the alerts the pipeline emits are
        // collected into the report but never steer the run.
        let breakdown = emu
            .attribute_with_belief(cfg.policy, believed, actual)?
            .total();
        let plan_out = emu.plan_of(cfg.policy)?;
        let (mut freq_min, mut freq_max) = (u32::MAX, 0u32);
        for freq in plan_out.select(believed).freqs.iter().flatten() {
            freq_min = freq_min.min(freq.0);
            freq_max = freq_max.max(freq.0);
        }
        let status = server.job_status("chaos")?;
        let degraded_now = status.chaos.degraded_lookups;
        alerts.extend(server.observe_iteration(
            "chaos",
            IterationSample {
                iteration: iter as u64,
                sync_time_s: report.sync_time_s,
                useful_j: breakdown.useful_j,
                intrinsic_j: breakdown.intrinsic_j,
                extrinsic_j: breakdown.extrinsic_j,
                freq_min_mhz: if freq_min == u32::MAX { 0 } else { freq_min },
                freq_max_mhz: freq_max,
                degraded: status.degraded,
                degraded_lookups: degraded_now - prev_degraded_lookups,
                faults: faults_injected - faults_before,
            },
        ));
        prev_degraded_lookups = degraded_now;
    }

    // End-of-run post-mortem: any faulted run leaves its time series on
    // disk next to whatever the server's containment path already wrote.
    if faults_injected > 0 {
        if let Some(path) = &cfg.flight_dump {
            let _ = server.obs().flight().dump_to(path);
        }
    }

    let stats = server
        .job_status("chaos")
        .map(|s| s.chaos)
        .unwrap_or_default();
    accumulate(&mut durability_acc, server.durability());
    Ok(ChaosReport {
        seed: cfg.seed,
        iterations: cfg.iterations,
        faults_scheduled: plan.len() as u64,
        faults_injected,
        server_faults_absorbed: absorbed_carry + stats.faults_injected,
        degraded_lookups: degraded_carry + stats.degraded_lookups,
        notifications_sent,
        notifications_answered,
        client_retries: retries_carry + client.retries(),
        total_energy_j: total_energy,
        total_time_s: total_time,
        min_iter_time_s: if min_iter_time.is_finite() {
            min_iter_time
        } else {
            0.0
        },
        fault_free_critical_path_s,
        flight: server.flight_record(),
        crashes_survived,
        leader_failovers,
        journal_corruptions,
        durability: durability_acc,
        alerts_fired: alerts
            .iter()
            .filter(|a| a.state == AlertState::Firing)
            .count() as u64,
        alerts_cleared: alerts
            .iter()
            .filter(|a| a.state == AlertState::Cleared)
            .count() as u64,
        alerts,
    })
}
