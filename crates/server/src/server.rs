//! The Perseus server: frontier characterization, schedule cache, and the
//! straggler notification state machine (§3.2 workflow steps ②–⑤).
//!
//! The server is a concurrent planning service. Characterization (the
//! expensive part — Algorithm 1 over the job's DAG) runs on a worker
//! pool; [`PerseusServer::submit_profiles`] returns a
//! [`CharacterizeTicket`] immediately instead of blocking the caller.
//! Straggler notifications and deployment lookups are answered from the
//! job's last cached frontier without waiting on in-flight
//! characterizations, exactly the paper's observation that reacting to a
//! straggler is a frontier *lookup*, not a re-plan. When a
//! characterization completes it atomically swaps the job's frontier and
//! re-deploys under the job's write lock, so readers never observe a
//! half-built frontier.
//!
//! Each job owns a [`FrontierSolver`], so re-characterizations (fresh
//! profiles mid-training) reuse the job's edge-centric DAG and
//! topological order instead of rebuilding them.
//!
//! Every server is built from one [`ServerConfig`], fixed for its
//! lifetime. Every job-state mutation goes through one journaled-write
//! helper, and every characterization — a worker's or a replay's — goes
//! through one plan function (cache-or-solve, then the Kareus sleep pass).
//!
//! # Durability
//!
//! A server opened with [`PerseusServer::open`] journals every
//! state-mutating event to a checksummed write-ahead log and periodically
//! compacts it into a snapshot (see the [`crate::store`] module docs).
//! Reopening the same directory replays snapshot + journal tail and
//! reconstructs bit-identical state — [`PerseusServer::state_fingerprint`]
//! of a crashed-and-recovered server equals that of an uninterrupted one,
//! and so do the deployments it issues. Servers built with
//! [`PerseusServer::new`] are purely in-memory and skip all of this.

use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::RwLock;
use perseus_core::{
    insert_sleep, CoreError, EnergySchedule, FrontierOptions, FrontierSolver, ParetoFrontier,
    PlanCache, PlanContext, PlanFingerprint, SleepPlan, SolverStats,
};
use perseus_gpu::{FreqMHz, GpuSpec, PowerStateModel};
use perseus_pipeline::{OpKey, PipelineDag};
use perseus_profiler::{scale_profile, ProfileDb, ProfileDelta};
use perseus_store::{Persist, Record, StoreError};
use perseus_telemetry::{
    span, Alert, Endpoints, FlightSnapshot, FlightSummary, IterationSample, ObsPipeline, SloStatus,
    Telemetry, TelemetryServer,
};

use crate::replica::ReplicationStats;
use crate::store::{
    fingerprint_bytes, open_dir, DurabilityStats, JobSnapshot, JournalEvent, OpenedDir, Segment,
    ServerSnapshot, Store, DEFAULT_SNAPSHOT_EVERY,
};

/// How long [`CharacterizeTicket::wait`] is willing to sit on a silent
/// channel before declaring the worker lost. Long enough for any real
/// characterization (they complete in milliseconds; injected delays are
/// bounded well below this), short enough that a wedged or dead worker
/// surfaces as a typed error instead of a hung client.
pub const DEFAULT_LIVENESS_TIMEOUT: Duration = Duration::from_secs(60);

/// Drift-watcher threshold: a job re-characterizes once any computation's
/// pending time or energy factor moves 5% from where the last plan left
/// it (see [`PerseusServer::ingest_drift`]).
pub const DRIFT_THRESHOLD: f64 = 0.05;

/// A training job registration: the computation DAG plus the GPU model the
/// pipeline runs on ("a training job is primarily specified by its
/// computation DAG", §3.2).
#[derive(Debug)]
pub struct JobSpec {
    /// Unique job name.
    pub name: String,
    /// The pipeline's computation DAG for one iteration.
    pub pipe: PipelineDag,
    /// GPU model of the pipeline's accelerators.
    pub gpu: GpuSpec,
    /// Sleep states the accelerators may enter during pipeline bubbles.
    /// `Some` makes this a Kareus job: every characterization also derives
    /// per-point [`SleepPlan`]s, and deployments carry the sleep schedule
    /// for the deployed frontier point. `None` plans frequencies only
    /// (classic Perseus), bit-identical to servers predating power states.
    pub power_states: Option<PowerStateModel>,
}

/// Errors from server operations.
#[derive(Debug)]
pub enum ServerError {
    /// No job registered under this name.
    UnknownJob(String),
    /// A job with this name already exists.
    DuplicateJob(String),
    /// The job has not been characterized yet (no profiles submitted).
    NotCharacterized(String),
    /// Frontier characterization failed.
    Core(CoreError),
    /// Straggler degree must be at least 1.0 (1.0 = back to normal).
    InvalidDegree(f64),
    /// A newer profile submission finished first; this characterization
    /// was discarded without deploying.
    Superseded(String),
    /// The server shut down before the characterization finished.
    Shutdown(String),
    /// The submission was lost in flight (injected fault or transport
    /// drop); the client should retry.
    SubmissionLost(String),
    /// The characterization worker panicked; the job keeps serving its
    /// last deployed frontier and the client should resubmit.
    CharacterizationPanicked(String),
    /// A client gave up after exhausting its retry budget.
    RetriesExhausted(String),
    /// The characterization worker went silent past
    /// [`DEFAULT_LIVENESS_TIMEOUT`] in [`CharacterizeTicket::wait`]:
    /// neither a result nor a channel close arrived. The submission may still land later;
    /// resubmitting is safe because newer epochs supersede older ones.
    WorkerLost(String),
    /// A submitted profile was structurally invalid (empty, NaN or
    /// non-positive time/energy, or a non-monotone frequency table) and
    /// was rejected at the API boundary before any characterization ran.
    InvalidProfile {
        /// The job the submission targeted.
        job: String,
        /// What was wrong with the profile.
        reason: String,
    },
    /// The durable backing store failed (journal or snapshot I/O,
    /// unrecoverable corruption).
    Store(StoreError),
    /// Admission control rejected the submission: admitting it would put
    /// more characterizations in flight than [`ServerConfig::max_inflight`]
    /// allows. A batch is admitted whole or not at all, so it needs one
    /// free slot per entry. Backpressure, not failure — the client should
    /// back off and retry ([`crate::JobClient`] does).
    Overloaded {
        /// The job the submission targeted (a batch's first job).
        job: String,
        /// Characterizations in flight when the submission arrived.
        inflight: u64,
        /// The configured in-flight bound.
        limit: u64,
    },
    /// A per-tenant rate limit rejected the call: the tenant's token
    /// bucket is empty (see [`crate::FleetServer`]). The tenant must wait
    /// for refill; retrying immediately cannot succeed, so clients do
    /// not retry this.
    QuotaExhausted {
        /// The tenant whose bucket ran dry.
        tenant: String,
    },
    /// The call reached a replication follower, which serves reads only.
    /// `hint` names where the leader was last known to be (empty when
    /// unknown); [`crate::JobClient`] treats this as retryable and
    /// re-resolves its target, so callers ride through failover.
    NotLeader {
        /// Last known leader location, or empty.
        hint: String,
    },
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::UnknownJob(n) => write!(f, "unknown job {n:?}"),
            ServerError::DuplicateJob(n) => write!(f, "job {n:?} already registered"),
            ServerError::NotCharacterized(n) => write!(f, "job {n:?} has no frontier yet"),
            ServerError::Core(e) => write!(f, "characterization failed: {e}"),
            ServerError::InvalidDegree(d) => write!(f, "invalid straggler degree {d}"),
            ServerError::Superseded(n) => {
                write!(
                    f,
                    "characterization for job {n:?} superseded by a newer submission"
                )
            }
            ServerError::Shutdown(n) => {
                write!(f, "server shut down before characterizing job {n:?}")
            }
            ServerError::SubmissionLost(n) => {
                write!(f, "profile submission for job {n:?} was lost in flight")
            }
            ServerError::CharacterizationPanicked(n) => {
                write!(f, "characterization worker for job {n:?} panicked")
            }
            ServerError::RetriesExhausted(n) => {
                write!(
                    f,
                    "retry budget exhausted talking to the server about job {n:?}"
                )
            }
            ServerError::WorkerLost(n) => {
                write!(
                    f,
                    "characterization worker for job {n:?} went silent past the liveness timeout"
                )
            }
            ServerError::InvalidProfile { job, reason } => {
                write!(f, "invalid profile submitted for job {job:?}: {reason}")
            }
            ServerError::Store(e) => write!(f, "durable store failed: {e}"),
            ServerError::Overloaded {
                job,
                inflight,
                limit,
            } => {
                write!(
                    f,
                    "submission for job {job:?} rejected: {inflight} characterizations \
                     in flight (limit {limit})"
                )
            }
            ServerError::QuotaExhausted { tenant } => {
                write!(f, "tenant {tenant:?} exhausted its rate-limit quota")
            }
            ServerError::NotLeader { hint } => {
                if hint.is_empty() {
                    write!(f, "this server is a replication follower, not the leader")
                } else {
                    write!(
                        f,
                        "this server is a replication follower; the leader is at {hint:?}"
                    )
                }
            }
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Core(e) => Some(e),
            ServerError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for ServerError {
    fn from(e: StoreError) -> Self {
        ServerError::Store(e)
    }
}

impl From<CoreError> for ServerError {
    fn from(e: CoreError) -> Self {
        ServerError::Core(e)
    }
}

impl From<ServerError> for perseus_core::Error {
    fn from(e: ServerError) -> perseus_core::Error {
        perseus_core::Error::subsystem("server", e)
    }
}

/// A schedule deployment pushed to the clients.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// Monotonic version; clients apply the highest version they have seen.
    pub version: u64,
    /// The straggler iteration time this deployment answers (`T_min` when
    /// there is no straggler).
    pub t_prime: f64,
    /// Planned iteration time of the deployed frontier point.
    pub planned_time_s: f64,
    /// The deployed schedule.
    pub schedule: EnergySchedule,
    /// The sleep schedule for the deployed point, when the job was
    /// registered with power states ([`JobSpec::power_states`]); `None`
    /// for frequency-only jobs.
    pub sleep: Option<SleepPlan>,
}

/// A fault to apply to one profile submission, decided by a
/// [`FaultInjector`] as the characterization task starts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SubmissionFault {
    /// No fault: characterize and deploy normally.
    None,
    /// The submission is lost: the ticket resolves to
    /// [`ServerError::SubmissionLost`] and nothing is characterized.
    Drop,
    /// The characterization stalls for this long (real time) before
    /// running; clients with shorter timeouts will retry, and epoch
    /// supersession discards whichever copy loses the race.
    Delay(Duration),
    /// The characterization worker panics mid-task. The panic is
    /// contained: the worker survives, the job keeps its last frontier,
    /// and the ticket resolves to
    /// [`ServerError::CharacterizationPanicked`].
    Panic,
}

/// Decides which faults hit the server's internals. Implemented by the
/// chaos layer; production servers have none installed and take the
/// fault-free path unconditionally.
pub trait FaultInjector: Send + Sync {
    /// Consulted once per characterization task, before it runs.
    fn submission_fault(&self, job: &str, epoch: u64) -> SubmissionFault;
}

/// Handle for an in-flight characterization; redeemable for the
/// deployment it produced.
///
/// Dropping the ticket is fine — the characterization still completes and
/// deploys; only the notification is discarded.
#[derive(Debug)]
pub struct CharacterizeTicket {
    job: String,
    rx: Receiver<Result<Deployment, ServerError>>,
}

impl CharacterizeTicket {
    /// Blocks until the characterization finishes and returns the
    /// deployment it issued. Never blocks unboundedly: if the worker goes
    /// silent for [`DEFAULT_LIVENESS_TIMEOUT`] (neither a result nor a
    /// channel close — a wedged or dead worker), this resolves to
    /// [`ServerError::WorkerLost`] instead of hanging the client forever.
    ///
    /// # Errors
    ///
    /// Characterization failures, [`ServerError::Superseded`] if a newer
    /// submission won, [`ServerError::Shutdown`] if the server was
    /// dropped first, or [`ServerError::WorkerLost`] on liveness timeout.
    pub fn wait(self) -> Result<Deployment, ServerError> {
        self.wait_timeout(DEFAULT_LIVENESS_TIMEOUT)
            .unwrap_or(Err(ServerError::WorkerLost(self.job)))
    }

    /// Blocks until the characterization finishes or `timeout` elapses.
    /// `None` means the timeout hit — the submission may still land
    /// later; resubmitting is safe because newer epochs supersede older
    /// ones.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Deployment, ServerError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => Some(result),
            Err(RecvTimeoutError::Disconnected) => {
                Some(Err(ServerError::Shutdown(self.job.clone())))
            }
            Err(RecvTimeoutError::Timeout) => None,
        }
    }

    /// The job this ticket belongs to.
    pub fn job(&self) -> &str {
        &self.job
    }
}

/// Which side of the replication pair a server is on. Leaders accept
/// mutations and ship their journal; followers apply shipped records and
/// answer every mutation with [`ServerError::NotLeader`] until promoted
/// (see [`crate::FollowerServer::promote`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Accepts mutations; the replication source.
    Leader,
    /// Read-only replica applying the leader's shipped journal.
    Follower,
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Role::Leader => write!(f, "leader"),
            Role::Follower => write!(f, "follower"),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct PendingStraggler {
    fire_at: f64,
    gpu_id: usize,
    degree: f64,
}

/// Degradation and fault counters for one job, surfaced next to the
/// solver's `runs`/`artifact_reuses` stats. A production dashboard would
/// alert on `degraded_lookups` climbing: it means clients are being
/// answered from a frontier older than their latest profile submission.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Frontier lookups served while the job was degraded (last
    /// characterization lost or panicked; answers come from the previous
    /// deployed frontier).
    pub degraded_lookups: u64,
    /// Faults the server absorbed for this job: lost/delayed/panicked
    /// submissions, frequency caps, clock skews.
    pub faults_injected: u64,
}

/// Everything the server knows about one job, in one read
/// ([`PerseusServer::job_status`]).
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// The schedule currently deployed to the job's clients (`None` before
    /// the first deployment).
    pub deployment: Option<Deployment>,
    /// Characterization reuse counters of the job's solver.
    pub solver: SolverStats,
    /// Degradation and fault counters.
    pub chaos: ChaosStats,
    /// Whether the job is currently degraded: its last characterization
    /// attempt was lost or panicked, so lookups answer from the previous
    /// deployed frontier until a fresh submission lands.
    pub degraded: bool,
    /// Submission epoch of the deployed frontier (0 = none yet).
    pub epoch: u64,
    /// Summary of the server's flight recorder (shared across jobs).
    pub flight: FlightSummary,
    /// Durability counters of the server's backing store (shared across
    /// jobs; all zero for an in-memory server).
    pub durability: DurabilityStats,
    /// Per-objective SLO health with error-budget accounting, from the
    /// server's observability pipeline (shared across jobs; empty until
    /// iterations are observed — budgets only burn on evaluated ticks).
    pub slo: Vec<SloStatus>,
    /// Whether the answering server is the leader or a replication
    /// follower (shared across jobs).
    pub role: Role,
    /// Records shipped from the leader but not yet applied here; always 0
    /// on a leader (shared across jobs).
    pub replication_lag: u64,
}

/// How a replayed journal event was applied — drives the
/// `recharacterizations_replayed` vs `recharacterizations_avoided`
/// durability counters.
pub(crate) enum ReplayOutcome {
    /// A `Characterized` event re-ran the solver (or was deduplicated /
    /// unapplied — either way, no cache lookup answered it).
    CharacterizedSolved,
    /// A `Characterized` event was answered from the attached plan cache
    /// without running the solver.
    CharacterizedCached,
    /// Any other event.
    Other,
}

/// What [`PerseusServer::recover_state`] restored and replayed.
#[derive(Debug, Default)]
pub(crate) struct Recovery {
    /// Sequence of the last journal record the state reflects: the
    /// snapshot's watermark, or the last record replayed past it.
    pub applied_seq: u64,
    /// Journal events replayed.
    pub replayed_events: u64,
    /// Characterizations the replay re-ran the solver for.
    pub recharacterizations_replayed: u64,
    /// Characterizations restored from the snapshot or answered by the
    /// plan cache instead.
    pub recharacterizations_avoided: u64,
    /// A record passed its CRC but failed to decode; replay stopped there.
    pub poisoned: bool,
}

/// An admission slot for one in-flight characterization. Decrements the
/// server's in-flight counter on drop, so a task that is dropped unrun
/// (worker pool shutting down) releases its slot exactly like one that
/// completed.
struct InflightPermit {
    counter: Arc<AtomicU64>,
}

impl Drop for InflightPermit {
    fn drop(&mut self) {
        self.counter.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Drift-watcher bookkeeping for one computation: the cumulative factors
/// the last re-plan already absorbed (`applied`) and the most recently
/// ingested ones (`latest`). The watcher trips on the *pending* ratio
/// `latest / applied`, so each re-plan resets the trigger without the
/// drift source having to know re-plans happen.
#[derive(Debug, Clone, Copy)]
struct DriftAccum {
    applied: (f64, f64),
    latest: (f64, f64),
}

impl Default for DriftAccum {
    fn default() -> DriftAccum {
        DriftAccum {
            applied: (1.0, 1.0),
            latest: (1.0, 1.0),
        }
    }
}

impl DriftAccum {
    /// `(time, energy)` factors accumulated since the last re-plan.
    fn pending_factors(&self) -> (f64, f64) {
        (
            self.latest.0 / self.applied.0,
            self.latest.1 / self.applied.1,
        )
    }

    /// Largest pending relative deviation.
    fn pending_magnitude(&self) -> f64 {
        let (t, e) = self.pending_factors();
        (t - 1.0).abs().max((e - 1.0).abs())
    }

    /// Marks the pending drift as absorbed by a re-plan.
    fn commit(&mut self) {
        self.applied = self.latest;
    }
}

/// Mutable per-job state, guarded by the job's `RwLock`. The default is a
/// freshly registered job's.
#[derive(Default)]
struct JobMut {
    /// The characterized frontier with its sleep plans (recomputed
    /// whenever the frontier changes, for jobs that plan sleep states).
    /// Replaced whole, never mutated, so the segment key it caches for
    /// durable snapshots always matches its bytes.
    segment: Option<Arc<Segment>>,
    /// Epoch of the submission that produced `segment` (0 = none yet).
    characterized_epoch: u64,
    /// Profiles behind `segment`, kept for cap-induced re-clamps.
    profiles: Option<ProfileDb<OpKey>>,
    /// The last characterization attempt died (lost or panicked);
    /// lookups fall back to the previous frontier until a fresh
    /// submission deploys.
    degraded: bool,
    /// Active straggler degree per accelerator id.
    stragglers: HashMap<usize, f64>,
    pending: Vec<PendingStraggler>,
    clock_s: f64,
    version: u64,
    deployed: Option<Deployment>,
    /// Structural fingerprint of the deployed frontier's planning inputs,
    /// when a fleet plan cache is attached. Volatile (not persisted, not
    /// part of [`PerseusServer::state_fingerprint`]): it is re-derived on
    /// the next characterization and only drives targeted cache
    /// invalidation when a re-characterization changes the structure.
    plan_fingerprint: Option<PlanFingerprint>,
    /// Options of the last winning characterization, reused by
    /// drift-triggered re-plans. Volatile (not persisted, not
    /// fingerprinted): recovery replays re-set it from the journaled
    /// `Characterized` event, and the fallback is the default options.
    last_opts: Option<FrontierOptions>,
    /// Drift-watcher state per computation (see [`DriftAccum`]).
    /// Volatile: drift deltas arriving before the threshold trips are
    /// observation, not durable planning state.
    drift: HashMap<OpKey, DriftAccum>,
}

impl JobMut {
    /// The characterized frontier, if any.
    fn frontier(&self) -> Option<&Arc<ParetoFrontier>> {
        self.segment.as_ref().map(|s| s.frontier())
    }

    /// Swaps in the plan of the winning submission `epoch`, made from
    /// `profiles` and `opts`, and clears degradation. Returns the plan
    /// fingerprint it replaced.
    fn install(
        &mut self,
        epoch: u64,
        planned: Planned,
        profiles: ProfileDb<OpKey>,
        opts: &FrontierOptions,
    ) -> Option<PlanFingerprint> {
        self.characterized_epoch = epoch;
        self.segment = Some(Arc::new(planned.segment));
        self.profiles = Some(profiles);
        self.degraded = false;
        self.last_opts = Some(opts.clone());
        std::mem::replace(&mut self.plan_fingerprint, planned.fingerprint)
    }
}

/// What [`Job::plan`] produced for one characterization.
struct Planned {
    /// The frontier with its sleep plans.
    segment: Segment,
    /// The plan cache answered; the solver did not run.
    cache_hit: bool,
    /// Structural fingerprint of the planning inputs; `Some` only when a
    /// plan cache is configured.
    fingerprint: Option<PlanFingerprint>,
}

/// One registered job: immutable identity plus lock-guarded state. Shared
/// between the server map and in-flight characterization tasks.
struct Job {
    name: String,
    pipe: PipelineDag,
    gpu: GpuSpec,
    /// Sleep states available to this job's accelerators; `None` plans
    /// frequencies only.
    power: Option<PowerStateModel>,
    /// Reusable characterization artifacts for this job's pipeline.
    solver: FrontierSolver,
    /// Monotonic submission counter; newer submissions supersede older
    /// ones even if they finish out of order.
    next_epoch: AtomicU64,
    /// Lookups answered while degraded (see [`ChaosStats`]).
    degraded_lookups: AtomicU64,
    /// Faults absorbed for this job (see [`ChaosStats`]).
    faults_injected: AtomicU64,
    telemetry: Telemetry,
    state: RwLock<JobMut>,
}

impl Job {
    /// The one constructor, for registration and snapshot restore alike.
    /// The solver is built from the pipeline (deterministic artifacts, so
    /// never persisted); the volatile fault counters start at zero.
    fn new(spec: JobSpec, next_epoch: u64, state: JobMut, telemetry: &Telemetry) -> Job {
        Job {
            solver: FrontierSolver::with_telemetry(&spec.pipe, telemetry.clone()),
            name: spec.name,
            pipe: spec.pipe,
            gpu: spec.gpu,
            power: spec.power_states,
            next_epoch: AtomicU64::new(next_epoch),
            degraded_lookups: AtomicU64::new(0),
            faults_injected: AtomicU64::new(0),
            telemetry: telemetry.clone(),
            state: RwLock::new(state),
        }
    }

    /// The one plan path, shared by the worker and recovery replay: the
    /// frontier for `profiles` — from `cache` when it holds the
    /// structure's frontier, from the job's solver otherwise — plus its
    /// Kareus sleep plans. At most one planning context is built per
    /// plan, and a frequency-only cache hit builds none; the shared
    /// frontier is bit-identical to a fresh solve (planning is
    /// deterministic in the fingerprinted inputs).
    fn plan(
        &self,
        profiles: &ProfileDb<OpKey>,
        opts: &FrontierOptions,
        cache: Option<&PlanCache>,
    ) -> Result<Planned, CoreError> {
        let build = || PlanContext::new(&self.pipe, &self.gpu, profiles.clone());
        // `built` is the context the solve fitted; `None` only on a hit.
        let (frontier, built, fingerprint) = match cache {
            Some(cache) => {
                let (frontier, built, fp) = self.solver.characterize_cached(
                    &self.pipe,
                    &self.gpu,
                    profiles,
                    opts,
                    self.power.as_ref(),
                    cache,
                )?;
                (frontier, built, Some(fp))
            }
            None => {
                let ctx = build()?;
                (
                    Arc::new(self.solver.characterize(&ctx, opts)?),
                    Some(ctx),
                    None,
                )
            }
        };
        let cache_hit = built.is_none();
        let sleep = match self.power {
            Some(_) => {
                let ctx = match built {
                    Some(ctx) => ctx,
                    None => build()?,
                };
                self.sleep_plans(&ctx, &frontier)
            }
            None => None,
        };
        Ok(Planned {
            segment: Segment::new(frontier, sleep),
            cache_hit,
            fingerprint,
        })
    }

    /// Kareus sleep plans for every point of `frontier`, when this job was
    /// registered with power states; `None` for frequency-only jobs.
    /// Derived from the frontier's schedules alone (never from `T'`), so
    /// the result is as straggler-independent as the frontier itself.
    fn sleep_plans(&self, ctx: &PlanContext, frontier: &ParetoFrontier) -> Option<Vec<SleepPlan>> {
        let model = self.power.as_ref()?;
        Some(
            frontier
                .points()
                .iter()
                .map(|p| insert_sleep(ctx, &p.schedule, model))
                .collect(),
        )
    }

    /// Effective straggler iteration time given the active stragglers:
    /// `T' = T_min × max(degree)`.
    fn effective_t_prime(state: &JobMut) -> f64 {
        let frontier = state
            .frontier()
            .expect("deploy only after characterization");
        let worst = state.stragglers.values().copied().fold(1.0, f64::max);
        frontier.t_min() * worst
    }

    /// Issues a new deployment from the cached frontier. Caller holds the
    /// state write lock; the frontier must be present. A lookup served
    /// while the job is degraded (last characterization died) is counted —
    /// the answer is correct for the *previous* profiles, which is the
    /// graceful-degradation contract.
    fn deploy_locked(&self, state: &mut JobMut) -> Deployment {
        let t0 = self.telemetry.now();
        if state.degraded {
            self.degraded_lookups.fetch_add(1, Ordering::Relaxed);
            if self.telemetry.is_enabled() {
                self.telemetry
                    .counter_with(
                        "perseus_server_degraded_lookups_total",
                        &[("job", &self.name)],
                    )
                    .inc();
            }
        }
        let t_prime = Self::effective_t_prime(state);
        let segment = state.segment.as_ref().expect("characterized");
        let idx = segment.frontier().lookup_index(t_prime);
        let point = &segment.frontier().points()[idx];
        state.version += 1;
        let deployment = Deployment {
            version: state.version,
            t_prime,
            planned_time_s: point.planned_time_s,
            schedule: point.schedule.clone(),
            sleep: segment.sleep().and_then(|plans| plans.get(idx)).cloned(),
        };
        state.deployed = Some(deployment.clone());
        if let Some(t0) = t0 {
            self.telemetry
                .histogram_with("perseus_server_lookup_seconds", &[("job", &self.name)])
                .observe_duration(t0.elapsed());
        }
        deployment
    }

    /// Fires every pending straggler notification due at the current
    /// clock. Caller holds the state write lock.
    fn fire_due_locked(&self, state: &mut JobMut) -> Vec<Deployment> {
        let now = state.clock_s;
        let mut due: Vec<PendingStraggler> = state
            .pending
            .iter()
            .copied()
            .filter(|p| p.fire_at <= now)
            .collect();
        state.pending.retain(|p| p.fire_at > now);
        due.sort_by(|a, b| a.fire_at.total_cmp(&b.fire_at));
        let mut deployments = Vec::new();
        for p in due {
            if p.degree > 1.0 {
                state.stragglers.insert(p.gpu_id, p.degree);
            } else {
                state.stragglers.remove(&p.gpu_id);
            }
            if state.segment.is_some() {
                deployments.push(self.deploy_locked(state));
            }
        }
        deployments
    }
}

type Task = Box<dyn FnOnce() + Send + 'static>;

/// A fixed pool of worker threads draining a task channel. Dropping the
/// pool closes the channel and joins the workers.
struct WorkerPool {
    tx: Option<Sender<Task>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    fn new(n_workers: usize) -> WorkerPool {
        let (tx, rx) = unbounded::<Task>();
        let workers = (0..n_workers.max(1))
            .map(|i| {
                let rx: Receiver<Task> = rx.clone();
                std::thread::Builder::new()
                    .name(format!("perseus-plan-{i}"))
                    .spawn(move || {
                        while let Ok(task) = rx.recv() {
                            task();
                        }
                    })
                    .expect("spawn planning worker")
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            workers,
        }
    }

    fn submit(&self, task: Task) {
        let tx = self.tx.as_ref().expect("pool alive while server exists");
        // A send failure means the workers are gone (server shutting
        // down); dropping the task resolves its ticket to `Shutdown`.
        drop(tx.send(task));
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Close the channel so idle workers exit, then join them.
        self.tx = None;
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// The one write path: applies `mutate` to the state behind `lock` (the
/// jobs map or one job's state) and journals `event` if it returned `Ok`.
/// Only durable servers build and encode the event, before any lock:
/// profile databases are the largest thing the journal carries. The
/// journal lock is taken before `lock`, keeping the order journal → jobs
/// map → job state, and held until the append lands, so a snapshot (which
/// holds the journal lock) always sees state and journal agree.
fn journaled<S, T>(
    store: Option<&Store>,
    lock: &RwLock<S>,
    event: impl FnOnce() -> JournalEvent,
    mutate: impl FnOnce(&mut S) -> Result<T, ServerError>,
) -> Result<T, ServerError> {
    let bytes = store.map(|_| event().to_bytes());
    let mut journal = store.map(|s| s.journal.lock());
    let mut state = lock.write();
    let out = mutate(&mut state);
    if let (Ok(_), Some(store), Some(journal), Some(bytes)) =
        (&out, store, journal.as_mut(), bytes.as_ref())
    {
        store.append_locked(journal, bytes);
    }
    out
}

/// Everything a [`PerseusServer`] is built with, fixed for the server's
/// lifetime: [`PerseusServer::new`] builds an in-memory server from it,
/// [`PerseusServer::open`] a durable one. Nothing can attach a cache
/// between a solve and its replay, or swap an injector mid-run.
///
/// No value here changes planned state: a plan-cache hit is bit-identical
/// to a solve, and snapshot cadence is not part of
/// [`PerseusServer::state_fingerprint`].
#[derive(Clone)]
pub struct ServerConfig {
    /// Planning worker threads (floored at 1). Default: one per available
    /// core, capped at 4.
    pub workers: usize,
    /// Where the server emits: per-job queue latency
    /// (`perseus_server_queue_seconds`), deployment-lookup latency
    /// (`perseus_server_lookup_seconds`), degraded lookups
    /// (`perseus_server_degraded_lookups_total`), worker-pool occupancy
    /// (`perseus_server_workers_busy`), a `characterize` span per
    /// submission, and the durable store's
    /// `perseus_store_{journal_appends,recoveries,truncated_records}_total`.
    /// Every job's [`FrontierSolver`] inherits the handle. Default:
    /// disabled.
    pub telemetry: Telemetry,
    /// The fleet-wide cross-job plan cache, consulted by every
    /// characterization before the solver runs — recovery replay
    /// included, so a cache recovered from its own write-ahead log (see
    /// [`PlanCache::open`]) turns replayed re-characterizations into
    /// lookups, counted as `recharacterizations_avoided` in
    /// [`DurabilityStats`]. A hit is counted in the job's
    /// [`SolverStats::cache_hits`]. Default: none.
    pub plan_cache: Option<Arc<PlanCache>>,
    /// Admission bound on in-flight characterizations; submissions past it
    /// are rejected with [`ServerError::Overloaded`]. `0` (the default)
    /// means unbounded.
    pub max_inflight: u64,
    /// Journal appends between automatic snapshots, which also compact
    /// the journal (floored at 1; default 64). Low values trade journal
    /// length for snapshot writes; tests use 1 to snapshot after every
    /// append. Unused by in-memory servers.
    pub snapshot_every: u64,
    /// Decides the fault of each characterization task, consulted once
    /// per submission. Chaos-testing hook; `None` (the default, and
    /// production) takes the fault-free path.
    pub fault_injector: Option<Arc<dyn FaultInjector>>,
    /// Where to write the flight record as a JSON post-mortem when a
    /// submission is lost or a characterization panic is contained. Dump
    /// failures are swallowed: a broken post-mortem path must never take
    /// down fault containment itself. Default: none (no dumps).
    pub flight_dump: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .min(4),
            telemetry: Telemetry::disabled(),
            plan_cache: None,
            max_inflight: 0,
            snapshot_every: DEFAULT_SNAPSHOT_EVERY,
            fault_injector: None,
            flight_dump: None,
        }
    }
}

/// Where a server stands in replication. Followers reject every public
/// mutator with [`ServerError::NotLeader`]; replicated applies go through
/// [`PerseusServer::replay_event`], which bypasses the guard by
/// construction.
struct ReplicationState {
    role: Role,
    /// Where [`ServerError::NotLeader`] points callers (empty = unknown).
    leader_hint: String,
    /// Counters mirrored from the follower machinery so [`JobStatus`] and
    /// `/metrics` can surface them; all zero on leaders and standalone
    /// servers.
    stats: ReplicationStats,
}

/// The Perseus server: one per training cluster, managing any number of
/// jobs. `Send + Sync` — share it behind an `Arc` and call it from any
/// thread.
pub struct PerseusServer {
    cfg: ServerConfig,
    jobs: RwLock<HashMap<String, Arc<Job>>>,
    pool: WorkerPool,
    /// Streaming observability: the flight recorder (dumped as a
    /// post-mortem when a submission is lost or a characterization panic
    /// is contained), drift detectors, SLO budgets. Fed by
    /// [`PerseusServer::observe_iteration`]; observe-only (never
    /// influences planning), so enabling it keeps planner output
    /// byte-identical.
    obs: Arc<ObsPipeline>,
    /// Whether the lookup-latency histogram of the first observed job has
    /// been attached to the pipeline's SLO engine.
    obs_lookup_attached: AtomicBool,
    /// Durable backing (journal + snapshots); `None` for in-memory
    /// servers. Lock order everywhere: journal → jobs map → job state.
    store: Option<Arc<Store>>,
    /// Characterizations currently admitted but not yet completed.
    inflight: Arc<AtomicU64>,
    /// High-water mark of `inflight` (stress tests assert it never
    /// exceeds the configured bound).
    peak_inflight: AtomicU64,
    replication: RwLock<ReplicationState>,
    /// Drift-triggered re-characterizations submitted so far.
    drift_replans: AtomicU64,
}

impl PerseusServer {
    /// An in-memory server built from `cfg`: it journals nothing and
    /// starts empty.
    pub fn new(cfg: ServerConfig) -> PerseusServer {
        PerseusServer {
            jobs: RwLock::new(HashMap::new()),
            pool: WorkerPool::new(cfg.workers),
            obs: Arc::new(ObsPipeline::default()),
            obs_lookup_attached: AtomicBool::new(false),
            store: None,
            inflight: Arc::new(AtomicU64::new(0)),
            peak_inflight: AtomicU64::new(0),
            replication: RwLock::new(ReplicationState {
                role: Role::Leader,
                leader_hint: String::new(),
                stats: ReplicationStats::default(),
            }),
            drift_replans: AtomicU64::new(0),
            cfg,
        }
    }

    /// [`PerseusServer::new`] with `n_workers` planning workers and every
    /// other value at its default. A shorthand kept because the benchmark
    /// harness (`perfbench/`) calls it; new code builds a
    /// [`ServerConfig`].
    pub fn with_workers(n_workers: usize) -> PerseusServer {
        PerseusServer::new(ServerConfig {
            workers: n_workers,
            ..ServerConfig::default()
        })
    }

    /// Opens (or creates) a durable server rooted at `dir`, built from
    /// `cfg`. Opening is recovery: if `dir` holds state from a previous
    /// run — even one that crashed mid-write — the snapshot is loaded, the
    /// journal tail is replayed (through `cfg.plan_cache` first, when one
    /// is configured), and torn or corrupted journal suffixes are
    /// truncated away. Subsequent deployments are bit-identical to an
    /// uninterrupted run's. Recovery emits
    /// `perseus_store_recoveries_total` /
    /// `perseus_store_truncated_records_total`.
    ///
    /// # Errors
    ///
    /// [`ServerError::Store`] if the directory cannot be created or the
    /// journal cannot be opened. Corruption is *not* an error: corrupt
    /// journal tails are truncated and a corrupt snapshot falls back to
    /// journal-only replay, both surfaced in [`DurabilityStats`].
    pub fn open(dir: impl AsRef<Path>, cfg: ServerConfig) -> Result<PerseusServer, ServerError> {
        let dir = dir.as_ref();
        let OpenedDir {
            journal,
            records,
            snapshot,
            corrupt_snapshot,
        } = open_dir(dir)?;
        let mut server = PerseusServer::new(cfg);
        let store = Arc::new(Store::new(journal, dir.to_path_buf(), &server.cfg));
        // A corrupt snapshot is tolerated: `recover_state` falls back to
        // journal-only replay (the journal is only compacted *after* a
        // snapshot lands, so a snapshot that never got readable leaves
        // the full journal).
        if corrupt_snapshot {
            store.corrupt_snapshots.fetch_add(1, Ordering::Relaxed);
        }
        let had_state = snapshot.is_some() || corrupt_snapshot || !records.is_empty();
        // The store is still detached, so the mutators called by
        // `replay_event` apply state without re-journaling.
        let recovery = server.recover_state(snapshot, &records);
        store
            .replayed_events
            .fetch_add(recovery.replayed_events, Ordering::Relaxed);
        store
            .recharacterizations_replayed
            .fetch_add(recovery.recharacterizations_replayed, Ordering::Relaxed);
        store
            .recharacterizations_avoided
            .fetch_add(recovery.recharacterizations_avoided, Ordering::Relaxed);
        if recovery.poisoned {
            store.truncated_records.fetch_add(1, Ordering::Relaxed);
        }
        if had_state {
            store.record_recovery();
        }
        server.store = Some(store);
        if had_state {
            // Fold the replayed tail into a fresh snapshot and compact:
            // recovery work is never repeated, and a poisoned tail is
            // dropped for good.
            server.snapshot_now()?;
        }
        Ok(server)
    }

    /// [`PerseusServer::open`] with `n_workers` planning workers,
    /// `telemetry`, and every other value at its default. A shorthand
    /// kept because the benchmark harness (`perfbench/`) calls it; new
    /// code builds a [`ServerConfig`].
    ///
    /// # Errors
    ///
    /// As [`PerseusServer::open`].
    pub fn open_with(
        dir: impl AsRef<Path>,
        n_workers: usize,
        telemetry: Telemetry,
    ) -> Result<PerseusServer, ServerError> {
        PerseusServer::open(
            dir,
            ServerConfig {
                workers: n_workers,
                telemetry,
                ..ServerConfig::default()
            },
        )
    }

    /// The configuration this server was built with.
    pub(crate) fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// Restores `snapshot`, if any, then replays the journal `records`
    /// past its watermark — the recovery of leader open and follower open
    /// alike. A record whose frame passed CRC but whose payload fails to
    /// decode poisons everything after it: replay stops there.
    pub(crate) fn recover_state(
        &self,
        snapshot: Option<ServerSnapshot>,
        records: &[Record],
    ) -> Recovery {
        let mut recovery = Recovery::default();
        if let Some(snap) = snapshot {
            recovery.applied_seq = snap.applied_seq;
            recovery.recharacterizations_avoided =
                snap.jobs.iter().filter(|j| j.segment.is_some()).count() as u64;
            self.restore_snapshot(snap);
        }
        let watermark = recovery.applied_seq;
        for rec in records.iter().filter(|r| r.seq > watermark) {
            let Ok(event) = JournalEvent::from_bytes(&rec.payload) else {
                recovery.poisoned = true;
                break;
            };
            recovery.replayed_events += 1;
            match self.replay_event(event) {
                ReplayOutcome::CharacterizedSolved => recovery.recharacterizations_replayed += 1,
                ReplayOutcome::CharacterizedCached => recovery.recharacterizations_avoided += 1,
                ReplayOutcome::Other => {}
            }
            recovery.applied_seq = rec.seq;
        }
        recovery
    }

    /// Rebuilds the jobs map from a snapshot. Solvers are not persisted:
    /// each is rebuilt from the job's pipeline (deterministic artifacts).
    /// Volatile observability counters (degraded lookups, faults
    /// absorbed) restart at zero, like any process-local counter, and so
    /// does the volatile planning state (plan fingerprint, last options,
    /// drift accumulators).
    pub(crate) fn restore_snapshot(&self, snap: ServerSnapshot) {
        let mut jobs = self.jobs.write();
        for js in snap.jobs {
            let state = JobMut {
                segment: js.segment,
                characterized_epoch: js.characterized_epoch,
                profiles: js.profiles,
                degraded: js.degraded,
                stragglers: js.stragglers.into_iter().collect(),
                pending: js
                    .pending
                    .into_iter()
                    .map(|(fire_at, gpu_id, degree)| PendingStraggler {
                        fire_at,
                        gpu_id,
                        degree,
                    })
                    .collect(),
                clock_s: js.clock_s,
                version: js.version,
                deployed: js.deployed,
                ..JobMut::default()
            };
            let spec = JobSpec {
                name: js.name,
                pipe: js.pipe,
                gpu: js.gpu,
                power_states: js.power,
            };
            let job = Job::new(spec, js.next_epoch, state, &self.cfg.telemetry);
            jobs.insert(job.name.clone(), Arc::new(job));
        }
    }

    /// Applies one journaled event during recovery or replication. The
    /// store is detached while this runs (recovery) or never attached
    /// (follower apply), so the mutators apply state without
    /// re-journaling. Deliberately bypasses the leader guard — a
    /// follower's *only* write path is this one. Errors are ignored by
    /// design: the journal only records events that succeeded, and
    /// truncation only removes suffixes, so every event's prerequisites
    /// are present; a decode drift that violates that merely leaves the
    /// event unapplied.
    pub(crate) fn replay_event(&self, event: JournalEvent) -> ReplayOutcome {
        match event {
            JournalEvent::RegisterJob {
                name,
                pipe,
                gpu,
                power,
            } => {
                let _ = self.register_job_inner(JobSpec {
                    name,
                    pipe,
                    gpu,
                    power_states: power,
                });
            }
            JournalEvent::Characterized {
                name,
                epoch,
                profiles,
                opts,
            } => return self.replay_characterized(&name, epoch, profiles, &opts),
            JournalEvent::SetStraggler {
                name,
                gpu_id,
                delay_s,
                degree,
            } => {
                let _ = self.set_straggler_inner(&name, gpu_id, delay_s, degree);
            }
            JournalEvent::AdvanceTime { name, dt_s } => {
                let _ = self.advance_time_inner(&name, dt_s);
            }
            JournalEvent::SkewClock { name, skew_s } => {
                let _ = self.skew_clock_inner(&name, skew_s);
            }
            JournalEvent::FreqCap { name, cap } => {
                let _ = self.apply_freq_cap_inner(&name, cap);
            }
            JournalEvent::Degraded { name } => {
                if let Ok(job) = self.job(&name) {
                    Self::contain_degraded(&job, self.store.as_deref());
                }
            }
        }
        ReplayOutcome::Other
    }

    /// Replays a winning characterization through the worker's plan path
    /// ([`Job::plan`]) and deploys, exactly as the original worker did. A
    /// configured plan cache that already holds the structure's frontier
    /// replaces the solve (the `recharacterizations_avoided` path). Replay
    /// never invalidates cache entries: a durable cache journals its own
    /// epochs and invalidations. Skipped if the job already carries this
    /// (or a newer) epoch — replaying a duplicated record is a no-op,
    /// which is what makes recovery idempotent.
    fn replay_characterized(
        &self,
        name: &str,
        epoch: u64,
        profiles: ProfileDb<OpKey>,
        opts: &FrontierOptions,
    ) -> ReplayOutcome {
        let Ok(job) = self.job(name) else {
            return ReplayOutcome::CharacterizedSolved;
        };
        job.next_epoch.fetch_max(epoch, Ordering::Relaxed);
        if job.state.read().characterized_epoch >= epoch {
            return ReplayOutcome::CharacterizedSolved;
        }
        let Ok(planned) = job.plan(&profiles, opts, self.cfg.plan_cache.as_deref()) else {
            return ReplayOutcome::CharacterizedSolved;
        };
        let cache_hit = planned.cache_hit;
        let mut state = job.state.write();
        if state.characterized_epoch >= epoch {
            return ReplayOutcome::CharacterizedSolved;
        }
        state.install(epoch, planned, profiles, opts);
        job.deploy_locked(&mut state);
        if cache_hit {
            ReplayOutcome::CharacterizedCached
        } else {
            ReplayOutcome::CharacterizedSolved
        }
    }

    /// Snapshots the per-iteration flight record — the on-demand half of
    /// the recorder contract (the auto-dump on fault containment is the
    /// other half; see [`ServerConfig::flight_dump`]). The record holds
    /// the samples [`PerseusServer::observe_iteration`] ingested, up to
    /// [`perseus_telemetry::pipeline::FLIGHT_CAPACITY`] of the newest.
    pub fn flight_record(&self) -> FlightSnapshot {
        self.obs.flight().snapshot()
    }

    /// The telemetry handle this server emits through
    /// ([`ServerConfig::telemetry`]).
    pub fn telemetry(&self) -> &Telemetry {
        &self.cfg.telemetry
    }

    /// The server's streaming observability pipeline: the flight
    /// recorder, EWMA/Page–Hinkley drift detectors, and the SLO engine.
    pub fn obs(&self) -> &Arc<ObsPipeline> {
        &self.obs
    }

    /// Records one synchronized training iteration for `job` through the
    /// observability pipeline: flight recorder (post-mortem ring) →
    /// detectors → SLO budgets. This is the one ingest call the training
    /// loop makes per iteration; it is observe-only — planner state and
    /// future deployments are untouched.
    ///
    /// Returns the alerts this sample transitioned (usually none). An
    /// unknown job name still records — observation must not depend on
    /// registration timing.
    ///
    /// On the first call, the pipeline's SLO engine is pointed at `job`'s
    /// `perseus_server_lookup_seconds` histogram so the p99-latency
    /// objective evaluates against live lookups (first observed job wins;
    /// no-op with disabled telemetry).
    pub fn observe_iteration(&self, job: &str, sample: IterationSample) -> Vec<Alert> {
        let tel = &self.cfg.telemetry;
        if tel.is_enabled() && !self.obs_lookup_attached.swap(true, Ordering::Relaxed) {
            // `histogram_with` wants 'static labels only for the keys;
            // values may borrow. Creates-or-gets: by the first observed
            // iteration the lookup path has typically registered it.
            self.obs.attach_lookup_latency(
                tel.histogram_with("perseus_server_lookup_seconds", &[("job", job)]),
            );
        }
        self.obs.ingest(&sample)
    }

    /// Starts the zero-dependency HTTP observability endpoint on `addr`
    /// (`/metrics`, `/alerts`, `/slo`, `/health`); use port 0 for an
    /// ephemeral port. The returned server shuts down on drop.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn serve_telemetry(
        &self,
        addr: impl std::net::ToSocketAddrs,
    ) -> std::io::Result<TelemetryServer> {
        TelemetryServer::bind(
            addr,
            Endpoints::from_telemetry(self.cfg.telemetry.clone())
                .with_pipeline(Arc::clone(&self.obs)),
        )
    }

    /// Registers a job (§3.2 step ⓪) and builds its reusable
    /// characterization artifacts.
    ///
    /// # Errors
    ///
    /// [`ServerError::DuplicateJob`] if the name is taken;
    /// [`ServerError::Core`] if the spec's power states are invalid for
    /// its GPU (a sleep state must draw less than `P_blocking` and have
    /// finite, non-negative transition latencies);
    /// [`ServerError::NotLeader`] on a replication follower.
    pub fn register_job(&self, spec: JobSpec) -> Result<(), ServerError> {
        self.ensure_leader()?;
        self.register_job_inner(spec)
    }

    fn register_job_inner(&self, spec: JobSpec) -> Result<(), ServerError> {
        if let Some(model) = spec.power_states.as_ref() {
            model
                .validate(&spec.gpu)
                .map_err(|e| ServerError::Core(CoreError::PowerState(e)))?;
        }
        let job = Arc::new(Job::new(spec, 0, JobMut::default(), &self.cfg.telemetry));
        journaled(
            self.store.as_deref(),
            &self.jobs,
            || JournalEvent::RegisterJob {
                name: job.name.clone(),
                pipe: job.pipe.clone(),
                gpu: job.gpu.clone(),
                power: job.power.clone(),
            },
            |jobs| {
                if jobs.contains_key(&job.name) {
                    return Err(ServerError::DuplicateJob(job.name.clone()));
                }
                jobs.insert(job.name.clone(), Arc::clone(&job));
                Ok(())
            },
        )?;
        self.maybe_snapshot();
        Ok(())
    }

    fn job(&self, name: &str) -> Result<Arc<Job>, ServerError> {
        self.jobs
            .read()
            .get(name)
            .map(Arc::clone)
            .ok_or_else(|| ServerError::UnknownJob(name.to_string()))
    }

    /// Receives the client's profiling results and schedules frontier
    /// characterization (step ②) on the worker pool: a batch of one (see
    /// [`PerseusServer::submit_profiles_batch`]). Returns a ticket
    /// immediately; when the characterization completes it atomically
    /// swaps the job's frontier, deploys the schedule answering the
    /// current straggler state (step ③), and resolves the ticket with
    /// that deployment.
    ///
    /// Concurrent submissions for the same job are ordered by submission
    /// epoch: a submission that finishes after a newer one has already
    /// deployed resolves to [`ServerError::Superseded`] and changes
    /// nothing.
    ///
    /// # Errors
    ///
    /// As [`PerseusServer::submit_profiles_batch`]; failures of the
    /// characterization itself are delivered through the ticket.
    pub fn submit_profiles(
        &self,
        name: &str,
        profiles: ProfileDb<OpKey>,
        opts: &FrontierOptions,
    ) -> Result<CharacterizeTicket, ServerError> {
        let mut tickets =
            self.submit_profiles_batch(vec![(name.to_string(), profiles, opts.clone())])?;
        Ok(tickets.pop().expect("a batch of one yields one ticket"))
    }

    /// Schedules a batch of characterizations at once on the worker pool,
    /// all or nothing: every entry is validated, and one admission slot
    /// per entry is claimed in a single step, before anything is
    /// scheduled. Independent per-pipeline frontier solves proceed in
    /// parallel across the pool's threads (each against its own job's
    /// cached solver artifacts and per-sweep
    /// [`perseus_core::SolverArena`]), which is the server-side
    /// counterpart of [`perseus_core::FrontierSolver::characterize_all`].
    /// Tickets come back in submission order; wait on them in any order.
    ///
    /// # Errors
    ///
    /// [`ServerError::NotLeader`] on a replication follower;
    /// [`ServerError::UnknownJob`] / [`ServerError::InvalidProfile`] if
    /// any entry is invalid (rejected here, before any worker time is
    /// spent); [`ServerError::Overloaded`] if the batch does not fit under
    /// [`ServerConfig::max_inflight`]. Nothing is scheduled in any of
    /// these cases.
    pub fn submit_profiles_batch(
        &self,
        submissions: Vec<(String, ProfileDb<OpKey>, FrontierOptions)>,
    ) -> Result<Vec<CharacterizeTicket>, ServerError> {
        self.ensure_leader()?;
        let jobs = submissions
            .iter()
            .map(|(name, profiles, _)| {
                let job = self.job(name)?;
                Self::validate_profiles(name, profiles)?;
                Ok(job)
            })
            .collect::<Result<Vec<_>, ServerError>>()?;
        let first = submissions.first().map_or("", |(name, _, _)| name.as_str());
        let permits = self.acquire_inflight(first, submissions.len() as u64)?;
        Ok(submissions
            .into_iter()
            .zip(jobs)
            .zip(permits)
            .map(|(((name, profiles, opts), job), permit)| {
                self.schedule(name, job, profiles, opts, permit)
            })
            .collect())
    }

    /// Queues one admitted characterization on the worker pool and
    /// returns its ticket.
    fn schedule(
        &self,
        name: String,
        job: Arc<Job>,
        profiles: ProfileDb<OpKey>,
        opts: FrontierOptions,
        permit: InflightPermit,
    ) -> CharacterizeTicket {
        // Epoch 1 is the first submission; `characterized_epoch` 0 means
        // "nothing deployed yet", so every first submission wins.
        let epoch = job.next_epoch.fetch_add(1, Ordering::Relaxed) + 1;
        let fault = self
            .cfg
            .fault_injector
            .as_ref()
            .map_or(SubmissionFault::None, |i| i.submission_fault(&name, epoch));
        let store = self.store.clone();
        let cache = self.cfg.plan_cache.clone();
        let (tx, rx) = unbounded();
        let tel = self.cfg.telemetry.clone();
        let obs = Arc::clone(&self.obs);
        let dump_path = self.cfg.flight_dump.clone();
        let enqueued = tel.now();
        self.pool.submit(Box::new(move || {
            let busy = if tel.is_enabled() {
                if let Some(enqueued) = enqueued {
                    tel.histogram_with("perseus_server_queue_seconds", &[("job", &job.name)])
                        .observe_duration(enqueued.elapsed());
                }
                let busy = tel.gauge("perseus_server_workers_busy");
                busy.add(1);
                Some(busy)
            } else {
                None
            };
            let result = {
                let _span = span!(tel, "characterize", job = job.name);
                Self::characterize_task(
                    &job,
                    epoch,
                    profiles,
                    &opts,
                    fault,
                    store.as_deref(),
                    cache.as_deref(),
                )
            };
            // Release the admission slot as soon as the work is done,
            // before the (unbounded-latency) notification send.
            drop(permit);
            if let Some(busy) = busy {
                busy.add(-1);
            }
            // Containment fired (lost submission or contained panic):
            // write the post-mortem while the evidence is fresh. Dump
            // errors are deliberately swallowed.
            if matches!(
                &result,
                Err(ServerError::SubmissionLost(_) | ServerError::CharacterizationPanicked(_))
            ) {
                if let Some(path) = &dump_path {
                    let _ = obs.flight().dump_to(path);
                }
            }
            let _ = tx.send(result); // receiver may have dropped the ticket
        }));
        CharacterizeTicket { job: name, rx }
    }

    /// Rejects structurally invalid profile submissions at the API
    /// boundary: empty tables, non-finite or non-positive times/energies,
    /// zero frequencies, and non-monotone frequency tables (entries must
    /// be strictly descending in frequency — duplicates included). Bad
    /// profiles would otherwise surface deep inside the solver as NaN
    /// frontiers or panics.
    fn validate_profiles(name: &str, profiles: &ProfileDb<OpKey>) -> Result<(), ServerError> {
        let invalid = |reason: String| ServerError::InvalidProfile {
            job: name.to_string(),
            reason,
        };
        if profiles.is_empty() {
            return Err(invalid("profile database is empty".to_string()));
        }
        for (key, profile) in profiles.iter() {
            let entries = profile.entries();
            if entries.is_empty() {
                return Err(invalid(format!("{key:?}: profile has no measurements")));
            }
            let mut prev: Option<FreqMHz> = None;
            for e in entries {
                if !e.time_s.is_finite() || e.time_s <= 0.0 {
                    return Err(invalid(format!(
                        "{key:?}: time {} s at {} MHz is not finite and positive",
                        e.time_s, e.freq.0
                    )));
                }
                if !e.energy_j.is_finite() || e.energy_j <= 0.0 {
                    return Err(invalid(format!(
                        "{key:?}: energy {} J at {} MHz is not finite and positive",
                        e.energy_j, e.freq.0
                    )));
                }
                if e.freq.0 == 0 {
                    return Err(invalid(format!("{key:?}: zero frequency entry")));
                }
                if let Some(prev) = prev {
                    if e.freq >= prev {
                        return Err(invalid(format!(
                            "{key:?}: frequency table is not strictly descending \
                             ({} MHz after {} MHz)",
                            e.freq.0, prev.0
                        )));
                    }
                }
                prev = Some(e.freq);
            }
        }
        Ok(())
    }

    /// Marks the job degraded after fault containment, journaled — but
    /// only if a previous frontier exists to degrade to; otherwise nothing
    /// changes and nothing is journaled.
    fn contain_degraded(job: &Job, store: Option<&Store>) {
        let _ = journaled(
            store,
            &job.state,
            || JournalEvent::Degraded {
                name: job.name.clone(),
            },
            |state| {
                if state.segment.is_none() {
                    return Err(ServerError::NotCharacterized(job.name.clone()));
                }
                state.degraded = true;
                Ok(())
            },
        );
    }

    /// Exact admission control: atomically claims `n` in-flight slots —
    /// all of them or none — or rejects with [`ServerError::Overloaded`].
    /// `fetch_update` makes the claim race-free — the counter never
    /// exceeds the bound, even under concurrent submissions (the stress
    /// tests pin this via
    /// [`PerseusServer::peak_inflight_characterizations`]).
    fn acquire_inflight(&self, job: &str, n: u64) -> Result<Vec<InflightPermit>, ServerError> {
        let limit = self.cfg.max_inflight;
        let claimed = self
            .inflight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| {
                (limit == 0 || v + n <= limit).then_some(v + n)
            });
        match claimed {
            Ok(prev) => {
                self.peak_inflight.fetch_max(prev + n, Ordering::Relaxed);
                Ok((0..n)
                    .map(|_| InflightPermit {
                        counter: Arc::clone(&self.inflight),
                    })
                    .collect())
            }
            Err(inflight) => {
                if self.cfg.telemetry.is_enabled() {
                    self.cfg
                        .telemetry
                        .counter("perseus_server_overloaded_total")
                        .inc();
                }
                Err(ServerError::Overloaded {
                    job: job.to_string(),
                    inflight,
                    limit,
                })
            }
        }
    }

    /// Runs on a worker thread: plans through [`Job::plan`], then swaps +
    /// deploys under the write lock. Panics — injected or genuine — are
    /// contained here so a dying characterization never takes a worker
    /// (or the job) with it; the job keeps serving its last deployed
    /// frontier, marked degraded.
    ///
    /// Only *winning* characterizations are journaled (as
    /// [`JournalEvent::Characterized`], carrying the profiles + options
    /// so replay re-runs the deterministic plan path); superseded and
    /// failed attempts leave no durable trace beyond the degradation flag.
    fn characterize_task(
        job: &Job,
        epoch: u64,
        profiles: ProfileDb<OpKey>,
        opts: &FrontierOptions,
        fault: SubmissionFault,
        store: Option<&Store>,
        cache: Option<&PlanCache>,
    ) -> Result<Deployment, ServerError> {
        match fault {
            SubmissionFault::None => {}
            SubmissionFault::Drop => {
                job.faults_injected.fetch_add(1, Ordering::Relaxed);
                Self::contain_degraded(job, store);
                return Err(ServerError::SubmissionLost(job.name.clone()));
            }
            SubmissionFault::Delay(d) => {
                job.faults_injected.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(d);
            }
            SubmissionFault::Panic => {
                job.faults_injected.fetch_add(1, Ordering::Relaxed);
            }
        }
        // The expensive part — solve or cache lookup, then the Kareus
        // pass — runs without holding any job lock: straggler
        // notifications keep being served from the previous frontier and
        // sleep plans.
        let planned = catch_unwind(AssertUnwindSafe(|| {
            if fault == SubmissionFault::Panic {
                panic!("injected chaos fault: characterization worker dies");
            }
            job.plan(&profiles, opts, cache)
        }));
        let planned = match planned {
            Ok(planned) => planned?,
            Err(_) => {
                Self::contain_degraded(job, store);
                return Err(ServerError::CharacterizationPanicked(job.name.clone()));
            }
        };
        let fingerprint = planned.fingerprint;
        // The journal gets its own copy of the profiles; the job state
        // keeps these. Only durable servers pay for the copy.
        let journal_copy = store.map(|_| profiles.clone());
        journaled(
            store,
            &job.state,
            move || JournalEvent::Characterized {
                name: job.name.clone(),
                epoch,
                profiles: journal_copy.expect("only durable servers build events"),
                opts: opts.clone(),
            },
            |state| {
                if state.characterized_epoch > epoch {
                    return Err(ServerError::Superseded(job.name.clone()));
                }
                let prev = state.install(epoch, planned, profiles, opts);
                // When fresh profiles move this job to a *different*
                // structural fingerprint, drop the entry under the old one:
                // it describes profiles the job has drifted away from, and
                // would otherwise linger in the cache forever.
                if let (Some(cache), Some(prev), Some(fp)) = (cache, prev, fingerprint) {
                    if prev != fp {
                        cache.invalidate(prev);
                    }
                }
                Ok(job.deploy_locked(state))
            },
        )
    }

    /// Table 2 `server.set_straggler(id, delay, degree)`: a straggler on
    /// accelerator `gpu_id` is anticipated `delay_s` seconds from now with
    /// iteration-time inflation `degree`. `degree == 1.0` announces the
    /// straggler's return to normal. Takes effect when the simulated clock
    /// passes the deadline (see [`PerseusServer::advance_time`]); a zero
    /// delay applies immediately and returns the new deployment.
    ///
    /// Served entirely from the job's cached frontier — never blocks on an
    /// in-flight characterization.
    ///
    /// # Errors
    ///
    /// [`ServerError::InvalidDegree`] for degrees below 1.0,
    /// [`ServerError::NotCharacterized`] before profiles are submitted,
    /// [`ServerError::NotLeader`] on a replication follower.
    pub fn set_straggler(
        &self,
        name: &str,
        gpu_id: usize,
        delay_s: f64,
        degree: f64,
    ) -> Result<Option<Deployment>, ServerError> {
        self.ensure_leader()?;
        self.set_straggler_inner(name, gpu_id, delay_s, degree)
    }

    fn set_straggler_inner(
        &self,
        name: &str,
        gpu_id: usize,
        delay_s: f64,
        degree: f64,
    ) -> Result<Option<Deployment>, ServerError> {
        if !(degree >= 1.0 && degree.is_finite()) {
            return Err(ServerError::InvalidDegree(degree));
        }
        let job = self.job(name)?;
        let out = journaled(
            self.store.as_deref(),
            &job.state,
            || JournalEvent::SetStraggler {
                name: name.to_string(),
                gpu_id,
                delay_s,
                degree,
            },
            |state| {
                if state.segment.is_none() {
                    return Err(ServerError::NotCharacterized(name.to_string()));
                }
                if delay_s <= 0.0 {
                    if degree > 1.0 {
                        state.stragglers.insert(gpu_id, degree);
                    } else {
                        state.stragglers.remove(&gpu_id);
                    }
                    return Ok(Some(job.deploy_locked(state)));
                }
                let fire_at = state.clock_s + delay_s;
                state.pending.push(PendingStraggler {
                    fire_at,
                    gpu_id,
                    degree,
                });
                Ok(None)
            },
        )?;
        self.maybe_snapshot();
        Ok(out)
    }

    /// Advances the job's simulated clock, firing any pending straggler
    /// notifications whose deadline passed. Returns the deployments issued
    /// (at most one per distinct firing instant, in order).
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownJob`] for unregistered names,
    /// [`ServerError::NotLeader`] on a replication follower.
    pub fn advance_time(&self, name: &str, dt_s: f64) -> Result<Vec<Deployment>, ServerError> {
        self.ensure_leader()?;
        self.advance_time_inner(name, dt_s)
    }

    fn advance_time_inner(&self, name: &str, dt_s: f64) -> Result<Vec<Deployment>, ServerError> {
        let job = self.job(name)?;
        let fired = journaled(
            self.store.as_deref(),
            &job.state,
            || JournalEvent::AdvanceTime {
                name: name.to_string(),
                dt_s,
            },
            |state| {
                state.clock_s += dt_s.max(0.0);
                // The deployments fired here are pure functions of the
                // clock and the journaled pending set, so only the clock
                // advance is recorded; replay re-fires them identically.
                Ok(job.fire_due_locked(state))
            },
        )?;
        self.maybe_snapshot();
        Ok(fired)
    }

    /// Injects clock skew on the job's simulated timestamps: the clock
    /// jumps by `skew_s` seconds (negative = backwards, floored at
    /// zero). Pending straggler notifications whose deadline a *forward*
    /// skew passes fire exactly as they would under
    /// [`PerseusServer::advance_time`]; a backward skew never un-fires
    /// anything — straggler state changes are monotone in what the
    /// clients were already told. Counted in
    /// [`ChaosStats::faults_injected`].
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownJob`] for unregistered names,
    /// [`ServerError::NotLeader`] on a replication follower.
    pub fn skew_clock(&self, name: &str, skew_s: f64) -> Result<Vec<Deployment>, ServerError> {
        self.ensure_leader()?;
        self.skew_clock_inner(name, skew_s)
    }

    fn skew_clock_inner(&self, name: &str, skew_s: f64) -> Result<Vec<Deployment>, ServerError> {
        let job = self.job(name)?;
        job.faults_injected.fetch_add(1, Ordering::Relaxed);
        let fired = journaled(
            self.store.as_deref(),
            &job.state,
            || JournalEvent::SkewClock {
                name: name.to_string(),
                skew_s,
            },
            |state| {
                state.clock_s = (state.clock_s + skew_s).max(0.0);
                Ok(job.fire_due_locked(state))
            },
        )?;
        self.maybe_snapshot();
        Ok(fired)
    }

    /// A datacenter frequency cap landed on the job's accelerators
    /// (§2.3): frontier points assigning clocks above `cap` are no longer
    /// realizable. The job's frontier is re-clamped via
    /// [`ParetoFrontier::clamp_to_freq_cap`] — no re-characterization, no
    /// panic — and the schedule answering the current straggler state is
    /// re-deployed from the clamped curve. Counted in
    /// [`ChaosStats::faults_injected`].
    ///
    /// # Errors
    ///
    /// [`ServerError::NotCharacterized`] before profiles are submitted;
    /// [`ServerError::NotLeader`] on a replication follower;
    /// otherwise propagates re-realization failures.
    pub fn apply_freq_cap(&self, name: &str, cap: FreqMHz) -> Result<Deployment, ServerError> {
        self.ensure_leader()?;
        self.apply_freq_cap_inner(name, cap)
    }

    fn apply_freq_cap_inner(&self, name: &str, cap: FreqMHz) -> Result<Deployment, ServerError> {
        let job = self.job(name)?;
        // Journaled only on success: a cap that failed to re-realize
        // changed nothing and replays nothing.
        let deployment = journaled(
            self.store.as_deref(),
            &job.state,
            || JournalEvent::FreqCap {
                name: name.to_string(),
                cap,
            },
            |state| {
                let (Some(frontier), Some(profiles)) =
                    (state.frontier().cloned(), state.profiles.clone())
                else {
                    return Err(ServerError::NotCharacterized(name.to_string()));
                };
                job.faults_injected.fetch_add(1, Ordering::Relaxed);
                let ctx = PlanContext::new(&job.pipe, &job.gpu, profiles)?;
                let clamped = frontier.clamp_to_freq_cap(&ctx, job.gpu.clamp_freq(cap))?;
                // Capped schedules stretch, moving and widening bubbles:
                // re-run the Kareus pass against the capped timeline.
                let sleep = job.sleep_plans(&ctx, &clamped);
                state.segment = Some(Arc::new(Segment::new(Arc::new(clamped), sleep)));
                Ok(job.deploy_locked(state))
            },
        )?;
        self.maybe_snapshot();
        Ok(deployment)
    }

    /// Everything the server knows about one job in a single consistent
    /// read: current deployment, solver reuse stats, chaos counters,
    /// degradation flag, and the deployed submission epoch. This is the
    /// one status API.
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownJob`] for unregistered names. A registered
    /// but not-yet-characterized job is a valid status with
    /// `deployment: None` and `epoch: 0`.
    pub fn job_status(&self, name: &str) -> Result<JobStatus, ServerError> {
        let job = self.job(name)?;
        let (role, replication_lag) = {
            let repl = self.replication.read();
            (repl.role, repl.stats.lag_records)
        };
        let state = job.state.read();
        Ok(JobStatus {
            deployment: state.deployed.clone(),
            solver: job.solver.stats(),
            chaos: ChaosStats {
                degraded_lookups: job.degraded_lookups.load(Ordering::Relaxed),
                faults_injected: job.faults_injected.load(Ordering::Relaxed),
            },
            degraded: state.degraded,
            epoch: state.characterized_epoch,
            flight: self.obs.flight().summary(),
            durability: self.durability(),
            slo: self.obs.slo_status(),
            role,
            replication_lag,
        })
    }

    /// The cached frontier for a job, if characterized.
    pub fn frontier(&self, name: &str) -> Option<Arc<ParetoFrontier>> {
        self.jobs
            .read()
            .get(name)
            .and_then(|j| j.state.read().frontier().cloned())
    }

    /// Registered job names.
    pub fn job_names(&self) -> Vec<String> {
        self.jobs.read().keys().cloned().collect()
    }

    /// Whether this server journals its state to disk (built via
    /// [`PerseusServer::open`] rather than [`PerseusServer::new`]).
    pub fn is_durable(&self) -> bool {
        self.store.is_some()
    }

    /// Durability counters of the backing store; all zero for an
    /// in-memory server.
    pub fn durability(&self) -> DurabilityStats {
        self.store
            .as_ref()
            .map_or_else(DurabilityStats::default, |s| s.stats())
    }

    /// Serializes every job's durable state into a deterministic byte
    /// string: equal fingerprints ⇔ bit-identical frontiers, deployments,
    /// straggler state, and clocks. Works on in-memory servers too, which
    /// is what lets the differential tests compare a crashed-and-recovered
    /// server against an uninterrupted one.
    ///
    /// In-flight submission counters (`next_epoch`) and volatile
    /// observability counters are excluded: they are not part of durable
    /// identity.
    ///
    /// Every frontier and sleep-plan byte is covered, not only the
    /// segment key a snapshot stores, so no key is ever computed here.
    pub fn state_fingerprint(&self) -> Vec<u8> {
        fingerprint_bytes(&self.snapshot_jobs(true))
    }

    /// Freezes the jobs map for a snapshot, checkpoint or fingerprint.
    /// Jobs are sorted by name and straggler maps by accelerator id, so
    /// equal states always yield equal bytes. Segments are shared, not
    /// copied. `for_fingerprint` zeroes the in-flight submission counter
    /// (see [`PerseusServer::state_fingerprint`]).
    pub(crate) fn snapshot_jobs(&self, for_fingerprint: bool) -> Vec<JobSnapshot> {
        let jobs = self.jobs.read();
        let mut names: Vec<&String> = jobs.keys().collect();
        names.sort();
        names
            .into_iter()
            .map(|name| {
                let job = &jobs[name];
                let state = job.state.read();
                let mut stragglers: Vec<(usize, f64)> =
                    state.stragglers.iter().map(|(k, v)| (*k, *v)).collect();
                stragglers.sort_by_key(|&(gpu_id, _)| gpu_id);
                JobSnapshot {
                    name: job.name.clone(),
                    pipe: job.pipe.clone(),
                    gpu: job.gpu.clone(),
                    power: job.power.clone(),
                    next_epoch: if for_fingerprint {
                        0
                    } else {
                        job.next_epoch.load(Ordering::Relaxed)
                    },
                    characterized_epoch: state.characterized_epoch,
                    segment: state.segment.clone(),
                    profiles: state.profiles.clone(),
                    degraded: state.degraded,
                    stragglers,
                    pending: state
                        .pending
                        .iter()
                        .map(|p| (p.fire_at, p.gpu_id, p.degree))
                        .collect(),
                    clock_s: state.clock_s,
                    version: state.version,
                    deployed: state.deployed.clone(),
                }
            })
            .collect()
    }

    /// Writes a snapshot of the full server state and compacts the
    /// journal below its watermark. Only segments not yet on disk are
    /// written; unchanged frontiers cost nothing (see the
    /// [`crate::store`] module docs). Holds the journal lock throughout —
    /// every mutator takes that lock before touching state, so the
    /// serialized state is a consistent freeze. No-op on an in-memory
    /// server.
    ///
    /// # Errors
    ///
    /// [`ServerError::Store`] if the snapshot or compaction I/O fails
    /// (the journal itself is still intact and recovery still works —
    /// it just replays more).
    pub fn snapshot_now(&self) -> Result<(), ServerError> {
        let Some(store) = self.store.as_ref() else {
            return Ok(());
        };
        let mut journal = store.journal.lock();
        let snap = ServerSnapshot {
            applied_seq: journal.next_seq().saturating_sub(1),
            jobs: self.snapshot_jobs(false),
        };
        store.snapshot_locked(&mut journal, &snap)?;
        Ok(())
    }

    /// Snapshots if enough appends accumulated since the last one.
    /// Called at the end of every mutating API call, after all locks are
    /// released. Snapshot failures are swallowed here: a full disk
    /// degrades durability (longer replay), never the serving path.
    fn maybe_snapshot(&self) {
        let Some(store) = self.store.as_ref() else {
            return;
        };
        if store.appends_since_snapshot.load(Ordering::Relaxed) >= store.snapshot_every {
            let _ = self.snapshot_now();
        }
    }

    /// Chaos hook: scribbles `garbage` over the journal's append cursor,
    /// emulating a torn/corrupted tail. Every record appended *after*
    /// this call is unreachable at the next open (the scan stops at the
    /// garbage), exercising recovery's truncate-to-last-valid-record
    /// path. Returns whether a durable journal was actually poisoned.
    pub fn corrupt_journal_tail(&self, garbage: &[u8]) -> bool {
        let Some(store) = self.store.as_ref() else {
            return false;
        };
        store.journal.lock().scribble_garbage(garbage).is_ok()
    }

    /// Absolute path of the write-ahead journal, if this server is
    /// durable. Test/bench hook for crash-point injection.
    pub fn journal_path(&self) -> Option<PathBuf> {
        self.store
            .as_ref()
            .map(|s| s.journal.lock().path().to_path_buf())
    }

    /// Whether this server is the replication leader or a follower.
    /// Standalone servers are leaders.
    pub fn role(&self) -> Role {
        self.replication.read().role
    }

    /// Sets the serving role (promotion / follower construction) and
    /// where [`ServerError::NotLeader`] points callers.
    pub(crate) fn set_role(&self, role: Role, leader_hint: String) {
        let mut repl = self.replication.write();
        repl.role = role;
        repl.leader_hint = leader_hint;
    }

    /// The configured leader hint (empty when unset).
    pub(crate) fn leader_hint(&self) -> String {
        self.replication.read().leader_hint.clone()
    }

    /// Fails with [`ServerError::NotLeader`] unless this server is the
    /// leader. Every public mutator calls this; the replicated-apply path
    /// ([`PerseusServer::replay_event`]) deliberately does not.
    fn ensure_leader(&self) -> Result<(), ServerError> {
        let repl = self.replication.read();
        if repl.role == Role::Leader {
            return Ok(());
        }
        Err(ServerError::NotLeader {
            hint: repl.leader_hint.clone(),
        })
    }

    /// Replication counters last mirrored from the follower machinery
    /// (all zero on leaders and standalone servers).
    pub fn replication_stats(&self) -> ReplicationStats {
        self.replication.read().stats
    }

    /// Mirrors follower replication counters into the server (and, with
    /// telemetry enabled, the `perseus_replication_*` gauges) so
    /// [`JobStatus::replication_lag`] and `/metrics` stay current.
    pub(crate) fn set_replication_stats(&self, stats: ReplicationStats) {
        self.replication.write().stats = stats;
        let tel = &self.cfg.telemetry;
        if tel.is_enabled() {
            tel.gauge("perseus_replication_shipped_records")
                .set(stats.shipped as i64);
            tel.gauge("perseus_replication_applied_records")
                .set(stats.applied as i64);
            tel.gauge("perseus_replication_lag_records")
                .set(stats.lag_records as i64);
            tel.gauge("perseus_replication_lag_bytes")
                .set(stats.lag_bytes as i64);
        }
    }

    /// Every journal record with sequence strictly greater than
    /// `after_seq` — the replication feed a [`crate::Replicator`] ships to
    /// followers. The records form a gap-free run ending at the journal's
    /// last appended sequence; if compaction has dropped part of the
    /// requested range, the run starts later than `after_seq + 1` and the
    /// caller must fall back to [`PerseusServer::replication_checkpoint`].
    ///
    /// # Errors
    ///
    /// [`ServerError::Store`] on journal I/O failures or when this server
    /// is in-memory (nothing to ship).
    pub fn replication_tail(&self, after_seq: u64) -> Result<Vec<Record>, ServerError> {
        let store = self.durable_store()?;
        let mut journal = store.journal.lock();
        Ok(journal.tail_from(after_seq)?)
    }

    /// Sequence number of the last journaled mutation — the watermark a
    /// fully-caught-up follower has shipped.
    ///
    /// # Errors
    ///
    /// [`ServerError::Store`] when this server is in-memory.
    pub fn replication_watermark(&self) -> Result<u64, ServerError> {
        let store = self.durable_store()?;
        let journal = store.journal.lock();
        Ok(journal.next_seq().saturating_sub(1))
    }

    /// A consistent full-state checkpoint for follower bootstrap: the
    /// complete jobs map frozen at the journal watermark. Used when the
    /// follower's shipped position predates the leader's oldest surviving
    /// journal record (compaction) — the follower installs the checkpoint
    /// and resumes tailing from its watermark, never replaying from
    /// genesis. The checkpoint shares the leader's segments, with any
    /// keys already computed, so the follower writes only the segment
    /// files its directory lacks.
    pub(crate) fn replication_checkpoint(&self) -> Result<ServerSnapshot, ServerError> {
        let store = self.durable_store()?;
        let journal = store.journal.lock();
        Ok(ServerSnapshot {
            applied_seq: journal.next_seq().saturating_sub(1),
            jobs: self.snapshot_jobs(false),
        })
    }

    fn durable_store(&self) -> Result<&Arc<Store>, ServerError> {
        self.store.as_ref().ok_or_else(|| {
            ServerError::Store(StoreError::Io(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "in-memory server has no journal to replicate",
            )))
        })
    }

    /// Attaches the durable backing a promotion built (see
    /// [`crate::FollowerServer::promote`]). The server must not already
    /// have a store.
    pub(crate) fn attach_store(&mut self, store: Arc<Store>) {
        debug_assert!(self.store.is_none(), "attach_store on a durable server");
        self.store = Some(store);
    }

    /// Drift-triggered re-characterizations submitted so far.
    pub fn drift_replans(&self) -> u64 {
        self.drift_replans.load(Ordering::Relaxed)
    }

    /// Feeds streaming profile-drift deltas (cumulative factors vs. the
    /// profiling baseline, e.g. from
    /// [`perseus_profiler::ProfileDrift::step`]) into the job's drift
    /// watcher. Deltas accumulate silently until the largest *pending*
    /// deviation — drift not yet absorbed by a re-plan — reaches the
    /// threshold; then the job's current profiles are rescaled by the
    /// pending factors and resubmitted through the normal
    /// characterization path: epoch bump, warm-started solve on the
    /// job's cached [`FrontierSolver`] artifacts, and Kareus sleep plans
    /// re-derived. The drifted profiles hash to a new fingerprint, so an
    /// attached fleet [`PlanCache`] misses, and the job's entry under its
    /// old fingerprint is invalidated; every other structure's entry keeps
    /// serving hits.
    ///
    /// Returns `Ok(None)` while below threshold, `Ok(Some(ticket))` for
    /// the re-characterization it triggered.
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownJob`] / [`ServerError::NotCharacterized`]
    /// when there is nothing to re-plan;
    /// [`ServerError::NotLeader`] on a replication follower.
    pub fn ingest_drift(
        &self,
        name: &str,
        deltas: &[ProfileDelta<OpKey>],
    ) -> Result<Option<CharacterizeTicket>, ServerError> {
        self.ensure_leader()?;
        let job = self.job(name)?;
        let replan = {
            let mut state = job.state.write();
            if state.profiles.is_none() {
                return Err(ServerError::NotCharacterized(name.to_string()));
            }
            for d in deltas {
                let acc = state.drift.entry(d.key).or_default();
                acc.latest = (d.time_factor, d.energy_factor);
            }
            let pending = state
                .drift
                .values()
                .map(DriftAccum::pending_magnitude)
                .fold(0.0, f64::max);
            if pending < DRIFT_THRESHOLD {
                None
            } else {
                let profiles = state.profiles.as_ref().expect("checked above");
                let mut scaled = ProfileDb::new();
                for (key, profile) in profiles.iter() {
                    let (tf, ef) = state
                        .drift
                        .get(key)
                        .map_or((1.0, 1.0), DriftAccum::pending_factors);
                    scaled.insert(*key, scale_profile(profile, tf, ef));
                }
                let opts = state.last_opts.clone().unwrap_or_default();
                for acc in state.drift.values_mut() {
                    acc.commit();
                }
                Some((scaled, opts))
            }
        };
        let Some((profiles, opts)) = replan else {
            return Ok(None);
        };
        self.drift_replans.fetch_add(1, Ordering::Relaxed);
        if self.cfg.telemetry.is_enabled() {
            self.cfg
                .telemetry
                .counter_with("perseus_server_drift_replans_total", &[("job", name)])
                .inc();
        }
        self.submit_profiles(name, profiles, &opts).map(Some)
    }

    /// The configured fleet plan cache, if any
    /// ([`ServerConfig::plan_cache`]).
    pub fn plan_cache(&self) -> Option<Arc<PlanCache>> {
        self.cfg.plan_cache.clone()
    }

    /// Characterizations currently admitted but not yet completed.
    pub fn inflight_characterizations(&self) -> u64 {
        self.inflight.load(Ordering::Relaxed)
    }

    /// High-water mark of concurrently in-flight characterizations since
    /// this server started — the stress tests assert it never exceeds
    /// [`ServerConfig::max_inflight`].
    pub fn peak_inflight_characterizations(&self) -> u64 {
        self.peak_inflight.load(Ordering::Relaxed)
    }
}
