//! The Perseus client: per-accelerator profiling and asynchronous
//! frequency control (§5, Table 2 — `profiler.begin/end`,
//! `controller.set_speed`), plus the job-level client that talks to the
//! server with retry, backoff, and timeouts.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Sender};
use parking_lot::{Mutex, RwLock};

use perseus_core::{EnergySchedule, FrontierOptions};
use perseus_gpu::{FreqMHz, SimGpu, Workload};
use perseus_pipeline::{CompKind, OpKey, PipelineDag};
use perseus_profiler::{OnlineProfiler, OpProfile, ProfileDb};

use crate::server::{Deployment, JobStatus, PerseusServer, ServerError};

enum Cmd {
    Set(FreqMHz),
    Flush(Sender<()>),
    Shutdown,
}

/// The asynchronous frequency controller (§5): a separate thread applies
/// SM-clock changes through the (simulated) NVML interface so the training
/// loop never blocks on the ~10 ms set latency.
pub struct AsyncFrequencyController {
    tx: Sender<Cmd>,
    handle: Option<JoinHandle<()>>,
}

impl AsyncFrequencyController {
    /// Spawns the controller thread operating on `gpu`.
    pub fn spawn(gpu: Arc<Mutex<SimGpu>>) -> AsyncFrequencyController {
        let (tx, rx) = unbounded::<Cmd>();
        let handle = std::thread::spawn(move || {
            while let Ok(cmd) = rx.recv() {
                match cmd {
                    Cmd::Set(f) => {
                        // Ignore unsupported clocks defensively; the server
                        // only deploys supported ones.
                        let _ = gpu.lock().set_frequency(f);
                    }
                    Cmd::Flush(done) => {
                        let _ = done.send(());
                    }
                    Cmd::Shutdown => break,
                }
            }
        });
        AsyncFrequencyController {
            tx,
            handle: Some(handle),
        }
    }

    /// Queues a frequency change without blocking.
    pub fn set_speed(&self, f: FreqMHz) {
        let _ = self.tx.send(Cmd::Set(f));
    }

    /// Blocks until every queued command has been applied. Tests and
    /// iteration boundaries use this to make the asynchrony deterministic.
    pub fn flush(&self) {
        let (done_tx, done_rx) = unbounded();
        if self.tx.send(Cmd::Flush(done_tx)).is_ok() {
            let _ = done_rx.recv();
        }
    }
}

impl Drop for AsyncFrequencyController {
    fn drop(&mut self) {
        let _ = self.tx.send(Cmd::Shutdown);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// FNV-1a 64-bit — seeds per-job jitter and places jobs on the fleet's
/// consistent-hash ring. Not cryptographic; stable across runs.
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Decorrelated-jitter backoff: each delay is drawn uniformly from
/// `[base, min(cap, 3 × previous delay)]`, so retry storms from many
/// clients spread out instead of thundering in lockstep while the
/// expected delay still grows geometrically. Deterministic for a given
/// seed — the seeded-determinism tests rely on that.
#[derive(Debug, Clone)]
pub struct DecorrelatedJitter {
    base: Duration,
    cap: Duration,
    prev: Duration,
    state: u64,
}

impl DecorrelatedJitter {
    /// A jitter source sleeping at least `base` and at most `cap` per
    /// retry, driven by a SplitMix64 stream from `seed`.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> DecorrelatedJitter {
        let cap = cap.max(base);
        DecorrelatedJitter {
            base,
            cap,
            prev: base,
            state: seed,
        }
    }

    /// Draws the next delay and advances the stream.
    pub fn next_delay(&mut self) -> Duration {
        let lo = self.base.as_nanos().min(u128::from(u64::MAX)) as u64;
        let hi = self
            .prev
            .saturating_mul(3)
            .min(self.cap)
            .as_nanos()
            .min(u128::from(u64::MAX)) as u64;
        let span = hi.saturating_sub(lo);
        let draw = if span == 0 {
            lo
        } else {
            lo + splitmix64(&mut self.state) % (span + 1)
        };
        self.prev = Duration::from_nanos(draw);
        self.prev
    }

    /// Rewinds the delay ladder to `base` (e.g. after a success) without
    /// resetting the random stream.
    pub fn reset(&mut self) {
        self.prev = self.base;
    }
}

/// Builder-style configuration of a [`JobClient`]: retry budget, per-call
/// timeout, and backoff with decorrelated jitter seeded from the job name
/// — deterministic per job, decorrelated across jobs.
///
/// ```
/// use std::time::Duration;
/// use perseus_server::ClientConfig;
///
/// let cfg = ClientConfig::default()
///     .retries(3)
///     .timeout(Duration::from_millis(250));
/// assert_eq!(cfg.max_attempts(), 3);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    max_attempts: u32,
    base_backoff: Duration,
    max_backoff: Duration,
    timeout: Duration,
}

impl Default for ClientConfig {
    /// 5 attempts, 2 ms base backoff capped at 512 ms, 500 ms per-call
    /// timeout, jitter seeded from the job name.
    fn default() -> ClientConfig {
        ClientConfig {
            max_attempts: 5,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(512),
            timeout: Duration::from_millis(500),
        }
    }
}

impl ClientConfig {
    /// Sets the attempts per operation, including the first (floored at 1).
    pub fn retries(mut self, max_attempts: u32) -> ClientConfig {
        self.max_attempts = max_attempts.max(1);
        self
    }

    /// Sets how long one submission attempt may stay unanswered before the
    /// client resubmits (epoch supersession on the server makes
    /// resubmitting always safe).
    pub fn timeout(mut self, timeout: Duration) -> ClientConfig {
        self.timeout = timeout;
        self
    }

    /// Sets the minimum retry delay — the floor of every jittered draw.
    pub fn backoff(mut self, base_backoff: Duration) -> ClientConfig {
        self.base_backoff = base_backoff;
        self
    }

    /// Sets the ceiling no retry delay ever exceeds.
    pub fn max_backoff(mut self, max_backoff: Duration) -> ClientConfig {
        self.max_backoff = max_backoff;
        self
    }

    /// Attempts per operation, including the first.
    pub fn max_attempts(&self) -> u32 {
        self.max_attempts
    }
}

/// The job-level client: the piece of the training framework that talks
/// to the planning server about one job, hardened against the faults a
/// production control plane actually sees — lost submissions, panicked
/// characterization workers, slow responses. Every operation retries
/// with jittered backoff up to the policy's budget; transient errors
/// ([`ServerError::SubmissionLost`],
/// [`ServerError::CharacterizationPanicked`], [`ServerError::Overloaded`]
/// admission pushback, timeouts, and `NotCharacterized` races on
/// straggler notifications) are retried, everything else surfaces
/// immediately.
///
/// [`ServerError::NotLeader`] is also retryable: the target demoted (or
/// we were pointed at a replication follower), so the client re-resolves
/// the leader through its [resolver](JobClient::set_resolver) — swapping
/// its server handle to the answer — and retries there. Without a
/// resolver the retry budget simply drains against the follower,
/// surfacing [`ServerError::RetriesExhausted`].
pub struct JobClient {
    /// Swapped on failover — see [`JobClient::set_resolver`].
    server: RwLock<Arc<PerseusServer>>,
    job: String,
    config: ClientConfig,
    retries: AtomicU64,
    /// Successful leader re-resolutions (handle swaps) so far.
    failovers: AtomicU64,
    #[allow(clippy::type_complexity)]
    resolver: Mutex<Option<Box<dyn Fn(&str) -> Option<Arc<PerseusServer>> + Send + Sync>>>,
    jitter: Mutex<DecorrelatedJitter>,
}

impl JobClient {
    /// A client for `job` on `server` with the default [`ClientConfig`].
    pub fn new(server: Arc<PerseusServer>, job: impl Into<String>) -> JobClient {
        JobClient::with_config(server, job, ClientConfig::default())
    }

    /// A client for `job` on `server` with an explicit [`ClientConfig`].
    pub fn with_config(
        server: Arc<PerseusServer>,
        job: impl Into<String>,
        config: ClientConfig,
    ) -> JobClient {
        let job = job.into();
        let jitter = Mutex::new(DecorrelatedJitter::new(
            config.base_backoff,
            config.max_backoff,
            fnv64(job.as_bytes()),
        ));
        JobClient {
            server: RwLock::new(server),
            job,
            config,
            retries: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            resolver: Mutex::new(None),
            jitter,
        }
    }

    /// The job this client manages.
    pub fn job(&self) -> &str {
        &self.job
    }

    /// The server handle the next call will use (swapped on failover).
    pub fn server(&self) -> Arc<PerseusServer> {
        Arc::clone(&self.server.read())
    }

    /// Installs the leader resolver: on [`ServerError::NotLeader`] the
    /// client calls it with the error's hint (possibly empty) and, if it
    /// answers, swaps its server handle to the returned leader before
    /// retrying. This is the in-process stand-in for DNS / service
    /// discovery re-resolution in a networked deployment.
    pub fn set_resolver(
        &self,
        resolver: impl Fn(&str) -> Option<Arc<PerseusServer>> + Send + Sync + 'static,
    ) {
        *self.resolver.lock() = Some(Box::new(resolver));
    }

    /// Successful leader re-resolutions so far (observability).
    pub fn failovers(&self) -> u64 {
        self.failovers.load(Ordering::Relaxed)
    }

    /// Handles a [`ServerError::NotLeader`] answer: re-resolve the leader
    /// and swap the handle. Returns whether the handle changed.
    fn re_resolve(&self, hint: &str) -> bool {
        let resolver = self.resolver.lock();
        let Some(resolve) = resolver.as_ref() else {
            return false;
        };
        let Some(leader) = resolve(hint) else {
            return false;
        };
        *self.server.write() = leader;
        self.failovers.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// This client's configuration.
    pub fn config(&self) -> &ClientConfig {
        &self.config
    }

    /// The unified status of this client's job — deployment, solver reuse
    /// stats, chaos counters, degradation flag, epoch — in one read.
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownJob`] if the job was never registered.
    pub fn status(&self) -> Result<JobStatus, ServerError> {
        self.server.read().job_status(&self.job)
    }

    /// Retries performed so far across all operations (observability).
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// The delay the next retry will sleep: a decorrelated-jitter draw.
    /// Split from [`JobClient::backoff`] so determinism tests can observe
    /// delays without sleeping (each call advances the jitter stream).
    pub fn next_backoff_delay(&self) -> Duration {
        self.jitter.lock().next_delay()
    }

    fn backoff(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(self.next_backoff_delay());
    }

    /// Submits profiles and waits for the resulting deployment, retrying
    /// lost/panicked/slow submissions. If a concurrent submission
    /// supersedes ours, the winning deployment is returned — the job is
    /// characterized either way, which is all the caller needs.
    ///
    /// # Errors
    ///
    /// [`ServerError::RetriesExhausted`] once the budget is spent;
    /// non-transient server errors immediately.
    pub fn submit_profiles_with_retry(
        &self,
        profiles: &ProfileDb<OpKey>,
        opts: &FrontierOptions,
    ) -> Result<Deployment, ServerError> {
        for attempt in 0..self.config.max_attempts.max(1) {
            if attempt > 0 {
                self.backoff();
            }
            let server = self.server();
            let ticket = match server.submit_profiles(&self.job, profiles.clone(), opts) {
                Ok(t) => t,
                // Admission pushback: the server is at its in-flight
                // characterization bound. A slot frees as soon as any
                // running characterization finishes, so back off and retry
                // — jitter keeps a fleet of pushed-back clients from
                // re-stampeding in lockstep.
                Err(ServerError::Overloaded { .. }) => continue,
                // Demoted target (or we were handed a follower): swap to
                // the hinted leader and retry there. Without a resolver
                // retrying is hopeless — the role won't change under us —
                // so surface the error instead of burning the budget.
                Err(ServerError::NotLeader { hint }) => {
                    if !self.re_resolve(&hint) {
                        return Err(ServerError::NotLeader { hint });
                    }
                    continue;
                }
                Err(e) => return Err(e),
            };
            match ticket.wait_timeout(self.config.timeout) {
                Some(Ok(d)) => return Ok(d),
                Some(Err(ServerError::Superseded(_))) => {
                    // A newer submission won; its deployment answers ours.
                    return server
                        .job_status(&self.job)?
                        .deployment
                        .ok_or_else(|| ServerError::NotCharacterized(self.job.clone()));
                }
                Some(Err(
                    ServerError::SubmissionLost(_) | ServerError::CharacterizationPanicked(_),
                )) => continue,
                Some(Err(e)) => return Err(e),
                // Timeout: the slow attempt may still land later; the
                // resubmission's higher epoch wins if both finish.
                None => continue,
            }
        }
        Err(ServerError::RetriesExhausted(self.job.clone()))
    }

    /// Notifies the server of a straggler (Table 2
    /// `server.set_straggler`), retrying transient failures so every
    /// notification is eventually answered even while the job is being
    /// (re-)characterized.
    ///
    /// # Errors
    ///
    /// [`ServerError::RetriesExhausted`] once the budget is spent;
    /// non-transient errors (e.g. `InvalidDegree`) immediately.
    pub fn notify_straggler_with_retry(
        &self,
        gpu_id: usize,
        delay_s: f64,
        degree: f64,
    ) -> Result<Option<Deployment>, ServerError> {
        for attempt in 0..self.config.max_attempts.max(1) {
            if attempt > 0 {
                self.backoff();
            }
            match self
                .server()
                .set_straggler(&self.job, gpu_id, delay_s, degree)
            {
                Ok(d) => return Ok(d),
                // Not characterized *yet*: an initial characterization may
                // still be in flight on the worker pool.
                Err(ServerError::NotCharacterized(_)) => continue,
                // Demoted target: re-resolve the leader and retry there;
                // unresolvable demotions surface immediately.
                Err(ServerError::NotLeader { hint }) => {
                    if !self.re_resolve(&hint) {
                        return Err(ServerError::NotLeader { hint });
                    }
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
        Err(ServerError::RetriesExhausted(self.job.clone()))
    }
}

/// One client process per accelerator (Table 2): owns the device, profiles
/// computations in vivo, and realizes deployed energy schedules.
pub struct ClientSession {
    stage: usize,
    gpu: Arc<Mutex<SimGpu>>,
    controller: AsyncFrequencyController,
    /// Per-kind frequency queues in stage-program order, refilled each
    /// iteration from the deployed schedule.
    plan: Vec<(CompKind, FreqMHz)>,
    cursor: usize,
    profiling: Option<(CompKind, f64, f64)>,
}

impl ClientSession {
    /// Creates a client managing `gpu` for pipeline stage `stage`.
    pub fn new(stage: usize, gpu: SimGpu) -> ClientSession {
        let gpu = Arc::new(Mutex::new(gpu));
        let controller = AsyncFrequencyController::spawn(Arc::clone(&gpu));
        ClientSession {
            stage,
            gpu,
            controller,
            plan: Vec::new(),
            cursor: 0,
            profiling: None,
        }
    }

    /// The stage this client serves.
    pub fn stage(&self) -> usize {
        self.stage
    }

    /// Shared handle to the device (for inspection in tests/emulators).
    pub fn gpu(&self) -> Arc<Mutex<SimGpu>> {
        Arc::clone(&self.gpu)
    }

    /// Table 2 `profiler.begin(type)` — start a time/energy measurement.
    pub fn begin_profile(&mut self, kind: CompKind) {
        let g = self.gpu.lock();
        self.profiling = Some((kind, g.clock_s(), g.energy_counter_j()));
    }

    /// Table 2 `profiler.end(type)` — finish the measurement started by
    /// [`ClientSession::begin_profile`]; returns `(time_s, energy_j)`.
    ///
    /// # Panics
    ///
    /// Panics if no measurement is in flight or the kind mismatches —
    /// that is a framework-integration bug, mirroring the paper's wrapper
    /// contract.
    pub fn end_profile(&mut self, kind: CompKind) -> (f64, f64) {
        let (k0, t0, e0) = self.profiling.take().expect("begin_profile not called");
        assert_eq!(k0, kind, "mismatched begin/end profile kinds");
        let g = self.gpu.lock();
        (g.clock_s() - t0, g.energy_counter_j() - e0)
    }

    /// Runs the §5 online frequency sweep for one computation type.
    pub fn profile_sweep(&mut self, w: &Workload, profiler: &OnlineProfiler) -> OpProfile {
        profiler.profile(&mut self.gpu.lock(), w)
    }

    /// Loads the frequencies this stage must use, in stage-program order,
    /// from a deployed schedule.
    pub fn load_schedule(&mut self, pipe: &PipelineDag, schedule: &EnergySchedule) {
        self.plan.clear();
        self.cursor = 0;
        // Pipeline nodes are created in stage-program order per stage, so
        // filtering preserves execution order.
        for (id, c) in pipe.computations() {
            if c.stage == self.stage {
                if let Some(f) = schedule.freq_of(id) {
                    self.plan.push((c.kind, f));
                }
            }
        }
    }

    /// Table 2 `controller.set_speed(type)` — called by the training
    /// framework right before running the next computation of `kind`;
    /// queues the planned frequency asynchronously.
    ///
    /// # Panics
    ///
    /// Panics if called more times per iteration than the schedule has
    /// computations, or out of program order — framework bugs.
    pub fn set_speed(&mut self, kind: CompKind) {
        let (k, f) = self
            .plan
            .get(self.cursor)
            .copied()
            .expect("schedule exhausted");
        assert_eq!(k, kind, "set_speed out of program order");
        self.controller.set_speed(f);
        self.cursor += 1;
        if self.cursor == self.plan.len() {
            self.cursor = 0; // next iteration repeats the plan
        }
    }

    /// Waits for queued frequency changes to land (iteration boundary).
    pub fn sync(&self) {
        self.controller.flush();
    }
}
