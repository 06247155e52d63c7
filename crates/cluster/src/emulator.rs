//! The cluster emulator: one pipeline characterized, `D` replicas
//! accounted (§4.4: operator-parallel replicas share one energy schedule,
//! so it suffices to optimize a single data-parallel copy).

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;
use perseus_baselines::AllMaxFreq;
use perseus_core::{
    attribute_schedule, attribute_schedule_with_sleep, BloatLedger, CoreError, EnergyBreakdown,
    FrontierOptions, ParetoFrontier, PipelineEnergy, PlanContext, PlanOutput, Planner,
    ScheduleAttribution,
};
use perseus_gpu::{FreqMHz, GpuSpec};
use perseus_models::{
    min_imbalance_partition, ModelError, ModelSpec, PartitionError, StageWorkloads,
};
use perseus_pipeline::{PipelineBuilder, PipelineDag, ScheduleError, ScheduleKind};
use perseus_telemetry::Telemetry;

use crate::registry::PlannerRegistry;

/// Emulation input: the model, hardware, and parallelization layout.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Model to train (costs per microbatch; tensor parallelism is applied
    /// by the emulator).
    pub model: ModelSpec,
    /// GPU every accelerator in the cluster uses.
    pub gpu: GpuSpec,
    /// Pipeline stages.
    pub n_stages: usize,
    /// Microbatches per pipeline per iteration.
    pub n_microbatches: usize,
    /// Data-parallel pipeline count.
    pub n_pipelines: usize,
    /// Tensor parallel degree (GPUs per stage).
    pub tensor_parallel: usize,
    /// Pipeline schedule.
    pub schedule: ScheduleKind,
    /// Frontier characterization options.
    pub frontier: FrontierOptions,
}

impl ClusterConfig {
    /// Total GPUs: pipelines × stages × tensor parallel degree.
    pub fn n_gpus(&self) -> usize {
        self.n_pipelines * self.n_stages * self.tensor_parallel
    }
}

/// Errors from emulator construction and queries.
#[derive(Debug)]
pub enum EmulatorError {
    /// Stage partitioning failed.
    Partition(PartitionError),
    /// Model/partition mismatch or invalid tensor parallel degree.
    Model(ModelError),
    /// Pipeline construction failed.
    Schedule(ScheduleError),
    /// Frontier characterization failed.
    Core(CoreError),
    /// A straggler degree below 1.0 was requested.
    InvalidDegree(f64),
    /// No planner is registered under the policy's name.
    UnknownPolicy(String),
}

impl fmt::Display for EmulatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmulatorError::Partition(e) => write!(f, "partitioning failed: {e}"),
            EmulatorError::Model(e) => write!(f, "model error: {e}"),
            EmulatorError::Schedule(e) => write!(f, "schedule error: {e}"),
            EmulatorError::Core(e) => write!(f, "frontier error: {e}"),
            EmulatorError::InvalidDegree(d) => write!(f, "straggler degree {d} must be >= 1"),
            EmulatorError::UnknownPolicy(name) => write!(f, "no planner registered as {name:?}"),
        }
    }
}

impl std::error::Error for EmulatorError {}

impl From<EmulatorError> for perseus_core::Error {
    fn from(e: EmulatorError) -> Self {
        perseus_core::Error::subsystem("emulator", e)
    }
}

impl From<PartitionError> for EmulatorError {
    fn from(e: PartitionError) -> Self {
        EmulatorError::Partition(e)
    }
}
impl From<ModelError> for EmulatorError {
    fn from(e: ModelError) -> Self {
        EmulatorError::Model(e)
    }
}
impl From<ScheduleError> for EmulatorError {
    fn from(e: ScheduleError) -> Self {
        EmulatorError::Schedule(e)
    }
}
impl From<CoreError> for EmulatorError {
    fn from(e: CoreError) -> Self {
        EmulatorError::Core(e)
    }
}

/// Energy policy applied to the non-straggler pipelines: a planner name
/// resolved through the emulator's [`PlannerRegistry`].
///
/// The well-known policies are associated constants
/// (`Policy::Perseus`, `Policy::AllMax`, …), so existing call sites read
/// exactly as they did when this was an enum; [`Policy::custom`] names a
/// planner registered via [`Emulator::register_planner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Policy {
    name: &'static str,
}

#[allow(non_upper_case_globals)]
impl Policy {
    /// Every computation at maximum frequency (the baseline).
    pub const AllMax: Policy = Policy {
        name: "all_max_freq",
    };
    /// Perseus: frontier lookup at `T_opt = min(T*, T')`.
    pub const Perseus: Policy = Policy { name: "perseus" };
    /// Kareus: the Perseus frontier with sleep windows inserted into
    /// pipeline bubbles (joint dynamic + static planning).
    pub const Kareus: Policy = Policy { name: "kareus" };
    /// EnvPipe: intrinsic-only heuristic, unaware of stragglers.
    pub const EnvPipe: Policy = Policy { name: "envpipe" };
    /// ZeusGlobal: the lowest-energy global frequency cap whose iteration
    /// time does not exceed `T'`.
    pub const ZeusGlobal: Policy = Policy {
        name: "zeus_global",
    };
    /// ZeusPerStage: per-stage clocks balancing forward times under `T'`.
    pub const ZeusPerStage: Policy = Policy {
        name: "zeus_per_stage",
    };
    /// Every computation at its minimum-energy frequency (§2.4 oracle).
    pub const MinEnergyOracle: Policy = Policy {
        name: "min_energy_oracle",
    };

    /// A policy resolving to the planner registered under `name`.
    pub const fn custom(name: &'static str) -> Policy {
        Policy { name }
    }

    /// The planner name this policy resolves to.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)
    }
}

/// Root causes behind straggler pipelines (§2.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StragglerCause {
    /// Datacenter thermal/power capping pins the pipeline's clocks.
    ThermalThrottle {
        /// Frequency cap imposed on every GPU of the straggler pipeline.
        freq_cap: FreqMHz,
    },
    /// Storage/network input stalls before each first-stage forward.
    IoStall {
        /// Extra seconds per microbatch.
        stall_s: f64,
    },
    /// Generic announced slowdown (e.g. a heterogeneous recovery pipeline).
    Slowdown {
        /// Iteration-time inflation factor, ≥ 1.
        degree: f64,
    },
}

/// Per-pipeline and cluster-level energy summary.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Energy of one non-straggler pipeline (Eq. 3, straggler wait
    /// included).
    pub non_straggler: PipelineEnergy,
    /// Energy of the straggler pipeline, if one exists.
    pub straggler: Option<PipelineEnergy>,
    /// Straggler iteration time everyone synchronizes on.
    pub sync_time_s: f64,
    /// Pipelines in the cluster.
    pub n_pipelines: usize,
    /// GPUs per stage (energy multiplier — §4.4 replicates the schedule
    /// across operator-parallel GPUs).
    pub tensor_parallel: usize,
}

impl ClusterReport {
    /// Total cluster energy for one iteration, joules.
    pub fn total_j(&self) -> f64 {
        let stragglers = usize::from(self.straggler.is_some());
        let non = (self.n_pipelines - stragglers) as f64 * self.non_straggler.total_j();
        let s = self.straggler.as_ref().map_or(0.0, PipelineEnergy::total_j);
        (non + s) * self.tensor_parallel as f64
    }

    /// Average cluster power draw, watts.
    pub fn avg_power_w(&self) -> f64 {
        self.total_j() / self.sync_time_s
    }
}

/// The [`ClusterReport`]'s companion on the attribution side: where every
/// joule of one synchronized cluster iteration went, per pipeline role.
///
/// Produced by [`Emulator::attribute`] with exactly the arithmetic of
/// [`Emulator::report`], so `total().total_j()` equals the report's
/// `total_j()` for the same inputs.
#[derive(Debug, Clone)]
pub struct ClusterAttribution {
    /// Attribution of one non-straggler pipeline.
    pub non_straggler: ScheduleAttribution,
    /// Attribution of the straggler pipeline, if one exists.
    pub straggler: Option<ScheduleAttribution>,
    /// Pipelines in the cluster.
    pub n_pipelines: usize,
    /// GPUs per stage (energy multiplier, as in [`ClusterReport`]).
    pub tensor_parallel: usize,
}

impl ClusterAttribution {
    /// Whole-cluster breakdown for one iteration: non-straggler pipelines
    /// replicated, the straggler added, everything multiplied by the
    /// tensor-parallel degree.
    pub fn total(&self) -> EnergyBreakdown {
        let stragglers = usize::from(self.straggler.is_some());
        let mut sum = self
            .non_straggler
            .total
            .scaled((self.n_pipelines - stragglers) as f64);
        if let Some(s) = &self.straggler {
            sum.accumulate(s.total);
        }
        sum.scaled(self.tensor_parallel as f64)
    }

    /// Records this iteration into `ledger` with the cluster multipliers
    /// applied, and advances the ledger's iteration counter.
    pub fn record_into(&self, ledger: &mut BloatLedger) {
        let tp = self.tensor_parallel as f64;
        let stragglers = usize::from(self.straggler.is_some());
        ledger.record(
            &self.non_straggler,
            (self.n_pipelines - stragglers) as f64 * tp,
        );
        if let Some(s) = &self.straggler {
            ledger.record(s, tp);
        }
        ledger.note_iteration();
    }
}

/// Relative savings of a policy versus the all-max baseline under the same
/// straggler conditions.
#[derive(Debug, Clone, Copy)]
pub struct Savings {
    /// `1 − E_policy / E_allmax`, as a percentage.
    pub savings_pct: f64,
    /// Iteration-time inflation of the policy pipeline versus the all-max
    /// pipeline (no-straggler comparison), as a percentage.
    pub slowdown_pct: f64,
}

/// The emulator: one partitioned, profiled, characterized pipeline.
///
/// Policies dispatch through a [`PlannerRegistry`] (no per-policy match):
/// a [`Policy`] is just a planner name, and each planner's
/// [`PlanOutput`] is computed once and cached — straggler events only
/// re-*select* from the cached output, mirroring how the planning server
/// reacts without replanning.
///
/// The planning context (pipeline, profiles, fitted curves) is built once,
/// at construction, and kept for the emulator's lifetime: pricing an
/// iteration never re-fits a profile.
pub struct Emulator {
    config: ClusterConfig,
    /// The one planning context; owns the emulated pipeline.
    ctx: PlanContext<'static>,
    stages: Vec<StageWorkloads>,
    frontier: ParetoFrontier,
    planners: PlannerRegistry,
    plan_cache: Mutex<HashMap<&'static str, Arc<PlanOutput>>>,
    /// Active datacenter frequency cap, if any; plans computed after the
    /// cap landed are clamped to it so cached and fresh plans agree.
    freq_cap: Option<FreqMHz>,
    telemetry: Telemetry,
}

impl Emulator {
    /// Partitions the model (minimum-imbalance, Appendix B), builds the
    /// pipeline DAG, derives model-grounded profiles, and characterizes
    /// the Pareto frontier.
    ///
    /// # Errors
    ///
    /// Any of the construction stages can fail; see [`EmulatorError`].
    pub fn new(config: ClusterConfig) -> Result<Emulator, EmulatorError> {
        Emulator::with_telemetry(config, Telemetry::disabled())
    }

    /// Like [`Emulator::new`], but subsequent emulation (in particular
    /// [`crate::simulate_run`]) records counters into `telemetry`.
    /// Telemetry never changes any emulation output — it only observes.
    ///
    /// # Errors
    ///
    /// Any of the construction stages can fail; see [`EmulatorError`].
    pub fn with_telemetry(
        config: ClusterConfig,
        telemetry: Telemetry,
    ) -> Result<Emulator, EmulatorError> {
        let model = config.model.with_tensor_parallel(config.tensor_parallel)?;
        let weights = model.fwd_latency_weights(&config.gpu);
        // Interleaved schedules split the model into stages × chunks
        // virtual stages; `stage_workloads` then yields one entry per
        // virtual stage, which is exactly what the planner expects.
        let virtual_stages = config.n_stages * config.schedule.chunks();
        let partition = min_imbalance_partition(&weights, virtual_stages)?;
        let stages = model.stage_workloads(&partition, &config.gpu)?;
        let pipe = PipelineBuilder::new(config.schedule, config.n_stages, config.n_microbatches)
            .build()?;
        let ctx = PlanContext::from_model_profiles(&pipe, &config.gpu, &stages)?.into_owned();
        let frontier = perseus_core::FrontierSolver::with_telemetry(&ctx.pipe, telemetry.clone())
            .characterize(&ctx, &config.frontier)?;
        let planners = PlannerRegistry::with_defaults(config.frontier.clone(), &config.gpu);
        // Perseus is planned eagerly (it is the frontier just
        // characterized); baselines plan lazily on first use.
        let plan_cache = Mutex::new(HashMap::from([(
            Policy::Perseus.name(),
            Arc::new(PlanOutput::Frontier(frontier.clone())),
        )]));
        Ok(Emulator {
            config,
            ctx,
            stages,
            frontier,
            planners,
            plan_cache,
            freq_cap: None,
            telemetry,
        })
    }

    /// The telemetry handle emulation records into (disabled unless the
    /// emulator was built with [`Emulator::with_telemetry`]).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Registers `planner` so [`Policy::custom`]`(planner.name())` can
    /// dispatch to it, replacing any planner of the same name (and
    /// dropping that name's cached plan).
    pub fn register_planner(&mut self, planner: Arc<dyn Planner>) {
        self.plan_cache.lock().remove(planner.name());
        self.planners.register(planner);
    }

    /// The planner registry policies resolve through.
    pub fn planners(&self) -> &PlannerRegistry {
        &self.planners
    }

    /// The emulated pipeline DAG.
    pub fn pipe(&self) -> &PipelineDag {
        &self.ctx.pipe
    }

    /// Per-stage workloads after partitioning.
    pub fn stages(&self) -> &[StageWorkloads] {
        &self.stages
    }

    /// The characterized frontier of one pipeline.
    pub fn frontier(&self) -> &ParetoFrontier {
        &self.frontier
    }

    /// The configuration this emulator was built from.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The planning context built at construction: the pipeline, its
    /// model-derived profiles and their fitted curves. The same context
    /// for the emulator's whole life — a frequency cap changes plans, not
    /// profiles — so every call returns the same allocation.
    pub fn ctx(&self) -> &PlanContext<'static> {
        &self.ctx
    }

    /// Translates a straggler cause into the straggler's iteration time.
    pub fn straggler_iteration_time(&self, cause: StragglerCause) -> Result<f64, EmulatorError> {
        let ctx = &self.ctx;
        let base = self.plan_of(Policy::AllMax)?.select(None).time_s;
        Ok(match cause {
            StragglerCause::Slowdown { degree } => {
                if degree < 1.0 {
                    return Err(EmulatorError::InvalidDegree(degree));
                }
                base * degree
            }
            StragglerCause::ThermalThrottle { freq_cap } => {
                // The straggler's computations all run at the capped clock.
                let cap = self.config.gpu.clamp_freq(freq_cap);
                let mut planned = ctx.fastest_durations();
                for id in ctx.pipe.dag.node_ids() {
                    if ctx.info(id).is_some() {
                        let profile = ctx.profile_of(id).expect("comp");
                        if let Some(e) = profile.entry_at(cap) {
                            planned[id.index()] = e.time_s;
                        }
                    }
                }
                let (_, t) =
                    perseus_pipeline::node_start_times(&ctx.pipe.dag, |id, _| planned[id.index()]);
                t.max(base)
            }
            StragglerCause::IoStall { stall_s } => {
                let stalled = PipelineBuilder::new(
                    self.config.schedule,
                    self.config.n_stages,
                    self.config.n_microbatches,
                )
                .with_data_loading(stall_s, self.config.gpu.blocking_w)
                .build()?;
                let ctx2 =
                    PlanContext::from_model_profiles(&stalled, &self.config.gpu, &self.stages)?;
                // Planned fresh, never from the cache: the stalled DAG is a
                // different pipeline than the one the cache describes.
                let t = AllMaxFreq.plan(&ctx2)?.select(None).time_s;
                t.max(base)
            }
        })
    }

    /// The policy's `T'`-independent plan, as [`Emulator::report`] uses
    /// it: from the cache when present, otherwise planned through the
    /// registry on first use and cached for the emulator's lifetime.
    /// Public so differential tests can compare the cached artifact
    /// against a freshly planned one.
    ///
    /// # Errors
    ///
    /// [`EmulatorError::UnknownPolicy`] for unregistered names;
    /// propagates planning failures.
    pub fn plan_of(&self, policy: Policy) -> Result<Arc<PlanOutput>, EmulatorError> {
        if let Some(out) = self.plan_cache.lock().get(policy.name()) {
            return Ok(Arc::clone(out));
        }
        let planner = self
            .planners
            .get(policy.name())
            .ok_or_else(|| EmulatorError::UnknownPolicy(policy.name().to_string()))?;
        let mut plan = planner.plan(&self.ctx)?;
        // Plans computed after a cap landed live under that cap too, so
        // cached and lazily planned policies stay consistent.
        if let Some(cap) = self.freq_cap {
            plan = plan.clamp_freq_cap(&self.ctx, cap)?;
        }
        let out = Arc::new(plan);
        self.plan_cache
            .lock()
            .insert(policy.name(), Arc::clone(&out));
        Ok(out)
    }

    /// A datacenter frequency cap landed on the cluster (§2.3): frontier
    /// points assigning clocks above `cap` are no longer realizable.
    /// Every cached plan — including the characterized Perseus frontier —
    /// is re-clamped via [`PlanOutput::clamp_freq_cap`] instead of
    /// panicking at deploy time, and the cap is remembered so plans
    /// computed lazily afterwards are clamped the same way. Clamping is
    /// monotone, so repeated caps converge: only the lowest cap matters.
    ///
    /// # Errors
    ///
    /// Propagates re-realization failures.
    pub fn apply_freq_cap(&mut self, cap: FreqMHz) -> Result<(), EmulatorError> {
        let cap = self.config.gpu.clamp_freq(cap);
        if self.freq_cap.is_some_and(|old| old <= cap) {
            return Ok(());
        }
        let clamped_frontier = self.frontier.clamp_to_freq_cap(&self.ctx, cap)?;
        let mut clamped_cache = HashMap::new();
        for (name, plan) in self.plan_cache.lock().iter() {
            clamped_cache.insert(*name, Arc::new(plan.clamp_freq_cap(&self.ctx, cap)?));
        }
        clamped_cache.insert(
            Policy::Perseus.name(),
            Arc::new(PlanOutput::Frontier(clamped_frontier.clone())),
        );
        self.frontier = clamped_frontier;
        *self.plan_cache.lock() = clamped_cache;
        self.freq_cap = Some(cap);
        Ok(())
    }

    /// The active datacenter frequency cap, if one was applied.
    pub fn freq_cap(&self) -> Option<FreqMHz> {
        self.freq_cap
    }

    /// Emulates one synchronized iteration: non-straggler pipelines run
    /// `policy`, the straggler (if any) runs at max frequency but `cause`
    /// inflates its iteration time, and everyone blocks until the slowest
    /// pipeline finishes — the straggler at `T'`, or the policy's own
    /// schedule when it runs slower than that. The deployed schedule
    /// answers the straggler's `T'` (see [`Emulator::report_with_belief`]).
    ///
    /// # Errors
    ///
    /// Propagates schedule construction failures.
    pub fn report(
        &self,
        policy: Policy,
        cause: Option<StragglerCause>,
    ) -> Result<ClusterReport, EmulatorError> {
        let t_prime = cause
            .map(|c| self.straggler_iteration_time(c))
            .transpose()?;
        self.report_with_belief(policy, t_prime, t_prime)
    }

    /// Like [`Emulator::report`], but the deployed schedule answers a
    /// (possibly stale) *believed* straggler iteration time while blocking
    /// is charged against the *actual* one — the accounting needed to
    /// simulate reaction latency over a training segment.
    ///
    /// # Errors
    ///
    /// Propagates schedule construction failures.
    pub fn report_with_belief(
        &self,
        policy: Policy,
        believed_t_prime: Option<f64>,
        actual_t_prime: Option<f64>,
    ) -> Result<ClusterReport, EmulatorError> {
        let ctx = &self.ctx;
        let plan = self.plan_of(policy)?;
        let schedule = plan.select(believed_t_prime);
        // If the belief is stale the non-straggler pipeline itself may be
        // the slowest participant.
        let sync = actual_t_prime.unwrap_or(0.0).max(schedule.time_s);
        // The sleep plan follows the *believed* selection — it ships with
        // the deployed schedule; a stale belief never re-plans sleep.
        let non_straggler =
            schedule.energy_report_with_sleep(ctx, Some(sync), plan.sleep_plan(believed_t_prime));
        // The straggler itself runs at max frequency; its computations are
        // stretched to fill T' (e.g. throttled clocks), and it then waits
        // for the sync like everyone else, so it is charged its
        // max-frequency computation energy plus blocking up to the sync.
        let straggler = match actual_t_prime {
            Some(t) => {
                let base = self.plan_of(Policy::AllMax)?;
                let mut r = base.select(None).energy_report(ctx, Some(sync.max(t)));
                r.sync_time_s = sync.max(t);
                Some(r)
            }
            None => None,
        };
        Ok(ClusterReport {
            non_straggler,
            straggler,
            sync_time_s: sync,
            n_pipelines: self.config.n_pipelines,
            tensor_parallel: self.config.tensor_parallel,
        })
    }

    /// Attributes one synchronized iteration under exactly the conditions
    /// of [`Emulator::report`]: same plan selection, same straggler
    /// arithmetic, but every pipeline's energy split into useful /
    /// intrinsic / extrinsic joules. Observe-only: attribution never
    /// touches the plan cache state the report path doesn't.
    ///
    /// # Errors
    ///
    /// Propagates schedule construction failures.
    pub fn attribute(
        &self,
        policy: Policy,
        cause: Option<StragglerCause>,
    ) -> Result<ClusterAttribution, EmulatorError> {
        let t_prime = cause
            .map(|c| self.straggler_iteration_time(c))
            .transpose()?;
        self.attribute_with_belief(policy, t_prime, t_prime)
    }

    /// The attribution twin of [`Emulator::report_with_belief`]: deployed
    /// schedule answers the *believed* straggler time, blocking is charged
    /// against the *actual* one.
    ///
    /// # Errors
    ///
    /// Propagates schedule construction failures.
    pub fn attribute_with_belief(
        &self,
        policy: Policy,
        believed_t_prime: Option<f64>,
        actual_t_prime: Option<f64>,
    ) -> Result<ClusterAttribution, EmulatorError> {
        let ctx = &self.ctx;
        let plan = self.plan_of(policy)?;
        let schedule = plan.select(believed_t_prime);
        let sync = actual_t_prime.unwrap_or(0.0).max(schedule.time_s);
        let non_straggler = attribute_schedule_with_sleep(
            ctx,
            schedule,
            Some(sync),
            plan.sleep_plan(believed_t_prime),
        );
        let straggler = match actual_t_prime {
            Some(t) => {
                let base = self.plan_of(Policy::AllMax)?;
                Some(attribute_schedule(
                    ctx,
                    base.select(None),
                    Some(sync.max(t)),
                ))
            }
            None => None,
        };
        Ok(ClusterAttribution {
            non_straggler,
            straggler,
            n_pipelines: self.config.n_pipelines,
            tensor_parallel: self.config.tensor_parallel,
        })
    }

    /// Table 4-style savings of `policy` versus all-max under an optional
    /// generic straggler of `degree`.
    ///
    /// # Errors
    ///
    /// Propagates emulation failures.
    pub fn savings(&self, policy: Policy, degree: Option<f64>) -> Result<Savings, EmulatorError> {
        let cause = degree.map(|d| StragglerCause::Slowdown { degree: d });
        let base = self.report(Policy::AllMax, cause)?;
        let with = self.report(policy, cause)?;
        let savings_pct =
            (1.0 - with.non_straggler.total_j() / base.non_straggler.total_j()) * 100.0;
        let slowdown_pct =
            (with.non_straggler.iter_time_s / base.non_straggler.iter_time_s - 1.0) * 100.0;
        Ok(Savings {
            savings_pct,
            slowdown_pct,
        })
    }
}
