//! The cluster emulator: one pipeline characterized, `D` replicas
//! accounted (§4.4: operator-parallel replicas share one energy schedule,
//! so it suffices to optimize a single data-parallel copy).

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use perseus_baselines::{AllMaxFreq, EnvPipe, MinEnergyOracle, ZeusGlobal, ZeusPerStage};
use perseus_core::{
    AttributionSums, BloatLedger, CoreError, EnergyBreakdown, EnergySchedule, EnergySums,
    FrontierOptions, FrontierPlan, FrontierSolver, ParetoFrontier, PipelineEnergy, PlanContext,
    PlanOutput, Planner, ScheduleAttribution,
};
use perseus_gpu::{FreqMHz, GpuSpec, PowerStateModel};
use perseus_models::{
    min_imbalance_partition, ModelError, ModelSpec, PartitionError, StageWorkloads,
};
use perseus_pipeline::{
    node_start_times, PipeNode, PipelineBuilder, PipelineDag, ScheduleError, ScheduleKind,
};
use perseus_telemetry::Telemetry;

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
    /// The configuration asks for zero data-parallel pipelines.
    NoPipelines,
}

impl fmt::Display for EmulatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmulatorError::Partition(e) => write!(f, "partitioning failed: {e}"),
            EmulatorError::Model(e) => write!(f, "model error: {e}"),
            EmulatorError::Schedule(e) => write!(f, "schedule error: {e}"),
            EmulatorError::Core(e) => write!(f, "frontier error: {e}"),
            EmulatorError::InvalidDegree(d) => write!(f, "straggler degree {d} must be >= 1"),
            EmulatorError::NoPipelines => {
                f.write_str("data-parallel pipeline count must be positive")
            }
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

/// Energy policy applied to the non-straggler pipelines: the closed set
/// the emulator prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Every computation at maximum frequency (the baseline).
    AllMax,
    /// Perseus: frontier lookup at `T_opt = min(T*, T')`.
    Perseus,
    /// Kareus: the Perseus frontier with sleep windows inserted into
    /// pipeline bubbles (joint dynamic + static planning).
    Kareus,
    /// EnvPipe: intrinsic-only heuristic, unaware of stragglers.
    EnvPipe,
    /// ZeusGlobal: the lowest-energy global frequency cap whose iteration
    /// time does not exceed `T'`.
    ZeusGlobal,
    /// ZeusPerStage: per-stage clocks balancing forward times under `T'`.
    ZeusPerStage,
    /// Every computation at its minimum-energy frequency (§2.4 oracle).
    MinEnergyOracle,
}

impl Policy {
    /// Every policy, in declaration order.
    pub const ALL: [Policy; 7] = [
        Policy::AllMax,
        Policy::Perseus,
        Policy::Kareus,
        Policy::EnvPipe,
        Policy::ZeusGlobal,
        Policy::ZeusPerStage,
        Policy::MinEnergyOracle,
    ];

    /// The stable name of the planner behind this policy
    /// ([`Planner::name`]).
    pub fn name(&self) -> &'static str {
        match self {
            Policy::AllMax => "all_max_freq",
            Policy::Perseus => "perseus",
            Policy::Kareus => "kareus",
            Policy::EnvPipe => "envpipe",
            Policy::ZeusGlobal => "zeus_global",
            Policy::ZeusPerStage => "zeus_per_stage",
            Policy::MinEnergyOracle => "min_energy_oracle",
        }
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
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
/// Each [`Policy`]'s [`PlanOutput`] is computed once, on first use, and
/// cached — straggler events only re-*select* from the cached output,
/// mirroring how the planning server reacts without replanning.
///
/// The planning context (pipeline, profiles, fitted curves) is built once,
/// at construction, and kept for the emulator's lifetime: pricing an
/// iteration never re-fits a profile. So is the frontier: it is
/// characterized once, and the Perseus and Kareus plans share its `Arc`
/// (Kareus adds only its sleep plans).
///
/// Every selected schedule is priced once, too. Of Eq. 3 and the bloat
/// ledger only the gradient-sync wait depends on `T'`, so the emulator
/// keeps each selection's `T'`-independent halves ([`EnergySums`],
/// [`AttributionSums`]), keyed by policy and
/// [`PlanOutput::select_index`]. An iteration on a schedule already
/// priced only evaluates them at its sync time, in O(`n_stages`).
pub struct Emulator {
    config: ClusterConfig,
    /// The one planning context; owns the emulated pipeline.
    ctx: PlanContext<'static>,
    stages: Vec<StageWorkloads>,
    frontier: Arc<ParetoFrontier>,
    plan_cache: Mutex<HashMap<Policy, Arc<PlanOutput>>>,
    /// The priced halves of every selection made from `plan_cache`, so
    /// at most one entry per schedule of a cached plan; dropped with the
    /// plans when a cap lands.
    priced: Mutex<HashMap<(Policy, usize), Arc<Priced>>>,
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
        if config.n_pipelines == 0 {
            return Err(EmulatorError::NoPipelines);
        }
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
        let frontier = FrontierSolver::with_telemetry(&ctx.pipe, telemetry.clone())
            .characterize(&ctx, &config.frontier)?;
        Ok(Emulator {
            config,
            ctx,
            stages,
            frontier: Arc::new(frontier),
            plan_cache: Mutex::new(HashMap::new()),
            priced: Mutex::new(HashMap::new()),
            freq_cap: None,
            telemetry,
        })
    }

    /// The telemetry handle emulation records into (disabled unless the
    /// emulator was built with [`Emulator::with_telemetry`]).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
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
                // The stalled pipeline is a different DAG over the same
                // computations, so it is priced all-max from this
                // context's profiles: every computation at the fastest
                // profiled point, exactly as an all-max plan realizes it.
                let stalled = PipelineBuilder::new(
                    self.config.schedule,
                    self.config.n_stages,
                    self.config.n_microbatches,
                )
                .with_data_loading(stall_s, self.config.gpu.blocking_w)
                .build()?;
                let (_, t) = node_start_times(&stalled.dag, |_, node| match node {
                    PipeNode::Comp(c) => {
                        let profile = ctx.profiles.get(&c.op_key()).expect("profiled op");
                        profile
                            .slowest_within(profile.t_min())
                            .expect("a profile meets its own t_min")
                            .time_s
                    }
                    PipeNode::Fixed { time_s, .. } => *time_s,
                    _ => 0.0,
                });
                t.max(base)
            }
        })
    }

    /// The policy's `T'`-independent plan, as [`Emulator::report`] uses
    /// it: from the cache when present, otherwise planned on first use and
    /// cached for the emulator's lifetime. Perseus and Kareus are built
    /// from the one characterized (and, under a cap, clamped) frontier;
    /// the baselines plan against the kept context. Public so
    /// differential tests can compare the cached artifact against a
    /// freshly planned one.
    ///
    /// # Errors
    ///
    /// Propagates planning failures.
    pub fn plan_of(&self, policy: Policy) -> Result<Arc<PlanOutput>, EmulatorError> {
        if let Some(out) = self.plan_cache.lock().get(&policy) {
            return Ok(Arc::clone(out));
        }
        let ctx = &self.ctx;
        // Plans computed after a cap landed live under that cap too, so
        // cached and lazily planned policies stay consistent; the frontier
        // itself is clamped when the cap lands.
        let baseline = |planner: &dyn Planner| -> Result<PlanOutput, CoreError> {
            let plan = planner.plan(ctx)?;
            match self.freq_cap {
                Some(cap) => plan.clamp_freq_cap(ctx, cap, None),
                None => Ok(plan),
            }
        };
        let frontier = Arc::clone(&self.frontier);
        let plan = match policy {
            Policy::Perseus => PlanOutput::Frontier(FrontierPlan::new(frontier)),
            Policy::Kareus => {
                // Kareus draws from the GPU's default sleep-state menu.
                let power = PowerStateModel::default_for(&self.config.gpu);
                PlanOutput::Frontier(FrontierPlan::with_sleep(frontier, ctx, &power))
            }
            Policy::AllMax => baseline(&AllMaxFreq)?,
            Policy::EnvPipe => baseline(&EnvPipe::default())?,
            Policy::ZeusGlobal => baseline(&ZeusGlobal)?,
            Policy::ZeusPerStage => baseline(&ZeusPerStage)?,
            Policy::MinEnergyOracle => baseline(&MinEnergyOracle)?,
        };
        let out = Arc::new(plan);
        self.plan_cache.lock().insert(policy, Arc::clone(&out));
        Ok(out)
    }

    /// The policy's selection for straggler time `t_prime`: its plan, the
    /// index [`PlanOutput::select_index`] picks, and that schedule's
    /// priced halves (shared with every earlier pricing of it).
    fn selection(&self, policy: Policy, t_prime: Option<f64>) -> Result<Selection, EmulatorError> {
        let plan = self.plan_of(policy)?;
        let index = plan.select_index(t_prime);
        let priced = Arc::clone(self.priced.lock().entry((policy, index)).or_default());
        Ok(Selection {
            plan,
            index,
            priced,
        })
    }

    /// How many priced halves the emulator holds: a probe for tests that
    /// each (policy, selection) is priced at most once.
    #[cfg(test)]
    pub(crate) fn priced_parts(&self) -> usize {
        self.priced
            .lock()
            .values()
            .map(|p| usize::from(p.energy.get().is_some()) + usize::from(p.ledger.get().is_some()))
            .sum()
    }

    /// A datacenter frequency cap landed on the cluster (§2.3): frontier
    /// points assigning clocks above `cap` are no longer realizable. The
    /// characterized frontier is re-clamped once, via
    /// [`ParetoFrontier::clamp_to_freq_cap`], and the Perseus and Kareus
    /// plans are rebuilt on it at their next use (Kareus re-deriving its
    /// sleep windows against the capped timeline); every cached baseline
    /// plan is re-clamped via [`PlanOutput::clamp_freq_cap`]. The priced
    /// halves of every selection go with the plans they priced. Nothing
    /// panics at deploy time, and the cap is remembered so baselines
    /// planned lazily afterwards are clamped the same way. Clamping is
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
        let frontier = Arc::new(self.frontier.clamp_to_freq_cap(&self.ctx, cap)?);
        let mut clamped = HashMap::new();
        for (&policy, plan) in self.plan_cache.get_mut().iter() {
            // Plans on the frontier are rebuilt from the clamped one on
            // next use.
            if plan.as_frontier().is_none() {
                clamped.insert(policy, Arc::new(plan.clamp_freq_cap(&self.ctx, cap, None)?));
            }
        }
        self.frontier = frontier;
        *self.plan_cache.get_mut() = clamped;
        self.priced.get_mut().clear();
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
        let chosen = self.selection(policy, believed_t_prime)?;
        // If the belief is stale the non-straggler pipeline itself may be
        // the slowest participant.
        let sync = actual_t_prime.unwrap_or(0.0).max(chosen.schedule().time_s);
        // The sleep plan follows the *believed* selection — it ships with
        // the deployed schedule; a stale belief never re-plans sleep.
        let non_straggler = chosen.energy(ctx).at(Some(sync));
        // The straggler itself runs at max frequency; its computations are
        // stretched to fill T' (e.g. throttled clocks), and it then waits
        // for the sync like everyone else, so it is charged its
        // max-frequency computation energy plus blocking up to the sync.
        let straggler = match actual_t_prime {
            Some(t) => {
                let base = self.selection(Policy::AllMax, None)?;
                let mut r = base.energy(ctx).at(Some(sync.max(t)));
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
        let chosen = self.selection(policy, believed_t_prime)?;
        let sync = actual_t_prime.unwrap_or(0.0).max(chosen.schedule().time_s);
        let non_straggler = chosen.attribution(ctx).at(Some(sync));
        let straggler = match actual_t_prime {
            Some(t) => {
                let base = self.selection(Policy::AllMax, None)?;
                Some(base.attribution(ctx).at(Some(sync.max(t))))
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

/// The `T'`-independent halves of pricing one selected schedule, each
/// built on its first use: Eq. 3's sums for [`Emulator::report`] and the
/// ledger's lanes for [`Emulator::attribute`].
#[derive(Default)]
struct Priced {
    energy: OnceLock<EnergySums>,
    ledger: OnceLock<AttributionSums>,
}

/// One policy's selection: the plan, the selected index, and the priced
/// halves of the schedule at that index.
struct Selection {
    plan: Arc<PlanOutput>,
    index: usize,
    priced: Arc<Priced>,
}

impl Selection {
    /// The selected schedule.
    fn schedule(&self) -> &EnergySchedule {
        self.plan.schedule_at(self.index)
    }

    /// Eq. 3's sums of the selected schedule with the sleep plan that
    /// ships with it.
    fn energy(&self, ctx: &PlanContext<'_>) -> &EnergySums {
        self.priced.energy.get_or_init(|| {
            self.schedule()
                .energy_sums(ctx, self.plan.sleep_plan_at(self.index))
        })
    }

    /// The ledger's lanes of the selected schedule with the sleep plan
    /// that ships with it.
    fn attribution(&self, ctx: &PlanContext<'_>) -> &AttributionSums {
        self.priced.ledger.get_or_init(|| {
            AttributionSums::new(ctx, self.schedule(), self.plan.sleep_plan_at(self.index))
        })
    }
}
