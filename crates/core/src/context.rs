//! Planning context: the pipeline DAG joined with per-computation profiles
//! and fitted time–energy curves.

use std::borrow::Cow;
use std::fmt;

use perseus_dag::NodeId;
use perseus_gpu::GpuSpec;
use perseus_pipeline::{CompKind, OpKey, PipeNode, PipelineDag};
use perseus_profiler::{ExpFit, FitError, OpProfile, ProfileDb};

/// Per-node planning information resolved from the profiles.
#[derive(Debug, Clone)]
pub struct NodePlanInfo {
    /// Pipeline DAG node this refers to.
    pub node: NodeId,
    /// Profiling key (stage × kind).
    pub key: OpKey,
    /// Shortest achievable duration (max frequency).
    pub t_min: f64,
    /// Duration at the minimum-energy frequency.
    pub t_max: f64,
    /// Fitted continuous time–energy curve.
    pub fit: ExpFit,
}

/// Errors from planning.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A computation type has no profile.
    MissingProfile {
        /// Stage of the missing profile.
        stage: usize,
        /// Kind of the missing profile.
        kind: CompKind,
    },
    /// The per-stage workload slice does not match the pipeline's virtual
    /// stage count.
    StageCountMismatch {
        /// Workloads the pipeline needs (`n_stages × chunks`).
        expected: usize,
        /// Workloads supplied.
        got: usize,
    },
    /// A profile could not be fitted.
    Fit(FitError),
    /// The frontier has no points (internal invariant breach).
    EmptyFrontier,
    /// A power-state model is invalid for the target GPU (joint
    /// dynamic+static planning).
    PowerState(perseus_gpu::PowerStateError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::MissingProfile { stage, kind } => {
                write!(f, "no profile for stage {stage} {kind}")
            }
            CoreError::StageCountMismatch { expected, got } => {
                write!(f, "need {expected} per-virtual-stage workloads, got {got}")
            }
            CoreError::Fit(e) => write!(f, "profile fit failed: {e}"),
            CoreError::EmptyFrontier => write!(f, "frontier characterization produced no points"),
            CoreError::PowerState(e) => write!(f, "invalid power-state model: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<FitError> for CoreError {
    fn from(e: FitError) -> Self {
        CoreError::Fit(e)
    }
}

/// Everything the frontier algorithm needs about one pipeline.
///
/// A context either borrows its pipeline (the constructors) or owns it
/// ([`PlanContext::into_owned`]): a caller that prices many iterations
/// of one pipeline keeps one owned context instead of re-fitting every
/// profile per call.
#[derive(Debug)]
pub struct PlanContext<'a> {
    /// The pipeline computation DAG.
    pub pipe: Cow<'a, PipelineDag>,
    /// The GPU the pipeline runs on (supplies `P_blocking`).
    pub gpu: GpuSpec,
    /// Per-computation-type profiles.
    pub profiles: ProfileDb<OpKey>,
    /// Resolved planning info, indexed densely by pipeline DAG node index
    /// (`None` for events and fixed-time nodes).
    pub plan_info: Vec<Option<NodePlanInfo>>,
}

impl<'a> PlanContext<'a> {
    /// Builds a context from an existing profile database (e.g. produced by
    /// the client's online profiler).
    ///
    /// A computation whose profile has a single Pareto point (a noisy
    /// sweep can end there) has nothing to trade: it is planned pinned at
    /// that point, `t_min == t_max`, so no cut ever speeds or slows it.
    ///
    /// # Errors
    ///
    /// [`CoreError::MissingProfile`] if any (stage, kind) pair that occurs
    /// in the DAG has no profile, [`CoreError::Fit`] if a fit fails.
    pub fn new(
        pipe: &'a PipelineDag,
        gpu: &GpuSpec,
        profiles: ProfileDb<OpKey>,
    ) -> Result<PlanContext<'a>, CoreError> {
        let mut plan_info: Vec<Option<NodePlanInfo>> = vec![None; pipe.dag.node_count()];
        // Fits depend only on the (stage, kind) profile, not the node: a
        // pipeline with m microbatches repeats each key m times, so memoize
        // the fit per key instead of re-running the regression per node.
        let mut fits: std::collections::HashMap<OpKey, ExpFit> = std::collections::HashMap::new();
        for (node, comp) in pipe.computations() {
            let key = comp.op_key();
            let profile = profiles.get(&key).ok_or(CoreError::MissingProfile {
                stage: key.stage,
                kind: key.kind,
            })?;
            let fit = match fits.get(&key) {
                Some(fit) => *fit,
                None => {
                    let fit = plan_fit(profile)?;
                    fits.insert(key, fit);
                    fit
                }
            };
            plan_info[node.index()] = Some(NodePlanInfo {
                node,
                key,
                t_min: profile.t_min(),
                t_max: profile.t_max(),
                fit,
            });
        }
        Ok(PlanContext {
            pipe: Cow::Borrowed(pipe),
            gpu: gpu.clone(),
            profiles,
            plan_info,
        })
    }

    /// This context with its pipeline owned: same profiles, same fits,
    /// no lifetime tied to the caller's pipeline.
    pub fn into_owned(self) -> PlanContext<'static> {
        PlanContext {
            pipe: Cow::Owned(self.pipe.into_owned()),
            gpu: self.gpu,
            profiles: self.profiles,
            plan_info: self.plan_info,
        }
    }

    /// Convenience constructor for emulation: plans from
    /// [`model_profiles`] of `stages`.
    ///
    /// # Errors
    ///
    /// [`CoreError::StageCountMismatch`] if `stages` does not cover one
    /// workload per virtual stage; otherwise same as [`PlanContext::new`].
    pub fn from_model_profiles(
        pipe: &'a PipelineDag,
        gpu: &GpuSpec,
        stages: &[perseus_models::StageWorkloads],
    ) -> Result<PlanContext<'a>, CoreError> {
        let expected = pipe.n_stages * pipe.chunks();
        if stages.len() != expected {
            return Err(CoreError::StageCountMismatch {
                expected,
                got: stages.len(),
            });
        }
        PlanContext::new(pipe, gpu, model_profiles(pipe, gpu, stages))
    }

    /// Planning info for `node`, if it is a computation.
    pub fn info(&self, node: NodeId) -> Option<&NodePlanInfo> {
        self.plan_info[node.index()].as_ref()
    }

    /// The profile backing `node`'s computation.
    pub fn profile_of(&self, node: NodeId) -> Option<&OpProfile> {
        self.info(node).and_then(|i| self.profiles.get(&i.key))
    }

    /// Baseline planned durations: every computation at its fastest
    /// (`t_min`); fixed ops at their constant duration.
    pub fn fastest_durations(&self) -> Vec<f64> {
        self.durations_by(|i| i.t_min)
    }

    /// Minimum-energy planned durations: every computation at its
    /// min-energy duration (`t_max`) — Algorithm 1's starting schedule.
    pub fn min_energy_durations(&self) -> Vec<f64> {
        self.durations_by(|i| i.t_max)
    }

    fn durations_by(&self, f: impl Fn(&NodePlanInfo) -> f64) -> Vec<f64> {
        let mut out = vec![0.0; self.pipe.dag.node_count()];
        for id in self.pipe.dag.node_ids() {
            out[id.index()] = match self.pipe.dag.node(id) {
                PipeNode::Comp(_) => f(self.plan_info[id.index()]
                    .as_ref()
                    .expect("comp has plan info")),
                PipeNode::Fixed { time_s, .. } => *time_s,
                _ => 0.0,
            };
        }
        out
    }
}

/// The curve a computation is planned on: the exponential fit of its
/// Pareto points, or, for a single point, the constant at that point's
/// measured energy (there is no tradeoff to fit).
fn plan_fit(profile: &OpProfile) -> Result<ExpFit, FitError> {
    match profile.pareto() {
        [only] => Ok(ExpFit {
            a: 0.0,
            b: 0.0,
            c: only.energy_j,
            t0: only.time_s,
        }),
        _ => profile.fit(),
    }
}

/// Noise-free profiles derived straight from the GPU model and
/// per-(virtual-)stage workloads (§6.3's profiling-grounded emulator):
/// the profile database a client of an emulated pipeline submits.
/// `stages` is indexed by the virtual stage id `chunk · n_stages + stage`
/// (for non-interleaved schedules that is simply the stage index);
/// recompute reuses the forward workload.
pub fn model_profiles(
    pipe: &PipelineDag,
    gpu: &GpuSpec,
    stages: &[perseus_models::StageWorkloads],
) -> ProfileDb<OpKey> {
    let mut profiles = ProfileDb::new();
    let n = pipe.n_stages;
    for (vs, sw) in stages.iter().enumerate() {
        let (stage, chunk) = (vs % n, vs / n);
        for (kind, workload) in [
            (CompKind::Forward, &sw.fwd),
            (CompKind::Backward, &sw.bwd),
            (CompKind::Recompute, &sw.fwd),
        ] {
            profiles.insert(
                OpKey { stage, chunk, kind },
                OpProfile::from_model(gpu, workload),
            );
        }
    }
    profiles
}
