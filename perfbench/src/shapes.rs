//! Job inputs: partitioned, built and profiled pipelines.

use std::error::Error;

use perseus_gpu::{GpuSpec, NoiseModel, SimGpu, Workload};
use perseus_models::{min_imbalance_partition, ModelSpec, StageWorkloads};
use perseus_pipeline::{CompKind, OpKey, PipelineBuilder, PipelineDag, ScheduleKind};
use perseus_profiler::{OnlineProfiler, OpProfile, ProfileDb};

use crate::rng::Stream;
use crate::trace::Tracer;

/// Setup failures abort the run: without inputs there is nothing to time.
pub type Fallible<T> = Result<T, Box<dyn Error>>;

/// One pipeline shape: a model split over stages on one GPU type.
pub struct Shape {
    /// Human-readable description.
    pub label: String,
    /// GPU type of every stage.
    pub gpu: GpuSpec,
    /// The 1F1B computation DAG of one iteration.
    pub pipe: PipelineDag,
    /// Per-stage forward/backward workloads.
    pub stages: Vec<StageWorkloads>,
}

impl Shape {
    /// Partitions `model` over `n_stages` (minimum imbalance) and builds
    /// its 1F1B pipeline of `n_microbatches`.
    ///
    /// # Errors
    ///
    /// Partitioning or pipeline construction failures.
    pub fn build(
        tracer: &Tracer,
        label: String,
        model: &ModelSpec,
        gpu: &GpuSpec,
        n_stages: usize,
        n_microbatches: usize,
    ) -> Fallible<Shape> {
        let stages = {
            let _s = tracer.span("models.partition_ms");
            let weights = model.fwd_latency_weights(gpu);
            let partition = min_imbalance_partition(&weights, n_stages)?;
            model.stage_workloads(&partition, gpu)?
        };
        let pipe = {
            let _s = tracer.span("pipeline.build_ms");
            PipelineBuilder::new(ScheduleKind::OneFOneB, n_stages, n_microbatches).build()?
        };
        Ok(Shape {
            label,
            gpu: gpu.clone(),
            pipe,
            stages,
        })
    }
}

/// Sweeps beyond the first allowed for one computation; see [`sweep`].
const MAX_RESWEEPS: usize = 8;

/// One computation's frequency sweep. Under measurement noise a sweep can
/// stop after a single Pareto point, which the planner cannot fit; like a
/// client discarding an unusable measurement, the computation is then
/// swept again on the same device (its clock keeps the extra time).
fn sweep(profiler: &OnlineProfiler, device: &mut SimGpu, w: &Workload) -> OpProfile {
    let mut p = profiler.profile(device, w);
    for _ in 0..MAX_RESWEEPS {
        if p.fit().is_ok() {
            break;
        }
        p = profiler.profile(device, w);
    }
    p
}

/// Profiles a pipeline the way its client would (§5): every stage sweeps
/// its forward and backward computations on its own simulated GPU with
/// seeded measurement noise. Returns the profiles (recomputation reuses
/// the forward profile) and the simulated profiling time, the slowest
/// stage's clock, since stages profile concurrently.
pub fn profile(
    tracer: &Tracer,
    gpu: &GpuSpec,
    stages: &[StageWorkloads],
    n_stages: usize,
    noise: &mut Stream,
) -> (ProfileDb<OpKey>, f64) {
    let profiler = OnlineProfiler::default();
    let mut db = ProfileDb::new();
    let mut sim_s = 0.0f64;
    for (vs, sw) in stages.iter().enumerate() {
        let _s = tracer.span("profiler.profile_ms");
        let (stage, chunk) = (vs % n_stages, vs / n_stages);
        let mut device =
            SimGpu::new(gpu.clone()).with_noise(NoiseModel::realistic(noise.next_u64()));
        let fwd = sweep(&profiler, &mut device, &sw.fwd);
        let bwd = sweep(&profiler, &mut device, &sw.bwd);
        sim_s = sim_s.max(device.clock_s());
        let key = |kind| OpKey { stage, chunk, kind };
        db.insert(key(CompKind::Recompute), fwd.clone());
        db.insert(key(CompKind::Forward), fwd);
        db.insert(key(CompKind::Backward), bwd);
    }
    (db, sim_s)
}
