//! Criterion bench: what a plan-cache hit pays besides the lookup, on the
//! largest structure of a fleet of GPT-3 1.3B, Bloom 3B and BERT 1.3B
//! jobs (GPT-3 1.3B on A100, 8 stages × 16 microbatches): the plan key
//! (`plan_fingerprint` over pipeline, GPU, profiles and options), the
//! job's `FrontierSolver`, and a copy of its pipeline, which a server
//! takes for every journal event, snapshot and state fingerprint.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use perseus_core::{plan_fingerprint, FrontierOptions, FrontierSolver};
use perseus_gpu::{GpuSpec, NoiseModel, SimGpu};
use perseus_models::{min_imbalance_partition, zoo};
use perseus_pipeline::{CompKind, OpKey, PipelineBuilder, ScheduleKind};
use perseus_profiler::{OnlineProfiler, ProfileDb};

fn bench_plan_key(c: &mut Criterion) {
    let gpu = GpuSpec::a100_pcie();
    let (stages, microbatches) = (8, 16);
    let model = zoo::gpt3_xl(4);
    let partition =
        min_imbalance_partition(&model.fwd_latency_weights(&gpu), stages).expect("partition");
    let workloads = model.stage_workloads(&partition, &gpu).expect("workloads");
    let pipe = PipelineBuilder::new(ScheduleKind::OneFOneB, stages, microbatches)
        .build()
        .expect("pipe");
    // Profiled as a client would: each stage sweeps its computations on
    // its own noisy device.
    let profiler = OnlineProfiler::default();
    let mut profiles = ProfileDb::new();
    for (stage, sw) in workloads.iter().enumerate() {
        let mut device = SimGpu::new(gpu.clone()).with_noise(NoiseModel::realistic(stage as u64));
        let fwd = profiler.profile(&mut device, &sw.fwd);
        let bwd = profiler.profile(&mut device, &sw.bwd);
        let key = |kind| OpKey {
            stage,
            chunk: 0,
            kind,
        };
        profiles.insert(key(CompKind::Recompute), fwd.clone());
        profiles.insert(key(CompKind::Forward), fwd);
        profiles.insert(key(CompKind::Backward), bwd);
    }
    let opts = FrontierOptions::default();

    c.bench_function("plan_fingerprint/gpt3-xl-a100-8x16", |b| {
        b.iter(|| {
            plan_fingerprint(
                "perseus",
                black_box(&pipe),
                &gpu,
                black_box(&profiles),
                &opts,
            )
        })
    });
    c.bench_function("frontier_solver_new/gpt3-xl-a100-8x16", |b| {
        b.iter(|| FrontierSolver::new(black_box(&pipe)))
    });
    c.bench_function("pipeline_clone/gpt3-xl-a100-8x16", |b| {
        b.iter(|| black_box(&pipe).clone())
    });
}

criterion_group!(benches, bench_plan_key);
criterion_main!(benches);
