//! Criterion bench: pricing an emulated training iteration on the
//! durable-train shape (GPT-3 1.3B on A100, 4 stages × 32 microbatches,
//! 8 data-parallel pipelines, Perseus). Two costs:
//!
//! * one priced iteration — `report_with_belief` plus
//!   `attribute_with_belief` at a straggler time every iteration repeats,
//!   what the training loop pays per iteration;
//! * a first pricing — `energy_report` plus `attribute_schedule` of each
//!   frontier point in turn, what a schedule costs the first time it is
//!   deployed.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use perseus_cluster::{ClusterConfig, Emulator, Policy, StragglerCause};
use perseus_core::{attribute_schedule, FrontierOptions};
use perseus_gpu::GpuSpec;
use perseus_models::zoo;
use perseus_pipeline::ScheduleKind;

fn bench_emulate(c: &mut Criterion) {
    let emu = Emulator::new(ClusterConfig {
        model: zoo::gpt3_xl(4),
        gpu: GpuSpec::a100_pcie(),
        n_stages: 4,
        n_microbatches: 32,
        n_pipelines: 8,
        tensor_parallel: 1,
        schedule: ScheduleKind::OneFOneB,
        frontier: FrontierOptions::default(),
    })
    .expect("emulator");
    let t_prime = Some(
        emu.straggler_iteration_time(StragglerCause::Slowdown { degree: 1.2 })
            .expect("straggler time"),
    );

    c.bench_function("priced_iteration/gpt3-xl-a100-4x32", |b| {
        b.iter(|| {
            let t = black_box(t_prime);
            let report = emu
                .report_with_belief(Policy::Perseus, t, t)
                .expect("report");
            let split = emu
                .attribute_with_belief(Policy::Perseus, t, t)
                .expect("attribution");
            (report.total_j(), split.total().total_j())
        })
    });

    let ctx = emu.ctx();
    let points = emu.frontier().points();
    let mut i = 0;
    c.bench_function("first_pricing/gpt3-xl-a100-4x32", |b| {
        b.iter(|| {
            let schedule = &black_box(&points[i % points.len()]).schedule;
            i += 1;
            let sync = Some(schedule.time_s * 1.1);
            (
                schedule.energy_report(ctx, sync).total_j(),
                attribute_schedule(ctx, schedule, sync).total.total_j(),
            )
        })
    });
}

criterion_group!(benches, bench_emulate);
criterion_main!(benches);
