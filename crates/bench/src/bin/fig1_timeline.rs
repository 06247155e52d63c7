//! Figure 1 / Figure 10: one-iteration execution timelines, before and
//! after Perseus removes intrinsic energy bloat.
//!
//! For each four-stage workload, prints the ASCII timeline of (a) every
//! computation at maximum frequency and (b) Perseus's `T_min` energy
//! schedule — same makespan, computations stretched to pack tightly.
//! Six microbatches, like the paper's visualization.
//!
//! Run: `cargo run --release -p perseus-bench --bin fig1_timeline`

use perseus_baselines::AllMaxFreq;
use perseus_cluster::{ClusterConfig, Emulator};
use perseus_core::{FrontierOptions, Planner};
use perseus_gpu::GpuSpec;
use perseus_models::zoo;
use perseus_pipeline::{render_timeline, ScheduleKind};

fn main() {
    type Row = (&'static str, fn(usize) -> perseus_models::ModelSpec, usize);
    let workloads: Vec<Row> = vec![
        ("GPT-3 1.3B", zoo::gpt3_xl, 4),
        ("BERT 1.3B", zoo::bert_huge, 8),
        ("T5 3B", zoo::t5_3b, 4),
        ("Bloom 3B", zoo::bloom_3b, 4),
        ("Wide-ResNet101 1.5B", zoo::wide_resnet101_8, 64),
    ];
    for (name, ctor, mb) in workloads {
        let emu = Emulator::new(ClusterConfig {
            model: ctor(mb),
            gpu: GpuSpec::a100_pcie(),
            n_stages: 4,
            n_microbatches: 6,
            n_pipelines: 1,
            tensor_parallel: 1,
            schedule: ScheduleKind::OneFOneB,
            frontier: FrontierOptions::default(),
        })
        .expect("emulator builds");
        let ctx = emu.ctx();

        println!("=== {name}: all computations at maximum frequency ===");
        let base = AllMaxFreq
            .plan(ctx)
            .expect("all-max realizes")
            .into_schedule()
            .expect("single schedule");
        println!(
            "{}",
            render_timeline(emu.pipe(), |id, _| base.realized_dur[id.index()], 100)
        );

        println!("=== {name}: Perseus T_min energy schedule (intrinsic bloat removed) ===");
        let point = emu.frontier().fastest();
        println!(
            "{}",
            render_timeline(
                emu.pipe(),
                |id, _| point.schedule.realized_dur[id.index()],
                100
            )
        );
        let b = base.energy_report(ctx, None);
        let p = point.schedule.energy_report(ctx, None);
        println!(
            "energy {:.0} J -> {:.0} J ({:.1}% saved), iteration {:.3} s -> {:.3} s\n",
            b.total_j(),
            p.total_j(),
            (1.0 - p.total_j() / b.total_j()) * 100.0,
            b.iter_time_s,
            p.iter_time_s,
        );
    }
}
