//! Renders SVG figures into `results/`: the Figure 1 timelines (max
//! frequency vs Perseus schedule, power-colored), the Figure 9
//! frontiers (Perseus vs the Zeus baselines), and the Kareus attribution
//! bars of the Figure 8 sweep (static-sleep joules as their own segment).
//!
//! Run: `cargo run --release -p perseus-bench --bin render_figures`

use std::fs;

use perseus_baselines::{AllMaxFreq, ZeusGlobal, ZeusPerStage};
use perseus_cluster::{ClusterConfig, Emulator};
use perseus_core::{FrontierOptions, Planner};
use perseus_gpu::GpuSpec;
use perseus_models::zoo;
use perseus_pipeline::ScheduleKind;
use perseus_telemetry::Telemetry;
use perseus_viz::{
    breakdown_svg, frontier_svg, timeline_svg, BreakdownPlot, FrontierPlot, Series, TimelineStyle,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    fs::create_dir_all("results")?;

    // ---- Figure 1: GPT-3 1.3B timeline, 4 stages x 6 microbatches ----
    let emu = Emulator::new(ClusterConfig {
        model: zoo::gpt3_xl(4),
        gpu: GpuSpec::a100_pcie(),
        n_stages: 4,
        n_microbatches: 6,
        n_pipelines: 1,
        tensor_parallel: 1,
        schedule: ScheduleKind::OneFOneB,
        frontier: FrontierOptions::default(),
    })?;
    let ctx = emu.ctx();
    let gpu = GpuSpec::a100_pcie();
    let base = AllMaxFreq
        .plan(&ctx)?
        .into_schedule()
        .expect("single schedule");
    let fast = &emu.frontier().fastest().schedule;
    for (schedule, name, title) in [
        (
            &base,
            "fig1a_maxfreq.svg",
            "GPT-3 1.3B, all computations at maximum frequency",
        ),
        (
            fast,
            "fig1b_perseus.svg",
            "GPT-3 1.3B, Perseus energy schedule (intrinsic bloat removed)",
        ),
    ] {
        let svg = timeline_svg(
            emu.pipe(),
            &gpu,
            |id, _| schedule.realized_dur[id.index()],
            |id, _| schedule.realized_energy[id.index()],
            &TimelineStyle {
                title: title.into(),
                ..Default::default()
            },
        );
        fs::write(format!("results/{name}"), svg)?;
        println!("wrote results/{name}");
    }

    // ---- Figure 9(a): GPT-3 1.3B frontier on A100, 4 stages ----
    let emu = Emulator::new(ClusterConfig {
        model: zoo::gpt3_xl(4),
        gpu: GpuSpec::a100_pcie(),
        n_stages: 4,
        n_microbatches: 32,
        n_pipelines: 1,
        tensor_parallel: 1,
        schedule: ScheduleKind::OneFOneB,
        frontier: FrontierOptions::default(),
    })?;
    let ctx = emu.ctx();
    let thin = |pts: Vec<(f64, f64)>, max: usize| -> Vec<(f64, f64)> {
        let stride = (pts.len() / max).max(1);
        pts.into_iter().step_by(stride).collect()
    };
    let perseus: Vec<(f64, f64)> = emu
        .frontier()
        .points()
        .iter()
        .map(|p| {
            let r = p.schedule.energy_report(&ctx, None);
            (r.iter_time_s, r.total_j())
        })
        .collect();
    let zeus_g: Vec<(f64, f64)> = ZeusGlobal
        .plan(&ctx)?
        .into_sweep()
        .expect("sweep planner")
        .iter()
        .map(|s| {
            let r = s.energy_report(&ctx, None);
            (r.iter_time_s, r.total_j())
        })
        .collect();
    let zeus_ps: Vec<(f64, f64)> = ZeusPerStage
        .plan(&ctx)?
        .into_sweep()
        .expect("sweep planner")
        .iter()
        .map(|s| {
            let r = s.energy_report(&ctx, None);
            (r.iter_time_s, r.total_j())
        })
        .collect();
    let svg = frontier_svg(&FrontierPlot {
        title: "GPT-3 1.3B, four-stage pipeline, A100 (Figure 9a)".into(),
        series: vec![
            Series {
                label: "Perseus".into(),
                points: thin(perseus, 64),
            },
            Series {
                label: "ZeusGlobal".into(),
                points: thin(zeus_g, 40),
            },
            Series {
                label: "ZeusPerStage".into(),
                points: thin(zeus_ps, 40),
            },
        ],
    });
    fs::write("results/fig9a_frontier.svg", svg)?;
    println!("wrote results/fig9a_frontier.svg");

    // ---- Kareus attribution at straggler slowdown 1.2 ----
    let sweep = perseus_bench::kareus_report_with(&mut std::io::sink(), &Telemetry::disabled())?;
    let svg = breakdown_svg(&BreakdownPlot {
        title: "Kareus attribution (slowdown 1.2)".into(),
        bars: sweep.bars,
    });
    fs::write("results/kareus_breakdown.svg", svg)?;
    println!("wrote results/kareus_breakdown.svg");
    Ok(())
}
