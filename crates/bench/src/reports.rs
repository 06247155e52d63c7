//! Writer-based report generators behind the experiment binaries.
//!
//! Each `*_report_with` function renders one table/figure of the paper
//! into any [`Write`] sink, recording characterization counters into a
//! telemetry handle. The binaries stream them to stdout; the golden-trace
//! regression tests render them into buffers and compare byte-for-byte
//! against committed fixtures — so a bin run and a test run are the same
//! code path by construction.

use std::collections::HashMap;
use std::io::{self, Write};

use perseus_baselines::{AllMaxFreq, ZeusGlobal, ZeusPerStage};
use perseus_cluster::{
    strong_scaling_table5, ClusterAttribution, ClusterConfig, Emulator, Policy, StragglerCause,
};
use perseus_core::{EnergyBreakdown, EnergyKind, FrontierOptions, Planner};
use perseus_gpu::GpuSpec;
use perseus_models::{zoo, ModelSpec};
use perseus_pipeline::ScheduleKind;
use perseus_telemetry::Telemetry;
use perseus_viz::BreakdownBar;

use crate::{a100_workloads, a40_workloads, testbed_emulator_with};

/// Table 3: intrinsic energy-bloat reduction (no stragglers) and iteration
/// slowdown — Perseus vs EnvPipe on the §6.2 testbeds — recording
/// characterization counters into `telemetry`. The rendered table is
/// byte-identical whether telemetry is enabled or disabled — the
/// golden-trace tests pin that down.
///
/// # Errors
///
/// Propagates write failures from `out`.
pub fn table3_report_with(out: &mut impl Write, telemetry: &Telemetry) -> io::Result<()> {
    for (gpu, stages, workloads, label) in [
        (
            GpuSpec::a100_pcie(),
            4usize,
            a100_workloads(),
            "(a) Four-stage pipeline on A100",
        ),
        (
            GpuSpec::a40(),
            8,
            a40_workloads(),
            "(b) Eight-stage pipeline on A40",
        ),
    ] {
        writeln!(out, "== Table 3 {label} ==")?;
        writeln!(
            out,
            "{:<18} {:>14} {:>14} {:>14} {:>14}",
            "Model", "Perseus sav%", "EnvPipe sav%", "Perseus slow%", "EnvPipe slow%"
        )?;
        for w in workloads {
            let emu = match testbed_emulator_with(&w, gpu.clone(), stages, telemetry.clone()) {
                Ok(e) => e,
                Err(e) => {
                    writeln!(out, "{:<18} failed: {e}", w.name)?;
                    continue;
                }
            };
            let p = emu.savings(Policy::Perseus, None).expect("perseus savings");
            let e = emu.savings(Policy::EnvPipe, None).expect("envpipe savings");
            writeln!(
                out,
                "{:<18} {:>14.1} {:>14.1} {:>14.2} {:>14.2}",
                w.name, p.savings_pct, e.savings_pct, p.slowdown_pct, e.slowdown_pct
            )?;
        }
        writeln!(out)?;
    }
    writeln!(
        out,
        "Paper reference (Table 3a, A100): Perseus 13.2/12.9/10.6/11.7/3.2 %,"
    )?;
    writeln!(
        out,
        "EnvPipe 8.8/8.0/7.4/8.9/3.7 %; (Table 3b, A40): Perseus 21.1/15.7/28.5/22.4/20.4 %."
    )?;
    Ok(())
}

struct Fig9Config {
    label: &'static str,
    model: fn(usize) -> ModelSpec,
    microbatch: usize,
    n_microbatches: usize,
    gpu: GpuSpec,
    n_stages: usize,
    tensor_parallel: usize,
}

fn frontier_csv(out: &mut impl Write, cfg: &Fig9Config, telemetry: &Telemetry) -> io::Result<()> {
    let emu = Emulator::with_telemetry(
        ClusterConfig {
            model: (cfg.model)(cfg.microbatch),
            gpu: cfg.gpu.clone(),
            n_stages: cfg.n_stages,
            n_microbatches: cfg.n_microbatches,
            n_pipelines: 1,
            tensor_parallel: cfg.tensor_parallel,
            schedule: ScheduleKind::OneFOneB,
            frontier: FrontierOptions::default(),
        },
        telemetry.clone(),
    )
    .expect("emulator builds");
    let ctx = emu.ctx();
    let tp = cfg.tensor_parallel as f64;

    writeln!(
        out,
        "# {} on {} ({} stages, TP {})",
        cfg.label, cfg.gpu.name, cfg.n_stages, cfg.tensor_parallel
    )?;
    writeln!(out, "policy,time_s,energy_j")?;
    let base = AllMaxFreq
        .plan(&ctx)
        .expect("all-max")
        .select(None)
        .energy_report(&ctx, None);
    writeln!(
        out,
        "all-max,{:.4},{:.1}",
        base.iter_time_s,
        base.total_j() * tp
    )?;

    // Perseus: thin the frontier to ~64 evenly spaced points for plotting.
    let points = emu.frontier().points();
    let stride = (points.len() / 64).max(1);
    for p in points.iter().step_by(stride) {
        let r = p.schedule.energy_report(&ctx, None);
        writeln!(out, "perseus,{:.4},{:.1}", r.iter_time_s, r.total_j() * tp)?;
    }
    let zeus_global = ZeusGlobal
        .plan(&ctx)
        .expect("zeus global")
        .into_sweep()
        .expect("sweep planner");
    for s in zeus_global.iter().step_by(4) {
        let r = s.energy_report(&ctx, None);
        writeln!(
            out,
            "zeus-global,{:.4},{:.1}",
            r.iter_time_s,
            r.total_j() * tp
        )?;
    }
    for s in ZeusPerStage
        .plan(&ctx)
        .expect("zeus per-stage")
        .into_sweep()
        .expect("sweep planner")
    {
        let r = s.energy_report(&ctx, None);
        writeln!(
            out,
            "zeus-per-stage,{:.4},{:.1}",
            r.iter_time_s,
            r.total_j() * tp
        )?;
    }

    // Dominance summary: at a mid-frontier time budget, compare energies.
    let mid_t = (emu.frontier().t_min() + emu.frontier().t_star()) * 0.5;
    let perseus_mid = emu
        .frontier()
        .lookup(mid_t)
        .schedule
        .energy_report(&ctx, None)
        .total_j();
    let zeus_mid = zeus_global
        .iter()
        .filter(|s| s.time_s <= mid_t)
        .map(|s| s.energy_report(&ctx, None).total_j())
        .fold(f64::INFINITY, f64::min);
    writeln!(
        out,
        "# at T={mid_t:.3}s: perseus {perseus_mid:.0} J vs best zeus-global {zeus_mid:.0} J ({})",
        if perseus_mid <= zeus_mid {
            "perseus dominates"
        } else {
            "DOMINANCE VIOLATED"
        }
    )?;
    writeln!(out)?;
    Ok(())
}

/// Figure 9 (and Appendix G Figures 11/12 with `appendix`): iteration
/// time–energy frontiers of Perseus versus the Zeus-derived baselines, as
/// CSV series, recording characterization counters into `telemetry`; the
/// CSV output is byte-identical either way.
///
/// # Errors
///
/// Propagates write failures from `out`.
pub fn fig9_report_with(
    out: &mut impl Write,
    appendix: bool,
    telemetry: &Telemetry,
) -> io::Result<()> {
    let mut configs = vec![
        Fig9Config {
            label: "GPT-3 1.3B",
            model: zoo::gpt3_xl,
            microbatch: 4,
            n_microbatches: 128,
            gpu: GpuSpec::a100_pcie(),
            n_stages: 4,
            tensor_parallel: 1,
        },
        Fig9Config {
            label: "GPT-3 2.7B",
            model: zoo::gpt3_2_7b,
            microbatch: 4,
            n_microbatches: 256,
            gpu: GpuSpec::a40(),
            n_stages: 8,
            tensor_parallel: 1,
        },
        Fig9Config {
            label: "GPT-3 6.7B (3D: DP2 TP2 PP4)",
            model: zoo::gpt3_6_7b,
            microbatch: 4,
            n_microbatches: 128,
            gpu: GpuSpec::a40(),
            n_stages: 4,
            tensor_parallel: 2,
        },
    ];
    if appendix {
        for (label, model, mb, m) in [
            (
                "BERT 1.3B",
                zoo::bert_huge as fn(usize) -> ModelSpec,
                8usize,
                32usize,
            ),
            ("T5 3B", zoo::t5_3b, 4, 32),
            ("Bloom 3B", zoo::bloom_3b, 4, 128),
            ("Wide-ResNet 1.5B", zoo::wide_resnet101_8, 32, 48),
        ] {
            configs.push(Fig9Config {
                label,
                model,
                microbatch: mb,
                n_microbatches: m,
                gpu: GpuSpec::a40(),
                n_stages: 8,
                tensor_parallel: 1,
            });
            configs.push(Fig9Config {
                label,
                model,
                microbatch: mb,
                n_microbatches: m,
                gpu: GpuSpec::a100_pcie(),
                n_stages: 4,
                tensor_parallel: 1,
            });
        }
    }
    for cfg in &configs {
        frontier_csv(out, cfg, telemetry)?;
    }
    Ok(())
}

type ModelEntry = (&'static str, fn(usize) -> ModelSpec);
const SUITE_MODELS: [ModelEntry; 2] = [
    ("GPT-3 175B", zoo::gpt3_175b),
    ("Bloom 176B", zoo::bloom_176b),
];

fn suite_emulator(
    model: fn(usize) -> ModelSpec,
    gpu: GpuSpec,
    cfg: &perseus_cluster::ScalingConfig,
    telemetry: &Telemetry,
) -> Emulator {
    Emulator::with_telemetry(
        ClusterConfig {
            model: model(1),
            gpu,
            n_stages: cfg.n_stages,
            n_microbatches: cfg.n_microbatches,
            n_pipelines: cfg.n_pipelines,
            tensor_parallel: cfg.tensor_parallel,
            schedule: ScheduleKind::OneFOneB,
            frontier: FrontierOptions::default(),
        },
        telemetry.clone(),
    )
    .expect("emulator builds")
}

/// The §6.3 large-scale emulation suite: Table 6, Figure 7, and Figure 8,
/// recording characterization counters into `telemetry`; the report is
/// byte-identical either way.
///
/// # Errors
///
/// Propagates write failures from `out`.
pub fn emulation_suite_report_with(out: &mut impl Write, telemetry: &Telemetry) -> io::Result<()> {
    let scaling = strong_scaling_table5();

    // ---- Table 6: intrinsic savings vs #microbatches ----
    writeln!(
        out,
        "== Table 6: intrinsic bloat reduction (no stragglers), strong scaling =="
    )?;
    writeln!(
        out,
        "{:<12} {:<10} {:>8} {:>8} {:>8} {:>8}",
        "Model", "GPU", "M=12", "M=24", "M=48", "M=96"
    )?;
    // cache: (model index, gpu index, microbatches) -> emulator
    let mut emus: HashMap<(usize, usize, usize), Emulator> = HashMap::new();
    for (mi, (name, ctor)) in SUITE_MODELS.iter().enumerate() {
        for (gi, gpu) in [GpuSpec::a100_sxm(), GpuSpec::a40()].iter().enumerate() {
            write!(
                out,
                "{:<12} {:<10}",
                name,
                if gi == 0 { "A100" } else { "A40" }
            )?;
            for cfg in scaling.iter().rev() {
                // rev(): ascending microbatch count 12, 24, 48, 96
                let emu = emus
                    .entry((mi, gi, cfg.n_microbatches))
                    .or_insert_with(|| suite_emulator(*ctor, gpu.clone(), cfg, telemetry));
                let s = emu.savings(Policy::Perseus, None).expect("savings");
                write!(out, " {:>8.2}", s.savings_pct)?;
            }
            writeln!(out)?;
        }
    }
    writeln!(
        out,
        "Paper: GPT-3 175B A100 15.20/14.19/13.62/13.32; Bloom 176B A100 10.47/7.06/5.23/4.28."
    )?;
    writeln!(
        out,
        "Shape to hold: savings decrease as microbatches increase; GPT-3 > Bloom at A100.\n"
    )?;

    // ---- Figure 7: savings breakdown, slowdown 1.2, 1,024 GPUs ----
    writeln!(
        out,
        "== Figure 7: savings breakdown, straggler slowdown 1.2, 1024 GPUs (16 pipelines, M=96) =="
    )?;
    writeln!(
        out,
        "{:<12} {:>16} {:>22} {:>18}",
        "Model", "intrinsic only", "intrinsic+extrinsic", "EnvPipe (intr.)"
    )?;
    for (mi, (name, _)) in SUITE_MODELS.iter().enumerate() {
        let emu = &emus[&(mi, 0usize, 96usize)]; // A100, M=96 config
        let intr = emu
            .savings(Policy::Perseus, None)
            .expect("savings")
            .savings_pct;
        let both = emu
            .savings(Policy::Perseus, Some(1.2))
            .expect("savings")
            .savings_pct;
        let ep = emu
            .savings(Policy::EnvPipe, Some(1.2))
            .expect("savings")
            .savings_pct;
        writeln!(
            out,
            "{:<12} {:>15.1}% {:>21.1}% {:>17.1}%",
            name, intr, both, ep
        )?;
    }
    writeln!(
        out,
        "Paper: Perseus up to ~30% total; EnvPipe limited to (suboptimal) intrinsic only.\n"
    )?;

    // ---- Figure 8: savings vs straggler slowdown across scaling configs ----
    writeln!(
        out,
        "== Figure 8: intrinsic+extrinsic savings vs straggler slowdown (A100) =="
    )?;
    let degrees = [1.05, 1.1, 1.2, 1.3, 1.4, 1.5];
    for (mi, (name, _)) in SUITE_MODELS.iter().enumerate() {
        writeln!(out, "--- {name} ---")?;
        write!(out, "{:<26}", "config")?;
        for d in degrees {
            write!(out, " {d:>6.2}")?;
        }
        writeln!(out, "   T*/T")?;
        for cfg in &scaling {
            let emu = &emus[&(mi, 0usize, cfg.n_microbatches)];
            write!(
                out,
                "{:>5} GPUs x{:>3} pipes M{:<3}",
                cfg.n_gpus, cfg.n_pipelines, cfg.n_microbatches
            )?;
            for d in degrees {
                let s = emu.savings(Policy::Perseus, Some(d)).expect("savings");
                write!(out, " {:>6.1}", s.savings_pct)?;
            }
            writeln!(
                out,
                "   {:.2}",
                emu.frontier().t_star() / emu.frontier().t_min()
            )?;
        }
    }
    writeln!(
        out,
        "\nShape to hold: savings rise until T'/T reaches T*/T (the star in the paper's"
    )?;
    writeln!(
        out,
        "figure), then wane; fewer microbatches (more pipelines) => higher savings %."
    )
}

/// Cache of the A100 suite emulators the breakdown reports share, keyed
/// by (model index, microbatch count). Figure 7 needs the M=96 pair;
/// Figure 8 needs all four Table 5 scaling rows — a superset, so one
/// cache serves both without re-characterizing.
type BreakdownCache = HashMap<(usize, usize), Emulator>;

fn breakdown_emulator<'a>(
    cache: &'a mut BreakdownCache,
    mi: usize,
    cfg: &perseus_cluster::ScalingConfig,
    telemetry: &Telemetry,
) -> &'a Emulator {
    cache
        .entry((mi, cfg.n_microbatches))
        .or_insert_with(|| suite_emulator(SUITE_MODELS[mi].1, GpuSpec::a100_sxm(), cfg, telemetry))
}

/// One attributed bar of the Figure 7 breakdown: a (model, policy) pair
/// with its cluster-level energy split.
#[derive(Debug, Clone)]
pub struct BreakdownRow {
    /// Workload name.
    pub model: &'static str,
    /// Frequency policy the attribution was taken under.
    pub policy: &'static str,
    /// Cluster joules per iteration, split useful/intrinsic/extrinsic.
    pub breakdown: EnergyBreakdown,
}

fn fig7_breakdown_impl(
    out: &mut impl Write,
    cache: &mut BreakdownCache,
    telemetry: &Telemetry,
) -> io::Result<Vec<BreakdownRow>> {
    let scaling = strong_scaling_table5();
    let fig7_cfg = &scaling[0]; // 1024 GPUs, 16 pipelines, M=96
    let cause = Some(StragglerCause::Slowdown { degree: 1.2 });
    let mut rows = Vec::new();
    let mut claim_holds = true;

    writeln!(
        out,
        "== Figure 7 breakdown: energy attribution at straggler slowdown 1.20 =="
    )?;
    writeln!(
        out,
        "(A100, {} GPUs, {} pipelines, M={}; cluster joules per iteration, Eq. 3)",
        fig7_cfg.n_gpus, fig7_cfg.n_pipelines, fig7_cfg.n_microbatches
    )?;
    for (mi, (name, _)) in SUITE_MODELS.iter().enumerate() {
        let emu = breakdown_emulator(cache, mi, fig7_cfg, telemetry);
        writeln!(out, "\n--- {name} ---")?;
        writeln!(
            out,
            "{:<10} {:>16} {:>14} {:>14} {:>14} {:>8} {:>12}",
            "policy", "total J", "useful J", "intrinsic J", "extrinsic J", "bloat%", "extr/bloat%"
        )?;
        let mut attrs: Vec<(&'static str, ClusterAttribution)> = Vec::new();
        for (label, policy) in [("all-max", Policy::AllMax), ("perseus", Policy::Perseus)] {
            let attr = emu.attribute(policy, cause).expect("attribution");
            let b = attr.total();
            writeln!(
                out,
                "{:<10} {:>16.1} {:>14.1} {:>14.1} {:>14.1} {:>8.2} {:>12.2}",
                label,
                b.total_j(),
                b.useful_j,
                b.intrinsic_j,
                b.extrinsic_j,
                b.bloat_share() * 100.0,
                b.extrinsic_share_of_bloat() * 100.0,
            )?;
            rows.push(BreakdownRow {
                model: name,
                policy: label,
                breakdown: b,
            });
            attrs.push((label, attr));
        }

        // Where the all-max bloat sits: per-instruction-kind split of one
        // non-straggler pipeline (the 15 that wait, not the one that lags).
        let all_max = &attrs[0].1.non_straggler;
        writeln!(out, "per-kind, one non-straggler pipeline (all-max):")?;
        for kind in EnergyKind::ALL {
            let k = all_max.kind(kind);
            if k.total_j() == 0.0 {
                continue;
            }
            writeln!(
                out,
                "  {:<10} {:>14.1} {:>14.1} {:>14.1}",
                kind.label(),
                k.useful_j,
                k.intrinsic_j,
                k.extrinsic_j
            )?;
        }
        let (min_s, max_s) = all_max.per_stage.iter().enumerate().fold(
            ((0usize, f64::INFINITY), (0usize, f64::NEG_INFINITY)),
            |(lo, hi), (s, b)| {
                let t = b.intrinsic_j;
                (
                    if t < lo.1 { (s, t) } else { lo },
                    if t > hi.1 { (s, t) } else { hi },
                )
            },
        );
        writeln!(
            out,
            "per-stage intrinsic spread (all-max): min stage {} {:.1} J, max stage {} {:.1} J",
            min_s.0, min_s.1, max_s.0, max_s.1
        )?;

        let b = &rows[rows.len() - 2].breakdown; // the all-max cluster split
        claim_holds &= b.intrinsic_j > 0.0 && b.extrinsic_j > 0.0;
    }
    writeln!(
        out,
        "\nclaim (fig7): intrinsic and extrinsic bloat both nonzero at slowdown 1.2: {}",
        if claim_holds { "HOLDS" } else { "VIOLATED" }
    )?;
    Ok(rows)
}

fn fig8_scaling_impl(
    out: &mut impl Write,
    cache: &mut BreakdownCache,
    telemetry: &Telemetry,
) -> io::Result<()> {
    let scaling = strong_scaling_table5();
    let degrees = [1.05, 1.1, 1.2, 1.3, 1.4, 1.5];
    writeln!(
        out,
        "== Figure 8 scaling: extrinsic share of bloat vs straggler slowdown =="
    )?;
    writeln!(
        out,
        "(A100, all-max attribution; % of total bloat that is straggler wait)"
    )?;
    let mut claim_holds = true;
    for (mi, (name, _)) in SUITE_MODELS.iter().enumerate() {
        writeln!(out, "--- {name} ---")?;
        write!(out, "{:<26}", "config")?;
        for d in degrees {
            write!(out, " {d:>6.2}")?;
        }
        writeln!(out)?;
        for cfg in &scaling {
            let emu = breakdown_emulator(cache, mi, cfg, telemetry);
            write!(
                out,
                "{:>5} GPUs x{:>3} pipes M{:<3}",
                cfg.n_gpus, cfg.n_pipelines, cfg.n_microbatches
            )?;
            let mut prev = f64::NEG_INFINITY;
            for d in degrees {
                let b = emu
                    .attribute(Policy::AllMax, Some(StragglerCause::Slowdown { degree: d }))
                    .expect("attribution")
                    .total();
                let share = b.extrinsic_share_of_bloat() * 100.0;
                claim_holds &= share >= prev - 1e-9;
                prev = share;
                write!(out, " {share:>6.1}")?;
            }
            writeln!(out)?;
        }
    }
    writeln!(
        out,
        "\nclaim (fig8): extrinsic share of bloat grows with straggler slowdown in every config: {}",
        if claim_holds { "HOLDS" } else { "VIOLATED" }
    )?;
    Ok(())
}

/// The Figure 7 attribution breakdown: cluster energy of the §6.3 M=96
/// A100 workloads split into useful / intrinsic / extrinsic joules under
/// all-max and Perseus at straggler slowdown 1.2, recording
/// characterization counters into `telemetry`; the report is
/// byte-identical either way. Returns the rows for SVG rendering.
///
/// # Errors
///
/// Propagates write failures from `out`.
pub fn fig7_breakdown_report_with(
    out: &mut impl Write,
    telemetry: &Telemetry,
) -> io::Result<Vec<BreakdownRow>> {
    fig7_breakdown_impl(out, &mut BreakdownCache::new(), telemetry)
}

/// The Figure 8 attribution scaling sweep: extrinsic share of total
/// bloat versus straggler slowdown across the Table 5 strong-scaling
/// configurations, under all-max attribution, recording characterization
/// counters into `telemetry`; the report is byte-identical either way.
///
/// # Errors
///
/// Propagates write failures from `out`.
pub fn fig8_scaling_report_with(out: &mut impl Write, telemetry: &Telemetry) -> io::Result<()> {
    fig8_scaling_impl(out, &mut BreakdownCache::new(), telemetry)
}

/// Renders both breakdown reports from one shared emulator cache
/// (Figure 7's two M=96 emulators are a subset of Figure 8's eight) —
/// the golden-trace tests use this to avoid characterizing twice.
///
/// # Errors
///
/// Propagates write failures from either writer.
pub fn breakdown_reports_with(
    fig7_out: &mut impl Write,
    fig8_out: &mut impl Write,
    telemetry: &Telemetry,
) -> io::Result<Vec<BreakdownRow>> {
    let mut cache = BreakdownCache::new();
    let rows = fig7_breakdown_impl(fig7_out, &mut cache, telemetry)?;
    fig8_scaling_impl(fig8_out, &mut cache, telemetry)?;
    Ok(rows)
}

/// Cluster-scaled joules of one attribution kind: non-straggler pipelines
/// replicated, the straggler added, multiplied by the tensor-parallel
/// degree — the same arithmetic as [`ClusterAttribution::total`].
fn cluster_kind_j(a: &ClusterAttribution, kind: EnergyKind) -> f64 {
    let stragglers = usize::from(a.straggler.is_some());
    let non = a.non_straggler.kind(kind).total_j() * (a.n_pipelines - stragglers) as f64;
    let s = a.straggler.as_ref().map_or(0.0, |s| s.kind(kind).total_j());
    (non + s) * a.tensor_parallel as f64
}

/// What the Kareus sweep found besides its printed table.
#[derive(Debug, Clone)]
pub struct KareusSweep {
    /// One Kareus attribution bar per (model, config) cell at straggler
    /// slowdown 1.2, with the static-sleep joules split out of useful.
    pub bars: Vec<BreakdownBar>,
    /// Kareus cluster joules never exceed Perseus at any (config,
    /// slowdown) cell.
    pub never_costlier: bool,
    /// Kareus is strictly cheaper on every no-straggler cell whose plan
    /// has bubbles long enough to amortize a sleep state's entry + exit
    /// latency.
    pub strict_where_amortized: bool,
}

/// The Kareus sweep: joint dynamic + static planning versus
/// frequency-only Perseus across the Figure 8 strong-scaling sweep,
/// recording characterization counters into `telemetry`; the table is
/// byte-identical either way.
///
/// Both policies ride the *same* Pareto frontier (Kareus starts from the
/// Perseus characterization and only fills bubbles with sleep), so every
/// cell compares identical iteration times; the delta is purely the
/// static energy reclaimed from `P_blocking`. The returned verdicts are
/// the `kareus` group of [`crate::claims`]; the bars are the
/// `render_figures` Kareus chart.
///
/// # Errors
///
/// Propagates write failures from `out`.
pub fn kareus_report_with(out: &mut impl Write, telemetry: &Telemetry) -> io::Result<KareusSweep> {
    let mut cache = BreakdownCache::new();
    let scaling = strong_scaling_table5();
    let degrees = [1.05, 1.1, 1.2, 1.3, 1.4, 1.5];
    let mut sweep = KareusSweep {
        bars: Vec::new(),
        never_costlier: true,
        strict_where_amortized: true,
    };

    writeln!(
        out,
        "Kareus: joint frequency + sleep planning vs frequency-only Perseus"
    )?;
    writeln!(
        out,
        "(A100, Figure 8 strong-scaling sweep; % of Perseus cluster joules reclaimed"
    )?;
    writeln!(
        out,
        " by sleeping through pipeline bubbles; identical iteration times by design)"
    )?;
    for (mi, (name, _)) in SUITE_MODELS.iter().enumerate() {
        writeln!(out, "--- {name} ---")?;
        write!(out, "{:<26}   none", "config")?;
        for d in degrees {
            write!(out, " {d:>6.2}")?;
        }
        writeln!(out, "   windows")?;
        for cfg in &scaling {
            let emu = breakdown_emulator(&mut cache, mi, cfg, telemetry);
            write!(
                out,
                "{:>5} GPUs x{:>3} pipes M{:<3}",
                cfg.n_gpus, cfg.n_pipelines, cfg.n_microbatches
            )?;
            let causes = std::iter::once(None).chain(
                degrees
                    .iter()
                    .map(|&d| Some(StragglerCause::Slowdown { degree: d })),
            );
            let mut no_straggler_saved = 0.0;
            for (ci, cause) in causes.enumerate() {
                let perseus = emu
                    .report(Policy::Perseus, cause)
                    .expect("report")
                    .total_j();
                let kareus = emu.report(Policy::Kareus, cause).expect("report").total_j();
                sweep.never_costlier &= kareus <= perseus + 1e-9;
                if ci == 0 {
                    no_straggler_saved = perseus - kareus;
                }
                write!(out, " {:>6.2}", (perseus - kareus) / perseus * 100.0)?;
            }
            // Bubbles long enough to amortize a sleep state exist exactly
            // when the no-straggler plan carries windows; there, the win
            // must be strict.
            let plan = emu.plan_of(Policy::Kareus).expect("kareus plan");
            let windows = plan
                .sleep_plan(None)
                .map_or(0, perseus_core::SleepPlan::window_count);
            if windows > 0 {
                sweep.strict_where_amortized &= no_straggler_saved > 0.0;
            }
            writeln!(out, " {windows:>9}")?;

            let attribution = emu
                .attribute(
                    Policy::Kareus,
                    Some(StragglerCause::Slowdown { degree: 1.2 }),
                )
                .expect("attribution");
            let total = attribution.total();
            let sleep_j = cluster_kind_j(&attribution, EnergyKind::StaticSleep);
            sweep.bars.push(BreakdownBar {
                label: format!("{name} {} GPUs M{}", cfg.n_gpus, cfg.n_microbatches),
                // StaticSleep books as useful (a parked GPU does the
                // cheapest possible thing); split it out so the chart
                // shows where Kareus parks.
                useful_j: total.useful_j - sleep_j,
                intrinsic_j: total.intrinsic_j,
                extrinsic_j: total.extrinsic_j,
                sleep_j,
            });
        }
    }
    Ok(sweep)
}
