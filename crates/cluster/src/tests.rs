use perseus_baselines::{AllMaxFreq, EnvPipe, MinEnergyOracle, ZeusGlobal, ZeusPerStage};
use perseus_core::{FrontierOptions, KareusPlanner, Perseus, Planner};
use perseus_gpu::{FreqMHz, GpuSpec, PowerStateModel};
use perseus_models::zoo;
use perseus_pipeline::ScheduleKind;

use crate::emulator::{ClusterConfig, Emulator, EmulatorError, Policy, StragglerCause};

fn small_config() -> ClusterConfig {
    ClusterConfig {
        model: zoo::bert_base(8),
        gpu: GpuSpec::a100_pcie(),
        n_stages: 4,
        n_microbatches: 6,
        n_pipelines: 4,
        tensor_parallel: 1,
        schedule: ScheduleKind::OneFOneB,
        frontier: FrontierOptions {
            tau_s: Some(2e-3),
            max_iters: 50_000,
            stretch: true,
            warm_start: true,
        },
    }
}

/// The planner behind `policy`, for tests that re-plan from scratch and
/// compare against what the emulator prices.
fn planner_of(emu: &Emulator, policy: Policy) -> Box<dyn Planner> {
    let opts = emu.config().frontier.clone();
    match policy {
        Policy::AllMax => Box::new(AllMaxFreq),
        Policy::Perseus => Box::new(Perseus::new(opts)),
        Policy::Kareus => Box::new(KareusPlanner::new(
            opts,
            PowerStateModel::default_for(&emu.config().gpu),
        )),
        Policy::EnvPipe => Box::new(EnvPipe::default()),
        Policy::ZeusGlobal => Box::new(ZeusGlobal),
        Policy::ZeusPerStage => Box::new(ZeusPerStage),
        Policy::MinEnergyOracle => Box::new(MinEnergyOracle),
    }
}

#[test]
fn emulator_builds_and_frontier_is_sane() {
    let emu = Emulator::new(small_config()).unwrap();
    assert!(emu.frontier().t_min() < emu.frontier().t_star());
    assert_eq!(emu.stages().len(), 4);
    assert_eq!(emu.config().n_gpus(), 16);
}

#[test]
fn perseus_saves_without_straggler() {
    let emu = Emulator::new(small_config()).unwrap();
    let s = emu.savings(Policy::Perseus, None).unwrap();
    assert!(
        s.savings_pct > 1.0,
        "intrinsic savings expected: {:.2}%",
        s.savings_pct
    );
    assert!(
        s.slowdown_pct < 1.0,
        "negligible slowdown expected: {:.2}%",
        s.slowdown_pct
    );
}

#[test]
fn perseus_saves_more_with_straggler() {
    // Table 4 shape: extrinsic slack adds savings on top of intrinsic.
    let emu = Emulator::new(small_config()).unwrap();
    let intrinsic = emu.savings(Policy::Perseus, None).unwrap().savings_pct;
    let with_straggler = emu.savings(Policy::Perseus, Some(1.2)).unwrap().savings_pct;
    assert!(
        with_straggler > intrinsic,
        "straggler slack should add savings: {with_straggler:.2}% vs {intrinsic:.2}%"
    );
}

#[test]
fn savings_wane_beyond_t_star() {
    // §6.2.2: past T* the pipeline stops slowing down, and the growing
    // blocking denominator erodes the percentage.
    let emu = Emulator::new(small_config()).unwrap();
    let t_star_over_t = emu.frontier().t_star() / emu.frontier().t_min();
    let at_star = emu
        .savings(Policy::Perseus, Some(t_star_over_t))
        .unwrap()
        .savings_pct;
    let far = emu
        .savings(Policy::Perseus, Some(t_star_over_t * 2.0))
        .unwrap()
        .savings_pct;
    assert!(
        far < at_star,
        "savings should wane past T*: {far:.2}% vs {at_star:.2}%"
    );
}

#[test]
fn perseus_beats_envpipe_under_stragglers() {
    // Figure 7: EnvPipe has no frontier, so it cannot harvest extrinsic
    // bloat.
    let emu = Emulator::new(small_config()).unwrap();
    let p = emu.savings(Policy::Perseus, Some(1.2)).unwrap().savings_pct;
    let e = emu.savings(Policy::EnvPipe, Some(1.2)).unwrap().savings_pct;
    assert!(
        p > e,
        "Perseus {p:.2}% should beat EnvPipe {e:.2}% with stragglers"
    );
}

#[test]
fn zeus_global_saves_less_than_perseus() {
    let emu = Emulator::new(small_config()).unwrap();
    let p = emu
        .savings(Policy::Perseus, Some(1.15))
        .unwrap()
        .savings_pct;
    let z = emu
        .savings(Policy::ZeusGlobal, Some(1.15))
        .unwrap()
        .savings_pct;
    assert!(p >= z - 0.5, "Perseus {p:.2}% vs ZeusGlobal {z:.2}%");
}

#[test]
fn zeus_global_respects_deadline() {
    let emu = Emulator::new(small_config()).unwrap();
    let report = emu
        .report(
            Policy::ZeusGlobal,
            Some(StragglerCause::Slowdown { degree: 1.3 }),
        )
        .unwrap();
    assert!(report.non_straggler.iter_time_s <= report.sync_time_s + 1e-9);
}

#[test]
fn straggler_causes_produce_consistent_times() {
    let emu = Emulator::new(small_config()).unwrap();
    let base = emu
        .report(Policy::AllMax, None)
        .unwrap()
        .non_straggler
        .iter_time_s;
    // Generic slowdown.
    let t = emu
        .straggler_iteration_time(StragglerCause::Slowdown { degree: 1.25 })
        .unwrap();
    assert!((t - base * 1.25).abs() < 1e-9);
    // Thermal throttle at a deep cap slows the pipeline.
    let t = emu
        .straggler_iteration_time(StragglerCause::ThermalThrottle {
            freq_cap: FreqMHz(705),
        })
        .unwrap();
    assert!(
        t > base * 1.1,
        "705 MHz cap should slow well past baseline: {t} vs {base}"
    );
    // I/O stalls inflate the iteration.
    let t = emu
        .straggler_iteration_time(StragglerCause::IoStall { stall_s: 0.01 })
        .unwrap();
    assert!(t > base);
    // Degenerate degree rejected.
    assert!(emu
        .straggler_iteration_time(StragglerCause::Slowdown { degree: 0.5 })
        .is_err());
}

#[test]
fn cluster_totals_scale_with_pipelines_and_tp() {
    let mut cfg = small_config();
    cfg.n_pipelines = 8;
    cfg.tensor_parallel = 2;
    let emu = Emulator::new(cfg).unwrap();
    let report = emu.report(Policy::AllMax, None).unwrap();
    let one = report.non_straggler.total_j();
    assert!((report.total_j() - one * 8.0 * 2.0).abs() / report.total_j() < 1e-9);
    assert!(report.avg_power_w() > 0.0);
}

/// A cluster of zero pipelines is refused at construction, before the
/// replica arithmetic (`n_pipelines - stragglers`) could wrap.
#[test]
fn zero_pipelines_are_refused() {
    let config = ClusterConfig {
        n_pipelines: 0,
        ..small_config()
    };
    let err = Emulator::new(config)
        .err()
        .expect("zero pipelines must be refused");
    assert!(matches!(err, EmulatorError::NoPipelines), "{err}");
    assert_eq!(
        err.to_string(),
        "data-parallel pipeline count must be positive"
    );
}

#[test]
fn straggler_report_includes_straggler_pipeline() {
    let emu = Emulator::new(small_config()).unwrap();
    let report = emu
        .report(
            Policy::Perseus,
            Some(StragglerCause::Slowdown { degree: 1.2 }),
        )
        .unwrap();
    let s = report.straggler.as_ref().expect("straggler present");
    assert!(s.sync_time_s >= report.non_straggler.iter_time_s);
    // Cluster total counts D-1 non-stragglers plus the straggler.
    let manual = (3.0 * report.non_straggler.total_j() + s.total_j()) * 1.0;
    assert!((report.total_j() - manual).abs() / manual < 1e-9);
}

#[test]
fn tensor_parallel_divides_per_gpu_work() {
    let mut cfg = small_config();
    cfg.tensor_parallel = 4;
    let tp = Emulator::new(cfg).unwrap();
    let solo = Emulator::new(small_config()).unwrap();
    // Per-pipeline iteration time shrinks roughly 4x under TP-4.
    let t_tp = tp
        .report(Policy::AllMax, None)
        .unwrap()
        .non_straggler
        .iter_time_s;
    let t_solo = solo
        .report(Policy::AllMax, None)
        .unwrap()
        .non_straggler
        .iter_time_s;
    assert!(
        t_tp < t_solo * 0.5,
        "TP should shrink iteration time: {t_tp} vs {t_solo}"
    );
}

#[test]
fn fewer_microbatches_more_intrinsic_savings() {
    // Table 6 trend: more microbatches dilute warmup/flush savings. The
    // trend is a statement about (near-)balanced pipelines — the paper's
    // 175B/176B emulation — so use a balanced synthetic model that
    // isolates the warmup/flush mechanism (imbalanced small models trade
    // the other way, because steady-state slack savings grow with M).
    let balanced = perseus_models::ModelSpec {
        name: "balanced-16".into(),
        params_b: 1.0,
        microbatch: 4,
        layers: (0..16)
            .map(|i| perseus_models::LayerCost {
                name: format!("layer.{i}"),
                kind: perseus_models::LayerKind::TransformerDecoder,
                fwd_tflops: 5.0e12,
                bwd_tflops: 1.0e13,
                fwd_mem_frac: 0.1,
                bwd_mem_frac: 0.12,
                fwd_util: 0.85,
                bwd_util: 0.92,
            })
            .collect(),
    };
    let mut few = small_config();
    few.model = balanced.clone();
    few.n_microbatches = 4;
    let mut many = small_config();
    many.model = balanced;
    many.n_microbatches = 16;
    let s_few = Emulator::new(few)
        .unwrap()
        .savings(Policy::Perseus, None)
        .unwrap()
        .savings_pct;
    let s_many = Emulator::new(many)
        .unwrap()
        .savings(Policy::Perseus, None)
        .unwrap()
        .savings_pct;
    assert!(
        s_few > s_many,
        "fewer microbatches should save more: {s_few:.2}% vs {s_many:.2}%"
    );
}

#[test]
fn interleaved_schedule_characterizes_and_saves() {
    // §4.4: any DAG-expressible schedule works; interleaving still leaves
    // intrinsic bloat whenever virtual stages are imbalanced.
    let mut cfg = small_config();
    cfg.schedule = ScheduleKind::Interleaved1F1B { chunks: 2 };
    cfg.n_microbatches = 8; // must divide by n_stages
    let emu = Emulator::new(cfg).unwrap();
    assert_eq!(
        emu.stages().len(),
        8,
        "4 stages x 2 chunks of virtual-stage workloads"
    );
    let s = emu.savings(Policy::Perseus, None).unwrap();
    assert!(
        s.savings_pct > 1.0,
        "interleaved savings: {:.2}%",
        s.savings_pct
    );
    assert!(s.slowdown_pct < 1.0);
}

#[test]
fn interleaving_shortens_iteration_at_same_work() {
    let mut plain = small_config();
    plain.n_microbatches = 8;
    let mut inter = plain.clone();
    inter.schedule = ScheduleKind::Interleaved1F1B { chunks: 2 };
    let t_plain = Emulator::new(plain)
        .unwrap()
        .report(Policy::AllMax, None)
        .unwrap()
        .non_straggler
        .iter_time_s;
    let t_inter = Emulator::new(inter)
        .unwrap()
        .report(Policy::AllMax, None)
        .unwrap()
        .non_straggler
        .iter_time_s;
    assert!(
        t_inter < t_plain,
        "interleaving should shrink the bubble: {t_inter} vs {t_plain}"
    );
}

mod run_simulation {
    use super::*;
    use crate::run::{simulate_run, thermal_cycle_trace, RunConfig, TraceEvent};

    #[test]
    fn steady_state_run_matches_per_iteration_report() {
        let emu = Emulator::new(small_config()).unwrap();
        let cfg = RunConfig {
            iterations: 5,
            reaction_delay_iters: 0,
        };
        let summary = simulate_run(&emu, Policy::Perseus, &[], &cfg).unwrap();
        assert_eq!(summary.per_iteration.len(), 5);
        let single = emu.report(Policy::Perseus, None).unwrap();
        let expected = single.total_j() * 5.0;
        assert!((summary.total_energy_j - expected).abs() / expected < 1e-9);
    }

    /// The one-pass `T'` of every iteration equals `t_prime_at` bit for
    /// bit, over a seeded trace mixing all three causes, with several
    /// events in one iteration, events out of order, recoveries, and
    /// events past the last iteration.
    #[test]
    fn one_pass_straggler_times_match_t_prime_at_bit_for_bit() {
        use crate::run::StragglerTimeline;

        let emu = Emulator::new(small_config()).unwrap();
        let gpu = &emu.config().gpu;
        // SplitMix64: event iterations, pipelines and causes.
        let mut state = 0x7EA5_u64;
        let mut draw = move |n: u64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        };
        let iterations = 40;
        let mut trace: Vec<TraceEvent> = (0..48)
            .map(|_| {
                let cause = match draw(6) {
                    0..=2 => None,
                    3 => Some(StragglerCause::Slowdown {
                        degree: 1.0 + draw(500) as f64 / 1000.0,
                    }),
                    4 => Some(StragglerCause::ThermalThrottle {
                        freq_cap: FreqMHz(
                            gpu.min_freq_mhz
                                + draw(u64::from(gpu.max_freq_mhz - gpu.min_freq_mhz)) as u32,
                        ),
                    }),
                    _ => Some(StragglerCause::IoStall {
                        stall_s: draw(20) as f64 * 1e-3,
                    }),
                };
                TraceEvent {
                    at_iteration: draw(iterations as u64 + 8) as usize,
                    pipeline: draw(2) as usize,
                    cause,
                }
            })
            .collect();
        // Out of order on purpose; several iterations carry more than one
        // event, so their order within an iteration matters.
        trace.reverse();
        let timeline = StragglerTimeline::new(&trace);
        let one_pass = timeline.t_prime_per_iteration(&emu, iterations).unwrap();
        assert_eq!(one_pass.len(), iterations);
        let mut kinds = [false; 3];
        for (iter, t) in one_pass.iter().enumerate() {
            let want = timeline.t_prime_at(&emu, iter).unwrap();
            assert_eq!(
                t.map(f64::to_bits),
                want.map(f64::to_bits),
                "iteration {iter}"
            );
            for (_, cause) in timeline.state_at(iter) {
                kinds[match cause {
                    StragglerCause::Slowdown { .. } => 0,
                    StragglerCause::ThermalThrottle { .. } => 1,
                    StragglerCause::IoStall { .. } => 2,
                }] = true;
            }
        }
        assert_eq!(kinds, [true; 3], "every cause is active somewhere");
        assert!(one_pass.iter().any(Option::is_none));
        let mut per_iteration = vec![0; iterations];
        for e in trace.iter().filter(|e| e.at_iteration < iterations) {
            per_iteration[e.at_iteration] += 1;
        }
        assert!(
            per_iteration.iter().any(|&n| n > 1),
            "same-iteration events"
        );
    }

    #[test]
    fn straggler_trace_changes_energy_and_recovers() {
        let emu = Emulator::new(small_config()).unwrap();
        let trace = vec![
            TraceEvent {
                at_iteration: 2,
                pipeline: 1,
                cause: Some(StragglerCause::Slowdown { degree: 1.3 }),
            },
            TraceEvent {
                at_iteration: 4,
                pipeline: 1,
                cause: None,
            },
        ];
        let cfg = RunConfig {
            iterations: 6,
            reaction_delay_iters: 0,
        };
        let s = simulate_run(&emu, Policy::Perseus, &trace, &cfg).unwrap();
        // Iterations 0-1 fast, 2-3 straggling, 4-5 fast again.
        assert!(s.per_iteration[0].actual_t_prime_s.is_none());
        assert!(s.per_iteration[2].actual_t_prime_s.is_some());
        assert!(s.per_iteration[5].actual_t_prime_s.is_none());
        assert!(s.per_iteration[2].sync_time_s > s.per_iteration[0].sync_time_s);
        assert!(
            (s.per_iteration[5].sync_time_s - s.per_iteration[0].sync_time_s).abs() < 1e-9,
            "recovery restores the fast iteration"
        );
    }

    #[test]
    fn reaction_latency_costs_energy_or_time() {
        // With a delayed reaction, the schedule rides stale information:
        // total energy (or time) must be no better than instant reaction.
        let emu = Emulator::new(small_config()).unwrap();
        let trace = thermal_cycle_trace(0, 1.25, 6, 3, 18);
        let instant = simulate_run(
            &emu,
            Policy::Perseus,
            &trace,
            &RunConfig {
                iterations: 18,
                reaction_delay_iters: 0,
            },
        )
        .unwrap();
        let delayed = simulate_run(
            &emu,
            Policy::Perseus,
            &trace,
            &RunConfig {
                iterations: 18,
                reaction_delay_iters: 2,
            },
        )
        .unwrap();
        assert!(
            delayed.total_energy_j >= instant.total_energy_j - 1e-6
                || delayed.total_time_s >= instant.total_time_s - 1e-6,
            "stale reactions cannot beat instant ones"
        );
        // Stale slow schedules make the non-straggler the new straggler.
        assert!(delayed.total_time_s >= instant.total_time_s - 1e-9);
    }

    #[test]
    fn perseus_beats_allmax_over_a_noisy_segment() {
        let emu = Emulator::new(small_config()).unwrap();
        let trace = thermal_cycle_trace(2, 1.2, 5, 2, 20);
        let cfg = RunConfig {
            iterations: 20,
            reaction_delay_iters: 1,
        };
        let perseus = simulate_run(&emu, Policy::Perseus, &trace, &cfg).unwrap();
        let allmax = simulate_run(&emu, Policy::AllMax, &trace, &cfg).unwrap();
        assert!(perseus.total_energy_j < allmax.total_energy_j);
        // Stale slow schedules right after each recovery cost some time;
        // with a 1-iteration delay and ~40% straggler duty that stays in
        // the mid single digits.
        assert!(perseus.total_time_s <= allmax.total_time_s * 1.06);
        assert!(perseus.avg_power_w() < allmax.avg_power_w());
        // Instant reaction removes the time cost entirely.
        let instant = simulate_run(
            &emu,
            Policy::Perseus,
            &trace,
            &RunConfig {
                iterations: 20,
                reaction_delay_iters: 0,
            },
        )
        .unwrap();
        let allmax_instant = simulate_run(
            &emu,
            Policy::AllMax,
            &trace,
            &RunConfig {
                iterations: 20,
                reaction_delay_iters: 0,
            },
        )
        .unwrap();
        assert!(instant.total_time_s <= allmax_instant.total_time_s * 1.002);
    }
}

fn schedule_bits(s: &perseus_core::EnergySchedule, out: &mut Vec<u64>) {
    out.push(s.time_s.to_bits());
    out.push(s.compute_j.to_bits());
    for v in s
        .planned
        .iter()
        .chain(&s.realized_dur)
        .chain(&s.realized_energy)
    {
        out.push(v.to_bits());
    }
    for f in &s.freqs {
        out.push(f.map_or(u64::MAX, |f| u64::from(f.0)));
    }
}

/// Every f64 and frequency a plan carries, as exact bits — any
/// nondeterminism shows up as a fingerprint mismatch, not a tolerance
/// question.
fn plan_bits(p: &perseus_core::PlanOutput) -> Vec<u64> {
    use perseus_core::PlanOutput;

    let mut bits = Vec::new();
    match p {
        PlanOutput::Schedule(s) => {
            bits.push(1);
            schedule_bits(s, &mut bits);
        }
        PlanOutput::Frontier(plan) => {
            bits.push(2);
            for pt in plan.frontier().points() {
                bits.push(pt.planned_time_s.to_bits());
                bits.push(pt.planned_energy_j.to_bits());
                schedule_bits(&pt.schedule, &mut bits);
            }
            for sleep in plan.sleep().unwrap_or_default() {
                for stage in &sleep.per_stage {
                    bits.push(stage.len() as u64);
                    for w in stage {
                        bits.push(w.start_s.to_bits());
                        bits.push(w.end_s.to_bits());
                        bits.push(w.state_power_w.to_bits());
                    }
                }
            }
        }
        PlanOutput::Sweep {
            schedules,
            no_straggler_deadline_s,
        } => {
            bits.push(3);
            bits.push(no_straggler_deadline_s.to_bits());
            for s in schedules {
                schedule_bits(s, &mut bits);
            }
        }
    }
    bits
}

#[test]
fn parallel_planner_sweep_matches_sequential() {
    use perseus_core::parallel::parallel_map;

    let emu = Emulator::new(small_config()).unwrap();
    let ctx = emu.ctx();
    let planners: Vec<Box<dyn Planner>> =
        Policy::ALL.iter().map(|&p| planner_of(&emu, p)).collect();
    let sequential: Vec<Vec<u64>> = planners
        .iter()
        .map(|p| plan_bits(&p.plan(ctx).unwrap()))
        .collect();
    let parallel: Vec<Vec<u64>> = parallel_map(&planners, |p| plan_bits(&p.plan(ctx).unwrap()));
    for ((policy, seq), par) in Policy::ALL.iter().zip(&sequential).zip(&parallel) {
        assert_eq!(
            seq, par,
            "planner {policy} diverges under parallel execution"
        );
    }
}

#[test]
fn thermal_throttle_time_monotone_in_cap_depth() {
    let emu = Emulator::new(small_config()).unwrap();
    let t_deep = emu
        .straggler_iteration_time(StragglerCause::ThermalThrottle {
            freq_cap: FreqMHz(600),
        })
        .unwrap();
    let t_mild = emu
        .straggler_iteration_time(StragglerCause::ThermalThrottle {
            freq_cap: FreqMHz(1200),
        })
        .unwrap();
    assert!(
        t_deep > t_mild,
        "deeper caps slow more: {t_deep} vs {t_mild}"
    );
    // A cap at or above max frequency is a no-op.
    let base = emu
        .report(Policy::AllMax, None)
        .unwrap()
        .non_straggler
        .iter_time_s;
    let t_none = emu
        .straggler_iteration_time(StragglerCause::ThermalThrottle {
            freq_cap: FreqMHz(1410),
        })
        .unwrap();
    assert!((t_none - base).abs() < 1e-9);
}

/// An I/O-stall straggler is priced from the emulator's one context, bit
/// for bit as an all-max plan on a fresh context of the stalled pipeline
/// prices it.
#[test]
fn io_stall_time_matches_a_fresh_context_all_max_plan() {
    use perseus_core::PlanContext;
    use perseus_pipeline::PipelineBuilder;

    let mut interleaved = small_config();
    interleaved.schedule = ScheduleKind::Interleaved1F1B { chunks: 2 };
    interleaved.n_microbatches = 8;
    let mut recompute = small_config();
    recompute.schedule = ScheduleKind::EarlyRecompute1F1B;
    for config in [small_config(), interleaved, recompute] {
        let emu = Emulator::new(config).unwrap();
        let cfg = emu.config();
        let base = emu.plan_of(Policy::AllMax).unwrap().select(None).time_s;
        for stall_s in [0.0, 1e-4, 3e-3, 0.02, 0.25] {
            let stalled = PipelineBuilder::new(cfg.schedule, cfg.n_stages, cfg.n_microbatches)
                .with_data_loading(stall_s, cfg.gpu.blocking_w)
                .build()
                .unwrap();
            let fresh = PlanContext::from_model_profiles(&stalled, &cfg.gpu, emu.stages()).unwrap();
            let want = AllMaxFreq
                .plan(&fresh)
                .unwrap()
                .select(None)
                .time_s
                .max(base);
            let got = emu
                .straggler_iteration_time(StragglerCause::IoStall { stall_s })
                .unwrap();
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{} stall {stall_s}",
                cfg.schedule
            );
        }
    }
}

#[test]
fn zeus_global_does_not_slow_without_straggler() {
    let emu = Emulator::new(small_config()).unwrap();
    let base = emu
        .report(Policy::AllMax, None)
        .unwrap()
        .non_straggler
        .iter_time_s;
    let z = emu
        .report(Policy::ZeusGlobal, None)
        .unwrap()
        .non_straggler
        .iter_time_s;
    assert!(
        z <= base * 1.001,
        "ZeusGlobal must hold throughput absent stragglers: {z} vs {base}"
    );
}

#[test]
fn attribution_total_matches_report_total() {
    // The attribution twin uses exactly the report's arithmetic, so the
    // three-way split sums back to the scalar the report produces — for
    // every policy, with and without a straggler.
    let emu = Emulator::new(small_config()).unwrap();
    for policy in [Policy::AllMax, Policy::Perseus, Policy::ZeusGlobal] {
        for cause in [
            None,
            Some(StragglerCause::Slowdown { degree: 1.25 }),
            Some(StragglerCause::ThermalThrottle {
                freq_cap: FreqMHz(900),
            }),
        ] {
            let report = emu.report(policy, cause).unwrap();
            let attr = emu.attribute(policy, cause).unwrap();
            let total = report.total_j();
            assert!(
                (attr.total().total_j() - total).abs() <= 1e-9 * total,
                "{policy} {cause:?}: attributed {} vs report {}",
                attr.total().total_j(),
                total
            );
            if cause.is_some() {
                assert!(
                    attr.non_straggler.total.extrinsic_j > 0.0,
                    "{policy} {cause:?}: straggler wait must appear as extrinsic bloat"
                );
            }
        }
    }
}

#[test]
fn attribution_with_belief_matches_report_with_belief() {
    let emu = Emulator::new(small_config()).unwrap();
    let t = emu
        .straggler_iteration_time(StragglerCause::Slowdown { degree: 1.3 })
        .unwrap();
    for (believed, actual) in [
        (None, Some(t)),
        (Some(t), Some(t)),
        (Some(t), None),
        (None, None),
    ] {
        let report = emu
            .report_with_belief(Policy::Perseus, believed, actual)
            .unwrap();
        let attr = emu
            .attribute_with_belief(Policy::Perseus, believed, actual)
            .unwrap();
        let total = report.total_j();
        assert!(
            (attr.total().total_j() - total).abs() <= 1e-9 * total.max(1.0),
            "belief {believed:?}/{actual:?}: attributed {} vs report {}",
            attr.total().total_j(),
            total
        );
    }
}

/// The planning context is built once, at construction, and kept: every
/// call hands out the same allocation, and a frequency cap (which
/// changes plans, not profiles) does not rebuild it.
#[test]
fn ctx_is_built_once_and_survives_a_freq_cap() {
    let mut emu = Emulator::new(small_config()).unwrap();
    let ctx: *const _ = emu.ctx();
    let fits = emu.ctx().plan_info.as_ptr();
    assert!(std::ptr::eq(ctx, emu.ctx()));
    assert!(std::ptr::eq(emu.pipe(), &*emu.ctx().pipe));
    emu.report(
        Policy::Perseus,
        Some(StragglerCause::Slowdown { degree: 1.2 }),
    )
    .unwrap();
    let gpu = &emu.config().gpu;
    let cap = FreqMHz((gpu.min_freq_mhz + gpu.max_freq_mhz) / 2);
    emu.apply_freq_cap(cap).unwrap();
    assert!(std::ptr::eq(ctx, emu.ctx()));
    assert_eq!(
        emu.ctx().plan_info.as_ptr(),
        fits,
        "a frequency cap must not rebuild the context"
    );
}

/// Pricing through the kept context and the priced halves it keeps is
/// bit-identical to pricing each selected schedule afresh through a newly
/// built [`perseus_core::PlanContext`], the way every call priced before
/// either was kept. The trace is seeded, with stale and current beliefs;
/// each iteration is priced twice, so the second reads the memo; the
/// policies span a frontier, a joint plan, single schedules and a sweep;
/// and a frequency cap lands halfway through, so a memo that outlived
/// the plans it priced would price the uncapped schedules.
#[test]
fn kept_context_prices_like_a_fresh_one_over_a_seeded_trace() {
    use perseus_core::{attribute_schedule, attribute_schedule_with_sleep, PlanContext};

    let mut emu = Emulator::new(small_config()).unwrap();
    let fresh = PlanContext::from_model_profiles(emu.pipe(), &emu.config().gpu, emu.stages())
        .unwrap()
        .into_owned();
    // SplitMix64: the trace's straggler degrees and belief staleness.
    let mut state = 0x5EED_u64;
    let mut draw = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut believed = None;
    for iter in 0..24 {
        if iter == 12 {
            emu.apply_freq_cap(FreqMHz(800)).unwrap();
        }
        let r = draw();
        let actual = match r % 3 {
            0 => None,
            _ => {
                let degree = 1.0 + 0.6 * (r >> 11) as f64 / (1u64 << 53) as f64;
                Some(
                    emu.straggler_iteration_time(StragglerCause::Slowdown { degree })
                        .unwrap(),
                )
            }
        };
        for policy in [
            Policy::Perseus,
            Policy::Kareus,
            Policy::AllMax,
            Policy::ZeusGlobal,
            Policy::EnvPipe,
        ] {
            let plan = emu.plan_of(policy).unwrap();
            let schedule = plan.select(believed);
            let sync = actual.unwrap_or(0.0).max(schedule.time_s);
            let sleep = plan.sleep_plan(believed);
            let base = emu.plan_of(Policy::AllMax).unwrap();
            let straggler = actual.map(|t| {
                let mut r = base.select(None).energy_report(&fresh, Some(sync.max(t)));
                r.sync_time_s = sync.max(t);
                r
            });
            let expected = crate::ClusterReport {
                non_straggler: schedule.energy_report_with_sleep(&fresh, Some(sync), sleep),
                straggler,
                sync_time_s: sync,
                n_pipelines: emu.config().n_pipelines,
                tensor_parallel: emu.config().tensor_parallel,
            };
            let expected_attr = crate::ClusterAttribution {
                non_straggler: attribute_schedule_with_sleep(&fresh, schedule, Some(sync), sleep),
                straggler: actual
                    .map(|t| attribute_schedule(&fresh, base.select(None), Some(sync.max(t)))),
                n_pipelines: emu.config().n_pipelines,
                tensor_parallel: emu.config().tensor_parallel,
            };

            for pass in 0..2 {
                let report = emu.report_with_belief(policy, believed, actual).unwrap();
                let attr = emu.attribute_with_belief(policy, believed, actual).unwrap();
                // Debug prints every f64 in its shortest round-tripping
                // form, so equal text means bit-equal joules, times and
                // lanes.
                let at = format!("iteration {iter}, {policy}, pass {pass}");
                assert_eq!(format!("{report:?}"), format!("{expected:?}"), "{at}");
                assert_eq!(format!("{attr:?}"), format!("{expected_attr:?}"), "{at}");
                assert_eq!(
                    report.total_j().to_bits(),
                    expected.total_j().to_bits(),
                    "{at}"
                );
                assert_eq!(
                    format!("{:?}", attr.total()),
                    format!("{:?}", expected_attr.total()),
                    "{at}"
                );
            }
        }
        // The next iteration's schedule answers this one's straggler, or
        // rides a stale belief.
        if draw() % 2 == 0 {
            believed = actual;
        }
    }
}

/// Pricing 100 iterations at three distinct straggler times builds each
/// (policy, selection)'s halves once: afterwards the emulator holds
/// exactly the two halves of every selection the iterations made, the
/// all-max straggler's included.
#[test]
fn each_selection_is_priced_once() {
    let emu = Emulator::new(small_config()).unwrap();
    let t_primes: Vec<Option<f64>> = [1.05, 1.2, 1.5]
        .into_iter()
        .map(|degree| {
            Some(
                emu.straggler_iteration_time(StragglerCause::Slowdown { degree })
                    .unwrap(),
            )
        })
        .collect();
    let mut selections = std::collections::HashSet::from([(Policy::AllMax, 0)]);
    for iter in 0..100 {
        let t = t_primes[iter % t_primes.len()];
        for policy in Policy::ALL {
            emu.report_with_belief(policy, t, t).unwrap();
            emu.attribute_with_belief(policy, t, t).unwrap();
            selections.insert((policy, emu.plan_of(policy).unwrap().select_index(t)));
        }
    }
    assert!(
        selections.len() > Policy::ALL.len(),
        "some policy must select different schedules for different T'"
    );
    assert_eq!(emu.priced_parts(), 2 * selections.len());
}

/// A policy slower than the straggler's `T'` sets the cluster's sync
/// point, and the straggler pipeline waits — and is charged — up to that
/// sync, exactly as `report_with_belief` prices an accurate belief.
#[test]
fn report_charges_the_straggler_up_to_a_slow_policys_sync() {
    let emu = Emulator::new(small_config()).unwrap();
    let time_of = |policy| emu.report(policy, None).unwrap().non_straggler.iter_time_s;
    // A degree below T*/T_min: the min-energy oracle is slower than T'.
    let degree = (1.0 + time_of(Policy::MinEnergyOracle) / time_of(Policy::AllMax)) / 2.0;
    let cause = StragglerCause::Slowdown { degree };
    let t = emu.straggler_iteration_time(cause).unwrap();

    let oracle = emu.report(Policy::MinEnergyOracle, Some(cause)).unwrap();
    assert!(
        oracle.non_straggler.iter_time_s > t,
        "the oracle must set the sync"
    );
    let straggler = oracle.straggler.expect("a straggler was reported");
    assert_eq!(
        straggler.sync_time_s.to_bits(),
        oracle.sync_time_s.to_bits()
    );
    for policy in Policy::ALL {
        // `{:?}` prints every f64 round-trip exact: equal text, equal bits.
        assert_eq!(
            format!("{:?}", emu.report(policy, Some(cause)).unwrap()),
            format!(
                "{:?}",
                emu.report_with_belief(policy, Some(t), Some(t)).unwrap()
            ),
            "{policy}"
        );
    }
}

#[test]
fn simulate_run_with_ledger_is_observation_only() {
    use crate::run::{simulate_run, simulate_run_with_ledger, thermal_cycle_trace, RunConfig};
    use perseus_core::BloatLedger;

    let emu = Emulator::new(small_config()).unwrap();
    let trace = thermal_cycle_trace(1, 1.3, 8, 3, 24);
    let cfg = RunConfig {
        iterations: 24,
        reaction_delay_iters: 2,
    };
    let plain = simulate_run(&emu, Policy::Perseus, &trace, &cfg).unwrap();
    let mut ledger = BloatLedger::new(4);
    let with = simulate_run_with_ledger(&emu, Policy::Perseus, &trace, &cfg, &mut ledger).unwrap();
    // Bit-identical summary: the ledger observed, it did not interfere.
    assert_eq!(
        plain.total_energy_j.to_bits(),
        with.total_energy_j.to_bits()
    );
    assert_eq!(plain.total_time_s.to_bits(), with.total_time_s.to_bits());
    // And the ledger accounted every joule of the run.
    assert_eq!(ledger.iterations(), 24);
    assert!(
        (ledger.total().total_j() - plain.total_energy_j).abs() <= 1e-9 * plain.total_energy_j,
        "ledger {} vs run {}",
        ledger.total().total_j(),
        plain.total_energy_j
    );
    // The thermal cycle produced both bloat flavors.
    assert!(ledger.total().intrinsic_j > 0.0);
    assert!(ledger.total().extrinsic_j > 0.0);
}

/// The fleet plan cache's core promise, checked across every policy's
/// planner: planning is deterministic — a re-plan is **bitwise identical**
/// to the first solve, which is what a cache hit hands out — and the
/// planners' fingerprints of one structure are pairwise distinct, so no
/// two planners can share a cache entry.
#[test]
fn cache_hit_plan_output_is_bitwise_identical_for_every_planner() {
    use perseus_core::plan_fingerprint;

    let emu = Emulator::new(small_config()).unwrap();
    let ctx = emu.ctx();
    let opts = &emu.config().frontier;
    let mut fps = Vec::new();

    for policy in Policy::ALL {
        // Differential: re-plan from scratch; the bytes must match the
        // first solve exactly, float for float.
        let planner = planner_of(&emu, policy);
        let first = planner.plan(ctx).unwrap();
        let fresh = planner.plan(ctx).unwrap();
        assert_eq!(
            plan_bits(&first),
            plan_bits(&fresh),
            "{policy}: a fresh solve diverges from the first"
        );
        assert_eq!(planner.name(), policy.name());
        fps.push(plan_fingerprint(
            policy.name(),
            emu.pipe(),
            &emu.config().gpu,
            &ctx.profiles,
            opts,
        ));
    }
    fps.sort_unstable();
    fps.dedup();
    assert_eq!(
        fps.len(),
        7,
        "planner fingerprints must be pairwise distinct"
    );
}

mod kareus {
    use super::*;
    use std::sync::Arc;

    use perseus_core::{EnergyKind, FrontierPlan, PlanOutput};

    #[test]
    fn kareus_never_exceeds_perseus_and_wins_on_bubbles() {
        let emu = Emulator::new(small_config()).unwrap();
        for cause in [
            None,
            Some(StragglerCause::Slowdown { degree: 1.2 }),
            Some(StragglerCause::Slowdown { degree: 1.4 }),
        ] {
            let perseus = emu.report(Policy::Perseus, cause).unwrap();
            let kareus = emu.report(Policy::Kareus, cause).unwrap();
            assert!(
                kareus.total_j() <= perseus.total_j() + 1e-9,
                "kareus burned more than perseus under {cause:?}"
            );
            // Deployed schedules are identical — sleep never slows the
            // pipeline.
            assert_eq!(
                kareus.non_straggler.iter_time_s.to_bits(),
                perseus.non_straggler.iter_time_s.to_bits()
            );
        }
        // A 4-stage 6-microbatch 1F1B pipeline has warm-up/drain bubbles
        // well past the default entry/exit latencies: strict win.
        let perseus = emu.report(Policy::Perseus, None).unwrap();
        let kareus = emu.report(Policy::Kareus, None).unwrap();
        assert!(
            kareus.total_j() < perseus.total_j(),
            "bubbly pipeline must sleep profitably: {} vs {}",
            kareus.total_j(),
            perseus.total_j()
        );
    }

    #[test]
    fn kareus_attribution_moves_idle_into_static_sleep() {
        let emu = Emulator::new(small_config()).unwrap();
        let perseus = emu.attribute(Policy::Perseus, None).unwrap();
        let kareus = emu.attribute(Policy::Kareus, None).unwrap();
        let p_idle = perseus.non_straggler.kind(EnergyKind::Idle).useful_j;
        let k_idle = kareus.non_straggler.kind(EnergyKind::Idle).useful_j;
        let k_sleep = kareus.non_straggler.kind(EnergyKind::StaticSleep).useful_j;
        assert_eq!(
            perseus.non_straggler.kind(EnergyKind::StaticSleep).useful_j,
            0.0,
            "frequency-only planner must never book static-sleep joules"
        );
        assert!(k_sleep > 0.0, "kareus must book static-sleep joules");
        assert!(k_idle < p_idle, "sleep must come out of the idle lane");
        // Attribution total tracks the report total (conservation holds
        // through the cluster path too).
        let report = emu.report(Policy::Kareus, None).unwrap();
        let attributed = kareus.total().total_j();
        assert!(
            (attributed - report.total_j()).abs() <= 1e-9 * report.total_j(),
            "attributed {attributed} vs reported {}",
            report.total_j()
        );
    }

    /// Sleep plans over the emulator's frontier from a state that can
    /// never amortize inside a sub-second iteration: every plan is empty,
    /// and the joint plan prices exactly like the Perseus report at every
    /// straggler time.
    #[test]
    fn unamortizable_kareus_is_bit_identical_to_perseus() {
        use perseus_gpu::PowerState;

        let emu = Emulator::new(small_config()).unwrap();
        let glacial = PowerStateModel {
            states: vec![PowerState {
                name: "glacial",
                power_w: 1.0,
                entry_s: 1e6,
                exit_s: 1e6,
            }],
        };
        let perseus = emu.plan_of(Policy::Perseus).unwrap();
        let frontier = Arc::clone(perseus.as_frontier_plan().unwrap().frontier());
        let joint = PlanOutput::Frontier(FrontierPlan::with_sleep(frontier, emu.ctx(), &glacial));
        for cause in [None, Some(StragglerCause::Slowdown { degree: 1.3 })] {
            let t_prime = cause.map(|c| emu.straggler_iteration_time(c).unwrap());
            let report = emu.report(Policy::Perseus, cause).unwrap();
            let schedule = joint.select(t_prime);
            let sleep = joint
                .sleep_plan(t_prime)
                .expect("a joint plan carries sleep");
            assert!(sleep.is_empty(), "no bubble amortizes a glacial state");
            let priced =
                schedule.energy_report_with_sleep(emu.ctx(), Some(report.sync_time_s), Some(sleep));
            assert_eq!(
                format!("{priced:?}"),
                format!("{:?}", report.non_straggler),
                "no profitable bubble: kareus must degenerate exactly"
            );
        }
    }

    /// Kareus is the Perseus frontier plus its sleep plans: before and
    /// after a frequency cap, the emulator's Kareus plan holds the very
    /// allocation of the Perseus frontier, and equals a fresh
    /// `KareusPlanner::plan` (clamped to the same cap) bit for bit.
    #[test]
    fn kareus_plan_is_the_perseus_frontier_plus_sleep_across_a_cap() {
        let mut emu = Emulator::new(small_config()).unwrap();
        let power = PowerStateModel::default_for(&emu.config().gpu);
        let planner = KareusPlanner::new(emu.config().frontier.clone(), power.clone());
        let fresh = planner.plan(emu.ctx()).unwrap();
        let check = |emu: &Emulator, fresh: &PlanOutput| {
            let kareus = emu.plan_of(Policy::Kareus).unwrap();
            let perseus = emu.plan_of(Policy::Perseus).unwrap();
            let shared =
                |plan: &PlanOutput| std::ptr::eq(plan.as_frontier().unwrap(), emu.frontier());
            assert!(shared(&kareus), "kareus holds its own frontier copy");
            assert!(shared(&perseus), "perseus holds its own frontier copy");
            assert!(
                plan_bits(&kareus) == plan_bits(fresh),
                "kareus differs from a fresh plan"
            );
        };
        check(&emu, &fresh);
        emu.apply_freq_cap(FreqMHz(800)).unwrap();
        let cap = emu.freq_cap().unwrap();
        let fresh = fresh.clamp_freq_cap(emu.ctx(), cap, Some(&power)).unwrap();
        check(&emu, &fresh);
    }

    #[test]
    fn freq_cap_reclamps_and_recomputes_sleep() {
        let mut emu = Emulator::new(small_config()).unwrap();
        // Prime the cache so the cap path replaces a cached Kareus plan.
        let before = emu.report(Policy::Kareus, None).unwrap();
        let cap = FreqMHz(800);
        emu.apply_freq_cap(cap).unwrap();
        let after_k = emu.report(Policy::Kareus, None).unwrap();
        let after_p = emu.report(Policy::Perseus, None).unwrap();
        // The cap slows the pipeline; the joint plan still dominates.
        assert!(after_k.non_straggler.iter_time_s >= before.non_straggler.iter_time_s);
        assert!(after_k.total_j() <= after_p.total_j() + 1e-9);
        // Sleep windows were recomputed against the capped timeline, not
        // carried over: they still fit inside the capped iteration.
        let plan = emu.plan_of(Policy::Kareus).unwrap();
        let sleep = plan.sleep_plan(None).expect("kareus carries sleep");
        let iter = plan.select(None).time_s;
        for stage in 0..emu.config().n_stages {
            for w in sleep.stage_windows(stage) {
                assert!(w.end_s <= iter + 1e-9, "stale window past capped makespan");
            }
        }
        assert!(sleep.window_count() > 0, "capped bubbles remain sleepable");
    }

    /// Of the plans of the emulator's closed policy set, only Kareus's
    /// carries sleep plans.
    #[test]
    fn registry_plans_carry_sleep_plans_for_kareus_only() {
        let emu = Emulator::new(small_config()).unwrap();
        for policy in Policy::ALL {
            let plan = emu.plan_of(policy).unwrap();
            let kareus = policy == Policy::Kareus;
            assert_eq!(plan.sleep_plan(None).is_some(), kareus, "{policy}");
        }
    }

    #[test]
    fn simulate_run_books_static_sleep_for_kareus_only() {
        use crate::run::{simulate_run_with_ledger, thermal_cycle_trace, RunConfig};
        use perseus_core::BloatLedger;

        let emu = Emulator::new(small_config()).unwrap();
        let trace = thermal_cycle_trace(1, 1.3, 8, 3, 16);
        let cfg = RunConfig {
            iterations: 16,
            reaction_delay_iters: 2,
        };
        let mut perseus_ledger = BloatLedger::new(4);
        let perseus =
            simulate_run_with_ledger(&emu, Policy::Perseus, &trace, &cfg, &mut perseus_ledger)
                .unwrap();
        let mut kareus_ledger = BloatLedger::new(4);
        let kareus =
            simulate_run_with_ledger(&emu, Policy::Kareus, &trace, &cfg, &mut kareus_ledger)
                .unwrap();
        assert!(kareus.total_energy_j < perseus.total_energy_j);
        assert_eq!(perseus_ledger.kind(EnergyKind::StaticSleep).total_j(), 0.0);
        assert!(kareus_ledger.kind(EnergyKind::StaticSleep).useful_j > 0.0);
        // The ledger still accounts every joule of the kareus run.
        assert!(
            (kareus_ledger.total().total_j() - kareus.total_energy_j).abs()
                <= 1e-9 * kareus.total_energy_j
        );
    }
}

mod observed_run {
    use super::*;
    use crate::run::{
        simulate_run, simulate_run_observed, thermal_cycle_trace, RunConfig, TraceEvent,
    };
    use perseus_telemetry::ObsPipeline;

    /// Feeding the streaming pipeline is pure observation: the summary is
    /// bit-identical to the unobserved run, and the pipeline's flight
    /// recorder holds one sample per iteration whose energy and sync time
    /// re-sum to the run's totals.
    #[test]
    fn observed_run_is_bit_identical_and_fills_the_store() {
        let emu = Emulator::new(small_config()).unwrap();
        let trace = vec![TraceEvent {
            at_iteration: 3,
            pipeline: 2,
            cause: Some(StragglerCause::Slowdown { degree: 1.2 }),
        }];
        let cfg = RunConfig {
            iterations: 8,
            reaction_delay_iters: 1,
        };
        let plain = simulate_run(&emu, Policy::Perseus, &trace, &cfg).unwrap();
        let obs = ObsPipeline::default();
        let observed = simulate_run_observed(&emu, Policy::Perseus, &trace, &cfg, &obs).unwrap();
        assert_eq!(
            plain.total_energy_j.to_bits(),
            observed.total_energy_j.to_bits()
        );
        assert_eq!(
            plain.total_time_s.to_bits(),
            observed.total_time_s.to_bits()
        );
        assert_eq!(plain.per_iteration.len(), observed.per_iteration.len());
        for (a, b) in plain.per_iteration.iter().zip(&observed.per_iteration) {
            assert_eq!(a.sync_time_s.to_bits(), b.sync_time_s.to_bits());
            assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
        }
        assert_eq!(obs.ingested(), 8);
        let record = obs.flight().snapshot();
        assert_eq!(record.samples.len(), 8);
        let energy: f64 = record.samples.iter().map(|s| s.total_j()).sum();
        assert!((energy - plain.total_energy_j).abs() < 1e-6);
        let sync: f64 = record.samples.iter().map(|s| s.sync_time_s).sum();
        assert!((sync - plain.total_time_s).abs() < 1e-9);
    }

    /// A thermal-cycling trace drives the sync time up and down; the
    /// flight record sees the spread.
    #[test]
    fn observed_thermal_cycle_shows_spread() {
        let emu = Emulator::new(small_config()).unwrap();
        let trace = thermal_cycle_trace(1, 1.3, 8, 4, 32);
        let cfg = RunConfig {
            iterations: 32,
            reaction_delay_iters: 1,
        };
        let obs = ObsPipeline::default();
        simulate_run_observed(&emu, Policy::Perseus, &trace, &cfg, &obs).unwrap();
        let record = obs.flight().snapshot();
        assert_eq!(record.samples.len(), 32);
        let first = record.samples[0].sync_time_s;
        assert!(
            record.samples.iter().any(|s| s.sync_time_s != first),
            "cycling trace must move the sync time"
        );
    }
}
