use crate::{
    DeviceError, FreqMHz, GpuSpec, NoiseModel, PowerState, PowerStateError, PowerStateModel,
    SimGpu, Workload,
};

fn sample_workload() -> Workload {
    // Roughly a GPT-scale forward computation: ~50 ms at max A100 clock.
    Workload::new(60.0, 0.008, 0.9)
}

#[test]
fn frequency_tables_match_hardware() {
    let a100 = GpuSpec::a100_pcie();
    assert_eq!(a100.min_freq(), FreqMHz(210));
    assert_eq!(a100.max_freq(), FreqMHz(1410));
    let freqs = a100.frequencies();
    assert_eq!(freqs.first(), Some(&FreqMHz(210)));
    assert_eq!(freqs.last(), Some(&FreqMHz(1410)));
    assert_eq!(freqs[1].0 - freqs[0].0, 15);
    // A40 has a wider range than A100 — the driver of its larger savings.
    assert!(GpuSpec::a40().max_freq_mhz > a100.max_freq_mhz);
    assert!(GpuSpec::h100_sxm().max_freq_mhz > GpuSpec::a40().max_freq_mhz);
}

#[test]
fn supports_and_clamp() {
    let a100 = GpuSpec::a100_pcie();
    assert!(a100.supports(FreqMHz(210)));
    assert!(a100.supports(FreqMHz(1410)));
    assert!(!a100.supports(FreqMHz(211)));
    assert!(!a100.supports(FreqMHz(1425)));
    assert_eq!(a100.clamp_freq(FreqMHz(1)), FreqMHz(210));
    assert_eq!(a100.clamp_freq(FreqMHz(5000)), FreqMHz(1410));
    assert_eq!(a100.clamp_freq(FreqMHz(852)), FreqMHz(855));
}

#[test]
fn time_monotone_decreasing_in_frequency() {
    let a100 = GpuSpec::a100_pcie();
    let w = sample_workload();
    let freqs = a100.frequencies();
    for pair in freqs.windows(2) {
        assert!(a100.time(&w, pair[0]) > a100.time(&w, pair[1]));
    }
}

#[test]
fn mem_time_is_frequency_insensitive() {
    let a100 = GpuSpec::a100_pcie();
    let w = Workload::new(0.0, 0.02, 0.5);
    assert_eq!(
        a100.time(&w, a100.min_freq()),
        a100.time(&w, a100.max_freq())
    );
}

#[test]
fn power_within_envelope() {
    let a100 = GpuSpec::a100_pcie();
    for f in a100.frequencies() {
        let p = a100.power(f, 1.0);
        assert!(p >= a100.static_w);
        assert!(p <= a100.tdp_w + 1e-9);
    }
    assert!((a100.power(a100.max_freq(), 1.0) - a100.tdp_w).abs() < 1e-9);
}

#[test]
fn min_energy_frequency_is_interior() {
    // §5: sweeping down from max frequency, energy decreases then
    // increases; the optimum must be strictly between min and max.
    for spec in [
        GpuSpec::a100_pcie(),
        GpuSpec::a40(),
        GpuSpec::h100_sxm(),
        GpuSpec::v100(),
    ] {
        let w = sample_workload();
        let f_opt = spec.min_energy_freq(&w);
        assert!(f_opt > spec.min_freq(), "{}: optimum at floor", spec.name);
        assert!(f_opt < spec.max_freq(), "{}: optimum at ceiling", spec.name);
    }
}

#[test]
fn energy_unimodal_around_optimum() {
    let a100 = GpuSpec::a100_pcie();
    let w = sample_workload();
    let f_opt = a100.min_energy_freq(&w);
    let e_opt = a100.energy(&w, f_opt);
    assert!(a100.energy(&w, a100.min_freq()) > e_opt);
    assert!(a100.energy(&w, a100.max_freq()) > e_opt);
}

#[test]
fn pareto_points_strictly_tradeoff() {
    let a100 = GpuSpec::a100_pcie();
    let w = sample_workload();
    let pts = a100.pareto_points(&w);
    assert!(pts.len() > 5);
    for pair in pts.windows(2) {
        assert!(pair[0].time_s < pair[1].time_s);
        assert!(pair[0].energy_j > pair[1].energy_j);
    }
    // Fastest Pareto point is the max frequency; slowest is the min-energy
    // frequency.
    assert_eq!(pts.first().unwrap().freq, a100.max_freq());
    assert_eq!(pts.last().unwrap().freq, a100.min_energy_freq(&w));
}

#[test]
fn slowest_freq_within_deadline() {
    let a100 = GpuSpec::a100_pcie();
    let w = sample_workload();
    let t_at = |f| a100.time(&w, f);
    // Deadline exactly achievable.
    let f = a100.slowest_freq_within(&w, t_at(FreqMHz(900))).unwrap();
    assert_eq!(f, FreqMHz(900));
    // Slightly tighter deadline requires the next faster clock.
    let f = a100
        .slowest_freq_within(&w, t_at(FreqMHz(900)) - 1e-6)
        .unwrap();
    assert_eq!(f, FreqMHz(915));
    // Generous deadline -> the floor clock.
    assert_eq!(a100.slowest_freq_within(&w, 1e9), Some(a100.min_freq()));
    // Impossible deadline.
    assert_eq!(a100.slowest_freq_within(&w, 1e-9), None);
}

#[test]
fn workload_fusion_adds_work() {
    let a = Workload::new(10.0, 0.001, 0.8);
    let b = Workload::new(20.0, 0.002, 1.0);
    let f = a.fused(&b);
    assert_eq!(f.compute, 30.0);
    assert!((f.mem_time - 0.003).abs() < 1e-12);
    assert!(f.util > 0.8 && f.util < 1.0);
}

#[test]
fn device_runs_and_accumulates() {
    let mut gpu = SimGpu::new(GpuSpec::a100_pcie());
    let w = sample_workload();
    let (t, e) = gpu.run(&w);
    assert!((gpu.clock_s() - t).abs() < 1e-12);
    assert!((gpu.energy_counter_j() - e).abs() < 1e-12);
    gpu.block(0.5);
    assert!((gpu.clock_s() - t - 0.5).abs() < 1e-12);
    assert!((gpu.energy_counter_j() - e - 75.0 * 0.5).abs() < 1e-9);
}

#[test]
fn device_frequency_lock() {
    let mut gpu = SimGpu::new(GpuSpec::a100_pcie());
    assert_eq!(gpu.locked_freq(), FreqMHz(1410));
    gpu.set_frequency(FreqMHz(900)).unwrap();
    assert_eq!(gpu.locked_freq(), FreqMHz(900));
    assert_eq!(gpu.freq_set_count(), 1);
    // Redundant set is free.
    gpu.set_frequency(FreqMHz(900)).unwrap();
    assert_eq!(gpu.freq_set_count(), 1);
    assert!(matches!(
        gpu.set_frequency(FreqMHz(907)),
        Err(DeviceError::UnsupportedFrequency(_))
    ));
}

#[test]
fn device_throttling_slows_execution() {
    let w = sample_workload();
    let mut gpu = SimGpu::new(GpuSpec::a100_pcie());
    let (t_free, _) = gpu.run(&w);
    gpu.set_throttle_cap(Some(FreqMHz(705)));
    assert_eq!(gpu.effective_freq(), FreqMHz(705));
    let (t_throttled, _) = gpu.run(&w);
    assert!(t_throttled > t_free);
    gpu.set_throttle_cap(None);
    assert_eq!(gpu.effective_freq(), FreqMHz(1410));
}

#[test]
fn device_noise_is_reproducible() {
    let w = sample_workload();
    let run = |seed| {
        let mut gpu = SimGpu::new(GpuSpec::a100_pcie()).with_noise(NoiseModel::realistic(seed));
        gpu.run(&w)
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8));
}

#[test]
fn device_reset_counters() {
    let mut gpu = SimGpu::new(GpuSpec::a100_pcie());
    gpu.run(&sample_workload());
    gpu.reset_counters();
    assert_eq!(gpu.clock_s(), 0.0);
    assert_eq!(gpu.energy_counter_j(), 0.0);
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    fn arb_workload() -> impl Strategy<Value = Workload> {
        (0.1f64..500.0, 0.0f64..0.05, 0.3f64..1.0).prop_map(|(c, m, u)| Workload::new(c, m, u))
    }

    proptest! {
        #[test]
        fn pareto_set_nonempty_and_ordered(w in arb_workload()) {
            let spec = GpuSpec::a40();
            let pts = spec.pareto_points(&w);
            prop_assert!(!pts.is_empty());
            for pair in pts.windows(2) {
                prop_assert!(pair[0].time_s < pair[1].time_s);
                prop_assert!(pair[0].energy_j > pair[1].energy_j);
            }
        }

        #[test]
        fn slowest_freq_within_is_correct(w in arb_workload(), deadline in 0.0001f64..100.0) {
            let spec = GpuSpec::a100_pcie();
            match spec.slowest_freq_within(&w, deadline) {
                Some(f) => {
                    prop_assert!(spec.time(&w, f) <= deadline + 1e-9);
                    // One step slower would miss the deadline (if one exists).
                    if f > spec.min_freq() {
                        let slower = FreqMHz(f.0 - spec.step_mhz);
                        prop_assert!(spec.time(&w, slower) > deadline - 1e-9);
                    }
                }
                None => prop_assert!(spec.time(&w, spec.max_freq()) > deadline),
            }
        }

        #[test]
        fn energy_consistent_with_power_time(w in arb_workload()) {
            let spec = GpuSpec::a100_pcie();
            for f in [spec.min_freq(), FreqMHz(705), spec.max_freq()] {
                let e = spec.energy(&w, f);
                prop_assert!((e - spec.power(f, w.util) * spec.time(&w, f)).abs() < 1e-9);
            }
        }
    }
}

#[test]
fn cap_zone_flattens_top_clocks() {
    // Above the knee, time barely improves while power keeps climbing —
    // the phenomenon that makes small slowdowns nearly free (Zeus's
    // power-limit observation).
    let a100 = GpuSpec::a100_pcie();
    let w = sample_workload();
    let knee = a100.clamp_freq(FreqMHz((a100.cap_knee * a100.max_freq_mhz as f64) as u32));
    let t_knee = a100.time(&w, knee);
    let t_max = a100.time(&w, a100.max_freq());
    let time_gain = t_knee / t_max - 1.0;
    let p_knee = a100.power(knee, w.util);
    let p_max = a100.power(a100.max_freq(), w.util);
    let power_cost = p_max / p_knee - 1.0;
    assert!(
        time_gain < 0.02,
        "knee -> max should buy <2% time: {time_gain:.3}"
    );
    assert!(
        power_cost > 2.0 * time_gain,
        "but cost real power: {power_cost:.3}"
    );
}

#[test]
fn perf_curve_is_monotone_and_normalized() {
    for spec in [GpuSpec::a100_pcie(), GpuSpec::a40(), GpuSpec::h100_sxm()] {
        let freqs = spec.frequencies();
        let mut prev = 0.0;
        for f in &freqs {
            let p = spec.perf_curve(*f);
            assert!(p > prev, "{}: perf curve must strictly increase", spec.name);
            prev = p;
        }
        assert!((spec.perf_curve(spec.max_freq()) - 1.0).abs() < 1e-12);
    }
}

#[test]
fn min_energy_frequency_is_realistic() {
    // Zeus measured ~1005 MHz as the A100's typical minimum-energy clock;
    // the calibrated model should land in that neighborhood (0.6-0.85 of
    // max) for a typical compute-bound layer.
    let a100 = GpuSpec::a100_pcie();
    let w = sample_workload();
    let f_opt = a100.min_energy_freq(&w).as_f64() / a100.max_freq_mhz as f64;
    assert!(
        f_opt > 0.55 && f_opt < 0.85,
        "A100 f_opt/f_max = {f_opt:.2}"
    );
}

#[test]
fn clock_skew_shifts_time_and_floors_at_zero() {
    let mut gpu = SimGpu::new(GpuSpec::a100_pcie());
    gpu.run(&sample_workload());
    let t = gpu.clock_s();
    assert!(t > 0.0);
    gpu.apply_clock_skew(2.5);
    assert!((gpu.clock_s() - (t + 2.5)).abs() < 1e-12);
    // A backwards skew larger than the clock itself floors at zero — the
    // emulated NTP step never produces negative timestamps.
    gpu.apply_clock_skew(-1e9);
    assert_eq!(gpu.clock_s(), 0.0);
}

#[test]
fn power_state_default_model_validates_everywhere() {
    for gpu in [
        GpuSpec::a100_pcie(),
        GpuSpec::a100_sxm(),
        GpuSpec::a40(),
        GpuSpec::h100_sxm(),
        GpuSpec::v100(),
    ] {
        let model = PowerStateModel::default_for(&gpu);
        model.validate(&gpu).unwrap();
        for s in &model.states {
            assert!(s.power_w < gpu.blocking_w);
        }
    }
}

#[test]
fn power_state_validation_rejects_bad_states() {
    let gpu = GpuSpec::a100_pcie();
    let hot = PowerStateModel {
        states: vec![PowerState {
            name: "hot",
            power_w: gpu.blocking_w,
            entry_s: 0.0,
            exit_s: 0.0,
        }],
    };
    assert!(matches!(
        hot.validate(&gpu),
        Err(PowerStateError::InvalidPower { .. })
    ));
    let laggy = PowerStateModel {
        states: vec![PowerState {
            name: "laggy",
            power_w: 10.0,
            entry_s: -1.0,
            exit_s: 0.0,
        }],
    };
    assert!(matches!(
        laggy.validate(&gpu),
        Err(PowerStateError::InvalidLatency { .. })
    ));
    // Empty models are valid: they just never sleep.
    PowerStateModel::default().validate(&gpu).unwrap();
}

#[test]
fn power_state_best_for_amortizes_transitions() {
    let gpu = GpuSpec::a100_pcie();
    let model = PowerStateModel::default_for(&gpu);
    // Bubble shorter than every transition: no profitable state.
    assert!(model.best_for(0.001, gpu.blocking_w).is_none());
    // Medium bubble: the light state wins (deep can't amortize 100 ms).
    let (s, saved) = model.best_for(0.020, gpu.blocking_w).unwrap();
    assert_eq!(s.name, "clock-gate");
    assert!(saved > 0.0);
    // Long bubble: the deep state's lower draw dominates.
    let (s, deep_saved) = model.best_for(2.0, gpu.blocking_w).unwrap();
    assert_eq!(s.name, "deep-sleep");
    assert!(deep_saved > saved);
    // Savings formula matches the state's own accounting.
    assert!((deep_saved - s.saved_j(2.0, gpu.blocking_w)).abs() < 1e-12);
}

#[test]
fn power_state_model_persist_round_trips() {
    use perseus_store::{ByteReader, ByteWriter, Persist};

    let gpu = GpuSpec::a40();
    let model = PowerStateModel::default_for(&gpu);
    let mut w = ByteWriter::new();
    model.encode(&mut w);
    let bytes = w.into_bytes();
    let mut r = ByteReader::new(&bytes);
    let back = PowerStateModel::decode(&mut r).unwrap();
    assert_eq!(model, back);

    // Corrupt draw is rejected at decode time.
    let mut w = ByteWriter::new();
    PowerState {
        name: "nan",
        power_w: f64::NAN,
        entry_s: 0.0,
        exit_s: 0.0,
    }
    .encode(&mut w);
    let bytes = w.into_bytes();
    let mut r = ByteReader::new(&bytes);
    assert!(PowerState::decode(&mut r).is_err());
}
