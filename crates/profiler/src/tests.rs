use perseus_gpu::{FreqMHz, GpuSpec, NoiseModel, SimGpu, Workload};

use crate::fit::{ExpFit, FitError};
use crate::profile::{OnlineProfiler, OpProfile, ProfileDb, ProfileEntry, ProfileError};

fn wl() -> Workload {
    Workload::new(60.0, 0.008, 0.9)
}

#[test]
fn fit_recovers_known_exponential() {
    // Synthesize points from a known curve and check recovery.
    let truth = ExpFit {
        a: 120.0,
        b: -35.0,
        c: 18.0,
        t0: 0.0,
    };
    let pts: Vec<(f64, f64)> = (0..20)
        .map(|i| 0.02 + i as f64 * 0.004)
        .map(|t| (t, truth.energy(t)))
        .collect();
    let fit = ExpFit::fit(&pts).unwrap();
    for &(t, e) in &pts {
        let rel = (fit.energy(t) - e).abs() / e;
        assert!(rel < 1e-3, "at t={t}: fit {} vs truth {e}", fit.energy(t));
    }
}

#[test]
fn fit_rejects_degenerate_input() {
    assert!(matches!(
        ExpFit::fit(&[(1.0, 2.0)]),
        Err(FitError::TooFewPoints(1))
    ));
    assert!(matches!(ExpFit::fit(&[]), Err(FitError::TooFewPoints(0))));
    assert!(matches!(
        ExpFit::fit(&[(1.0, 2.0), (1.0, 3.0), (1.0, 4.0)]),
        Err(FitError::Degenerate)
    ));
}

#[test]
fn fit_two_points_exact_interpolation_at_endpoints() {
    let pts = [(0.05, 100.0), (0.10, 60.0)];
    let fit = ExpFit::fit(&pts).unwrap();
    assert!((fit.energy(0.05) - 100.0).abs() < 1.0);
    assert!((fit.energy(0.10) - 60.0).abs() < 1.0);
}

#[test]
fn fit_matches_gpu_pareto_curve_closely() {
    // The fit is the relaxation of the true discrete curve (§4.1); it must
    // approximate the model's Pareto points well. The curve has a kink at
    // the throttling knee (steep near t_min, shallow beyond), so the
    // single exponential is allowed a worst case of 10% there, but the
    // bulk of the curve must track within a few percent.
    let spec = GpuSpec::a100_pcie();
    let profile = OpProfile::from_model(&spec, &wl());
    let fit = profile.fit().unwrap();
    let mut errors: Vec<f64> = profile
        .pareto()
        .iter()
        .map(|p| (fit.energy(p.time_s) - p.energy_j).abs() / p.energy_j)
        .collect();
    errors.sort_by(f64::total_cmp);
    let worst = *errors.last().unwrap();
    let median = errors[errors.len() / 2];
    assert!(worst < 0.10, "worst fit error {:.1}%", worst * 100.0);
    assert!(median < 0.03, "median fit error {:.1}%", median * 100.0);
}

#[test]
fn fit_slope_negative_and_costs_positive() {
    let spec = GpuSpec::a40();
    let profile = OpProfile::from_model(&spec, &wl());
    let fit = profile.fit().unwrap();
    let t_mid = 0.5 * (profile.t_min() + profile.t_max());
    assert!(fit.slope(t_mid) < 0.0);
    assert!(fit.speedup_cost(t_mid, 0.001) > 0.0);
    assert!(fit.slowdown_gain(t_mid, 0.001) > 0.0);
    // Convexity: speeding up costs more than slowing down saves.
    assert!(fit.speedup_cost(t_mid, 0.001) >= fit.slowdown_gain(t_mid, 0.001));
}

#[test]
fn model_profile_endpoints() {
    let spec = GpuSpec::a100_pcie();
    let profile = OpProfile::from_model(&spec, &wl());
    assert!((profile.t_min() - spec.time(&wl(), spec.max_freq())).abs() < 1e-12);
    let f_opt = spec.min_energy_freq(&wl());
    assert!((profile.t_max() - spec.time(&wl(), f_opt)).abs() < 1e-12);
    assert!(profile.min_energy() < profile.max_freq_energy());
}

#[test]
fn slowest_within_picks_boundary() {
    let spec = GpuSpec::a100_pcie();
    let profile = OpProfile::from_model(&spec, &wl());
    let t900 = spec.time(&wl(), FreqMHz(900));
    let e = profile.slowest_within(t900).unwrap();
    assert_eq!(e.freq, FreqMHz(900));
    // Tight deadline: error.
    assert!(matches!(
        profile.slowest_within(profile.t_min() / 2.0),
        Err(ProfileError::DeadlineTooTight { .. })
    ));
    // Very loose deadline: min-energy point, never slower.
    let e = profile.slowest_within(1e9).unwrap();
    assert!((e.time_s - profile.t_max()).abs() < 1e-12);
}

#[test]
fn online_sweep_stops_early() {
    // §5: the sweep must not visit clocks below the energy minimum (plus
    // patience), saving profiling time.
    let spec = GpuSpec::a100_pcie();
    let mut gpu = SimGpu::new(spec.clone());
    let profile = OnlineProfiler::default().profile(&mut gpu, &wl());
    let total = spec.frequencies().len();
    assert!(
        profile.entries().len() < total,
        "sweep should stop early: {} of {total}",
        profile.entries().len()
    );
    // But it must reach (or pass) the minimum-energy frequency.
    let f_opt = spec.min_energy_freq(&wl());
    let lowest = profile.entries().last().unwrap().freq;
    assert!(lowest <= f_opt);
}

#[test]
fn online_profile_restores_frequency() {
    let mut gpu = SimGpu::new(GpuSpec::a100_pcie());
    gpu.set_frequency(FreqMHz(1200)).unwrap();
    let _ = OnlineProfiler::default().profile(&mut gpu, &wl());
    assert_eq!(gpu.locked_freq(), FreqMHz(1200));
}

#[test]
fn online_profile_with_noise_still_usable() {
    let spec = GpuSpec::a100_pcie();
    let mut gpu = SimGpu::new(spec.clone()).with_noise(NoiseModel::realistic(42));
    let profile = OnlineProfiler {
        reps: 5,
        ..Default::default()
    }
    .profile(&mut gpu, &wl());
    let fit = profile.fit().unwrap();
    // The noisy fit should still approximate the clean model within a few
    // percent at the endpoints.
    let clean = OpProfile::from_model(&spec, &wl());
    let t = clean.t_min();
    let rel = (fit.energy(t) - clean.max_freq_energy()).abs() / clean.max_freq_energy();
    assert!(rel < 0.08, "noisy fit off by {:.1}%", rel * 100.0);
}

#[test]
fn online_profiling_charges_simulated_time() {
    let mut gpu = SimGpu::new(GpuSpec::a100_pcie());
    assert_eq!(gpu.clock_s(), 0.0);
    let _ = OnlineProfiler::default().profile(&mut gpu, &wl());
    assert!(
        gpu.clock_s() > 0.0,
        "profiling must consume simulated time (§6.5 overhead)"
    );
}

#[test]
fn pareto_filtering_drops_dominated_entries() {
    // Hand-build entries where a middle frequency is dominated.
    let entries = vec![
        ProfileEntry {
            freq: FreqMHz(1410),
            time_s: 1.0,
            energy_j: 100.0,
        },
        ProfileEntry {
            freq: FreqMHz(1200),
            time_s: 1.2,
            energy_j: 105.0,
        }, // dominated
        ProfileEntry {
            freq: FreqMHz(900),
            time_s: 1.5,
            energy_j: 80.0,
        },
    ];
    let p = OpProfile::from_entries(entries);
    assert_eq!(p.pareto().len(), 2);
    assert_eq!(p.entries().len(), 3);
}

#[test]
fn profile_db_roundtrip() {
    let spec = GpuSpec::a100_pcie();
    let mut db: ProfileDb<(usize, u8)> = ProfileDb::new();
    assert!(db.is_empty());
    db.insert((0, 0), OpProfile::from_model(&spec, &wl()));
    db.insert((0, 1), OpProfile::from_model(&spec, &wl().scaled(2.0)));
    assert_eq!(db.len(), 2);
    assert!(db.get(&(0, 0)).is_some());
    assert!(db.get(&(9, 9)).is_none());
    assert_eq!(db.iter().count(), 2);
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    fn arb_workload() -> impl Strategy<Value = Workload> {
        (1.0f64..300.0, 0.0f64..0.03, 0.4f64..1.0).prop_map(|(c, m, u)| Workload::new(c, m, u))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn fit_monotone_decreasing_on_measured_range(w in arb_workload()) {
            let spec = GpuSpec::a100_pcie();
            let profile = OpProfile::from_model(&spec, &w);
            if profile.pareto().len() < 3 { return Ok(()); }
            let fit = profile.fit().unwrap();
            let (lo, hi) = (profile.t_min(), profile.t_max());
            let mut prev = f64::INFINITY;
            for i in 0..20 {
                let t = lo + (hi - lo) * i as f64 / 19.0;
                let e = fit.energy(t);
                prop_assert!(e <= prev + 1e-9);
                prev = e;
            }
        }

        #[test]
        fn slowest_within_monotone_in_deadline(w in arb_workload()) {
            let spec = GpuSpec::a40();
            let profile = OpProfile::from_model(&spec, &w);
            let (lo, hi) = (profile.t_min(), profile.t_max());
            let mut prev_freq = u32::MAX;
            for i in 0..10 {
                let d = lo + (hi - lo) * i as f64 / 9.0;
                let e = profile.slowest_within(d).unwrap();
                prop_assert!(e.freq.0 <= prev_freq);
                prev_freq = e.freq.0;
            }
        }
    }
}

#[test]
fn fit_is_stable_for_large_absolute_times() {
    // Times around 100 s with a 0.5 s span: an un-anchored exponential
    // underflows for steep decay rates. The anchored fit must still
    // recover the curve.
    let truth = ExpFit {
        a: 80.0,
        b: -20.0,
        c: 30.0,
        t0: 100.0,
    };
    let pts: Vec<(f64, f64)> = (0..20)
        .map(|i| 100.0 + i as f64 * 0.025)
        .map(|t| (t, truth.energy(t)))
        .collect();
    let fit = ExpFit::fit(&pts).unwrap();
    for &(t, e) in &pts {
        let rel = (fit.energy(t) - e).abs() / e;
        assert!(rel < 1e-3, "at t={t}: fit {} vs truth {e}", fit.energy(t));
    }
}

/// A profile encodes as exactly the bytes of its entries as a
/// `Vec<ProfileEntry>`, and decodes back to the same entries.
#[test]
fn profile_encodes_as_its_entry_vec() {
    use perseus_store::Persist;

    let mut gpu = SimGpu::new(GpuSpec::a100_pcie()).with_noise(NoiseModel::realistic(7));
    let profile = OnlineProfiler::default().profile(&mut gpu, &wl());
    assert!(profile.entries().len() > 1);
    let bytes = profile.to_bytes();
    assert_eq!(bytes, profile.entries().to_vec().to_bytes());
    assert_eq!(
        OpProfile::from_bytes(&bytes).unwrap().entries(),
        profile.entries()
    );
}
