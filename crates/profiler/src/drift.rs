//! Streaming profile drift: a seeded random walk over a baseline
//! [`ProfileDb`].
//!
//! Profiles are measured once at job start (§5), but real fleets drift:
//! thermal throttling, datacenter ambient swings, and kernel updates all
//! move the time/energy curves the planner optimized against. A
//! [`ProfileDrift`] source models that as a per-key multiplicative random
//! walk driven by the same [`NoiseModel`] the simulated devices use —
//! each [`ProfileDrift::step`] perturbs every computation's cumulative
//! `(time_factor, energy_factor)` pair and emits the resulting
//! [`ProfileDelta`]s, which the server's drift watcher accumulates until
//! a re-characterization threshold trips.
//!
//! Determinism: the walk is fully determined by `(baseline, noise.seed)`.
//! Keys are stepped in sorted order, so two drift sources built from the
//! same inputs emit byte-identical delta streams — the property the
//! chaos replay and the `ha` claims of the `claims` bin rely on.

use std::collections::HashMap;
use std::hash::Hash;

use perseus_gpu::NoiseModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::profile::{OpProfile, ProfileDb, ProfileEntry};

/// Cumulative drift of one computation relative to its baseline profile.
///
/// Factors are multiplicative: `time_factor = 1.07` means the
/// computation now takes 7% longer than when it was profiled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileDelta<K> {
    /// The drifted computation (stage × kind in pipeline use).
    pub key: K,
    /// Current time multiplier vs. the baseline profile.
    pub time_factor: f64,
    /// Current energy multiplier vs. the baseline profile.
    pub energy_factor: f64,
}

impl<K> ProfileDelta<K> {
    /// Largest relative deviation from the baseline:
    /// `max(|time_factor − 1|, |energy_factor − 1|)`.
    pub fn magnitude(&self) -> f64 {
        (self.time_factor - 1.0)
            .abs()
            .max((self.energy_factor - 1.0).abs())
    }
}

/// Bounds keeping the walk physical: a profile never drifts to less than
/// half or more than double its measured baseline.
const FACTOR_MIN: f64 = 0.5;
const FACTOR_MAX: f64 = 2.0;

/// A seeded multiplicative random walk over every profile in a baseline
/// database. See the module docs.
#[derive(Debug)]
pub struct ProfileDrift<K: Eq + Hash + Ord + Clone> {
    baseline: ProfileDb<K>,
    /// Baseline keys in sorted order — the deterministic step order.
    keys: Vec<K>,
    /// Cumulative `(time_factor, energy_factor)` per key.
    factors: HashMap<K, (f64, f64)>,
    noise: NoiseModel,
    rng: StdRng,
    steps: u64,
}

impl<K: Eq + Hash + Ord + Clone> ProfileDrift<K> {
    /// A drift source over `baseline`, seeded and scaled by `noise`
    /// (`noise.time_rel_sigma` / `noise.energy_rel_sigma` are the
    /// per-step walk widths; `noise.seed` fixes the stream).
    pub fn new(baseline: ProfileDb<K>, noise: NoiseModel) -> ProfileDrift<K> {
        let mut keys: Vec<K> = baseline.iter().map(|(k, _)| k.clone()).collect();
        keys.sort();
        let factors = keys.iter().map(|k| (k.clone(), (1.0, 1.0))).collect();
        ProfileDrift {
            baseline,
            keys,
            factors,
            rng: StdRng::seed_from_u64(noise.seed),
            noise,
            steps: 0,
        }
    }

    /// Advances the walk one step: every key's factors are multiplied by
    /// an independent Gaussian step, then clamped to `[0.5, 2.0]`.
    /// Returns the cumulative deltas after the step, sorted by key.
    pub fn step(&mut self) -> Vec<ProfileDelta<K>> {
        self.steps += 1;
        for key in &self.keys {
            let (t, e) = self.factors.get_mut(key).expect("key seeded at new");
            *t = (*t * gaussian_factor(&mut self.rng, self.noise.time_rel_sigma))
                .clamp(FACTOR_MIN, FACTOR_MAX);
            *e = (*e * gaussian_factor(&mut self.rng, self.noise.energy_rel_sigma))
                .clamp(FACTOR_MIN, FACTOR_MAX);
        }
        self.deltas()
    }

    /// Applies a deterministic shift on top of the walk (scripted drift
    /// bursts: every key's factors are multiplied by the given pair and
    /// clamped). Returns the cumulative deltas after the shift.
    pub fn shift_all(&mut self, time_factor: f64, energy_factor: f64) -> Vec<ProfileDelta<K>> {
        for key in &self.keys {
            let (t, e) = self.factors.get_mut(key).expect("key seeded at new");
            *t = (*t * time_factor).clamp(FACTOR_MIN, FACTOR_MAX);
            *e = (*e * energy_factor).clamp(FACTOR_MIN, FACTOR_MAX);
        }
        self.deltas()
    }

    /// Cumulative deltas vs. the baseline, sorted by key.
    pub fn deltas(&self) -> Vec<ProfileDelta<K>> {
        self.keys
            .iter()
            .map(|k| {
                let (t, e) = self.factors[k];
                ProfileDelta {
                    key: k.clone(),
                    time_factor: t,
                    energy_factor: e,
                }
            })
            .collect()
    }

    /// Largest [`ProfileDelta::magnitude`] across all keys.
    pub fn magnitude(&self) -> f64 {
        self.deltas()
            .iter()
            .map(ProfileDelta::magnitude)
            .fold(0.0, f64::max)
    }

    /// The baseline database the walk drifts away from.
    pub fn baseline(&self) -> &ProfileDb<K> {
        &self.baseline
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The drifted database: every baseline profile rescaled by its
    /// current factors (frequencies untouched; Pareto fronts re-derived).
    pub fn current(&self) -> ProfileDb<K> {
        let mut db = ProfileDb::new();
        for (key, profile) in self.baseline.iter() {
            let (t, e) = self.factors[key];
            db.insert(key.clone(), scale_profile(profile, t, e));
        }
        db
    }
}

/// `profile` with every measurement's time and energy rescaled.
pub fn scale_profile(profile: &OpProfile, time_factor: f64, energy_factor: f64) -> OpProfile {
    OpProfile::from_entries(
        profile
            .entries()
            .iter()
            .map(|p| ProfileEntry {
                freq: p.freq,
                time_s: p.time_s * time_factor,
                energy_j: p.energy_j * energy_factor,
            })
            .collect(),
    )
}

/// Multiplicative step `max(0.5, 1 + N(0, sigma))` via Box–Muller — the
/// same shape `SimGpu` applies to individual measurements.
fn gaussian_factor(rng: &mut StdRng, sigma: f64) -> f64 {
    if sigma <= 0.0 {
        return 1.0;
    }
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (1.0 + sigma * z).max(0.5)
}
