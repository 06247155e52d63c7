//! GPU idle power-state modeling for joint dynamic + static planning.
//!
//! Perseus only shapes *dynamic* energy: frequency planning trades compute
//! joules against time, but `P_static` burns unconditionally for the whole
//! makespan, so pipeline bubbles still waste energy no frequency plan can
//! touch. Kareus (the Chung/Chowdhury follow-up) closes that gap by putting
//! the GPU into a low-power idle state during bubbles that are long enough
//! to amortize the state's entry/exit latency.
//!
//! This module models the menu of idle states a device exposes:
//!
//! * [`PowerState`] — one idle state: residual power draw plus the latency
//!   to enter and leave it. Transitions are drawn at `P_blocking` (the GPU
//!   is awake but useless while ramping), so a bubble of length `L` saves
//!   `(P_blocking − power) · (L − entry − exit)` joules.
//! * [`PowerStateModel`] — the full menu, validated against a [`GpuSpec`]
//!   (a sleep state must draw *less* than blocking power, or "sleeping"
//!   would cost energy).
//!
//! The model is pure data: the planner queries [`PowerStateModel::best_for`]
//! per bubble and records the winning state in its sleep plan.
//!
//! # Examples
//!
//! ```
//! use perseus_gpu::{GpuSpec, PowerStateModel};
//!
//! let gpu = GpuSpec::a100_pcie();
//! let model = PowerStateModel::default_for(&gpu);
//! model.validate(&gpu).unwrap();
//! // A 10 ms bubble is worth a light doze, not a deep sleep.
//! let (state, saved) = model.best_for(0.010, gpu.blocking_w).unwrap();
//! assert_eq!(state.name, "clock-gate");
//! assert!(saved > 0.0);
//! // A 1 s bubble amortizes the deep state's 100 ms round-trip.
//! let (state, _) = model.best_for(1.0, gpu.blocking_w).unwrap();
//! assert_eq!(state.name, "deep-sleep");
//! ```

use std::fmt;

use crate::model::GpuSpec;

/// One idle power state: residual draw plus entry/exit latencies.
///
/// While *in* the state the device draws `power_w`; while transitioning in
/// or out it draws full blocking power (the clocks are ramping, nothing
/// useful runs). A bubble shorter than `entry_s + exit_s` cannot profit
/// from this state at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerState {
    /// Human-readable state name (e.g. `"clock-gate"`, `"deep-sleep"`).
    pub name: &'static str,
    /// Residual power draw while parked in this state, in watts.
    pub power_w: f64,
    /// Time to enter the state, in seconds (drawn at blocking power).
    pub entry_s: f64,
    /// Time to leave the state, in seconds (drawn at blocking power).
    pub exit_s: f64,
}

impl PowerState {
    /// Round-trip transition latency: the minimum bubble length that can
    /// even reach the parked state.
    pub fn transition_s(&self) -> f64 {
        self.entry_s + self.exit_s
    }

    /// Joules saved by parking in this state for a bubble of `bubble_s`
    /// seconds, versus idling at `p_blocking_w` the whole time.
    ///
    /// Returns a non-positive number when the bubble cannot amortize the
    /// transition or the state draws at least blocking power.
    pub fn saved_j(&self, bubble_s: f64, p_blocking_w: f64) -> f64 {
        (p_blocking_w - self.power_w) * (bubble_s - self.transition_s())
    }
}

/// Why a [`PowerStateModel`] was rejected for a given [`GpuSpec`].
#[derive(Debug, Clone, PartialEq)]
pub enum PowerStateError {
    /// The model has no states; a planner asked for sleep support anyway.
    Empty,
    /// A state's residual draw is negative, NaN, or at least blocking
    /// power (sleeping would save nothing, or "generate" energy).
    InvalidPower {
        /// Offending state name.
        state: String,
        /// Its residual draw, in watts.
        power_w: f64,
        /// The device's blocking power the draw must stay under.
        blocking_w: f64,
    },
    /// A state's entry or exit latency is negative or non-finite.
    InvalidLatency {
        /// Offending state name.
        state: String,
        /// Entry latency, in seconds.
        entry_s: f64,
        /// Exit latency, in seconds.
        exit_s: f64,
    },
}

impl fmt::Display for PowerStateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PowerStateError::Empty => write!(f, "power-state model has no states"),
            PowerStateError::InvalidPower {
                state,
                power_w,
                blocking_w,
            } => write!(
                f,
                "power state {state:?} draws {power_w} W; must be in [0, {blocking_w}) W"
            ),
            PowerStateError::InvalidLatency {
                state,
                entry_s,
                exit_s,
            } => write!(
                f,
                "power state {state:?} has invalid entry/exit latency {entry_s}/{exit_s} s"
            ),
        }
    }
}

impl std::error::Error for PowerStateError {}

/// The menu of idle states a device can park in between computations.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PowerStateModel {
    /// Available idle states, in no particular order.
    pub states: Vec<PowerState>,
}

impl PowerStateModel {
    /// The default two-state menu for a device, scaled off its blocking
    /// power the same way the analytic power model scales off TDP:
    ///
    /// * `"clock-gate"` — light doze at 45% of blocking power, ~4 ms
    ///   round-trip; profitable in ordinary 1F1B bubbles.
    /// * `"deep-sleep"` — 12% of blocking power, 100 ms round-trip; only
    ///   pays off in the long bubbles of deep or imbalanced pipelines.
    pub fn default_for(gpu: &GpuSpec) -> Self {
        PowerStateModel {
            states: vec![
                PowerState {
                    name: "clock-gate",
                    power_w: 0.45 * gpu.blocking_w,
                    entry_s: 0.0015,
                    exit_s: 0.0025,
                },
                PowerState {
                    name: "deep-sleep",
                    power_w: 0.12 * gpu.blocking_w,
                    entry_s: 0.040,
                    exit_s: 0.060,
                },
            ],
        }
    }

    /// Check every state against the device's blocking power.
    ///
    /// An empty model is valid (it simply never sleeps); individual states
    /// must draw a finite `[0, blocking_w)` watts and have finite
    /// non-negative latencies.
    pub fn validate(&self, gpu: &GpuSpec) -> Result<(), PowerStateError> {
        for s in &self.states {
            if !s.power_w.is_finite() || s.power_w < 0.0 || s.power_w >= gpu.blocking_w {
                return Err(PowerStateError::InvalidPower {
                    state: s.name.to_string(),
                    power_w: s.power_w,
                    blocking_w: gpu.blocking_w,
                });
            }
            if !s.entry_s.is_finite() || !s.exit_s.is_finite() || s.entry_s < 0.0 || s.exit_s < 0.0
            {
                return Err(PowerStateError::InvalidLatency {
                    state: s.name.to_string(),
                    entry_s: s.entry_s,
                    exit_s: s.exit_s,
                });
            }
        }
        Ok(())
    }

    /// True when the model offers no states at all.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The most profitable state for a bubble of `bubble_s` seconds, with
    /// the joules it saves versus idling at `p_blocking_w`.
    ///
    /// Returns `None` when no state saves a strictly positive amount —
    /// either every transition is longer than the bubble, or the model is
    /// empty. Ties break toward the earlier state in the menu, keeping the
    /// choice deterministic across runs.
    pub fn best_for(&self, bubble_s: f64, p_blocking_w: f64) -> Option<(&PowerState, f64)> {
        let mut best: Option<(&PowerState, f64)> = None;
        for s in &self.states {
            let saved = s.saved_j(bubble_s, p_blocking_w);
            if saved <= 0.0 {
                continue;
            }
            match best {
                Some((_, b)) if b >= saved => {}
                _ => best = Some((s, saved)),
            }
        }
        best
    }
}
