//! Data-parallel cluster emulation (paper §6.3).
//!
//! Large-scale evaluation runs `D` replicas of the same pipeline in a
//! synchronous data-parallel fashion: gradients synchronize at the end of
//! every iteration, so *every* pipeline's effective iteration time is the
//! straggler's `T'`. This crate emulates that setting on top of the
//! profiling-grounded GPU model, reproducing the paper's accounting:
//!
//! * per-pipeline energy via Eq. 3 (computation + blocking + straggler
//!   wait),
//! * policies: all-max (the baseline), Perseus (frontier lookup at
//!   `T_opt = min(T*, T')`), EnvPipe (intrinsic-only), ZeusGlobal (best
//!   global cap fitting the deadline), and the §2.4 min-energy oracle,
//! * straggler injection: thermal/power throttling (frequency cap), I/O
//!   stalls (constant-time inflation), or a generic slowdown degree,
//! * the strong-scaling configurations of Table 5.
//!
//! # Examples
//!
//! ```no_run
//! use perseus_cluster::{ClusterConfig, Emulator, Policy};
//! use perseus_gpu::GpuSpec;
//! use perseus_models::zoo;
//! use perseus_pipeline::ScheduleKind;
//!
//! let config = ClusterConfig {
//!     model: zoo::gpt3_xl(4),
//!     gpu: GpuSpec::a100_pcie(),
//!     n_stages: 4,
//!     n_microbatches: 8,
//!     n_pipelines: 4,
//!     tensor_parallel: 1,
//!     schedule: ScheduleKind::OneFOneB,
//!     frontier: Default::default(),
//! };
//! let emu = Emulator::new(config).unwrap();
//! let savings = emu.savings(Policy::Perseus, Some(1.2)).unwrap();
//! assert!(savings.savings_pct > 0.0);
//! ```

mod emulator;
mod run;
mod scaling;

pub use emulator::{
    ClusterAttribution, ClusterConfig, ClusterReport, Emulator, EmulatorError, Policy, Savings,
    StragglerCause,
};
pub use run::{
    simulate_run, simulate_run_observed, simulate_run_with_ledger, thermal_cycle_trace,
    IterationRecord, RunConfig, RunSummary, StragglerTimeline, TraceEvent,
};
pub use scaling::{strong_scaling_table5, ScalingConfig};

#[cfg(test)]
mod tests;
