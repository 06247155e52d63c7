//! Deterministic fault injection for the Perseus control plane.
//!
//! Energy-optimal schedules are only worth deploying if the system
//! serving them survives the failures production clusters actually see:
//! lost RPC traffic, crashing workers, datacenter frequency caps, skewed
//! clocks, and stragglers that come and go (§2.3). This crate turns those
//! failures into a *seeded, replayable* test dimension:
//!
//! * [`FaultPlan`] derives a deterministic event schedule from a `u64`
//!   seed (seed 0 = no faults, byte-identical to a fault-free run);
//! * [`run_chaos`] replays a plan against a cluster
//!   [`Emulator`](perseus_cluster::Emulator) and a live
//!   [`PerseusServer`](perseus_server::PerseusServer) in lockstep,
//!   through the retrying [`JobClient`](perseus_server::JobClient);
//! * [`ChaosReport`] surfaces what was absorbed — every scheduled fault
//!   must be injected, every straggler notification answered, and
//!   `degraded_lookups` bounds how stale the served frontiers got.
//!
//! # Examples
//!
//! ```no_run
//! use perseus_chaos::{run_chaos, ChaosConfig};
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
//! let mut emu = Emulator::new(config).unwrap();
//! let cfg = ChaosConfig { seed: 42, iterations: 100, ..Default::default() };
//! let report = run_chaos(&mut emu, &cfg).unwrap();
//! assert_eq!(report.faults_injected, report.faults_scheduled);
//! ```

mod harness;
mod plan;

pub use harness::{run_chaos, ChaosConfig, ChaosError, ChaosReport, ScriptedInjector};
pub use plan::{FaultEvent, FaultKind, FaultPlan};

#[cfg(test)]
mod tests;
