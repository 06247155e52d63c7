//! Pipeline-parallel schedules and computation-DAG construction.
//!
//! Perseus specifies a training job by the DAG of one iteration (§3.2):
//! nodes are forward/backward computations of each (stage, microbatch) and
//! edges are dependencies. This crate generates per-stage instruction
//! programs for the schedules named in §4.4 — 1F1B, GPipe, and early
//! recomputation 1F1B — and lowers them to a [`perseus_dag::Dag`] whose
//! longest path is the iteration time.
//!
//! Constant-time operations (§4.4): data loading and P2P communication can
//! be injected as fixed-duration nodes with a single "frequency choice",
//! which the optimizer treats as unmodifiable.
//!
//! # Examples
//!
//! ```
//! use perseus_pipeline::{PipelineBuilder, ScheduleKind};
//!
//! let pipe = PipelineBuilder::new(ScheduleKind::OneFOneB, 4, 8).build().unwrap();
//! // 4 stages × 8 microbatches × {forward, backward}:
//! assert_eq!(pipe.computations().count(), 64);
//! ```

mod builder;
mod persist;
mod render;
mod schedule;

pub use builder::{DepKind, PipeNode, PipelineBuilder, PipelineDag, ScheduleError};
pub use render::{node_schedule_gaps, node_start_times, render_timeline};
pub use schedule::{CompKind, Computation, Instruction, OpKey, ScheduleKind};

#[cfg(test)]
mod tests;
