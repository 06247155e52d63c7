//! Perseus core: the "iteration time–energy" Pareto frontier.
//!
//! This crate implements the paper's primary contribution (§4):
//!
//! * **Energy schedules** — planned time and energy for every computation
//!   in the pipeline DAG, realized as per-computation GPU frequencies.
//! * **Iterative frontier discovery** (Algorithm 1) — start from the
//!   minimum-energy schedule (`T*`, every computation at its min-energy
//!   duration), then repeatedly shorten the iteration time by the unit
//!   time `τ` with minimal energy increase until `T_min` is reached.
//! * **`GetNextPareto`** (Algorithm 2, Appendix D) — convert the pipeline
//!   DAG to edge-centric form, keep only critical computations, annotate
//!   each with its speed-up cost `e⁺` (∞ if it is already fastest) from
//!   the fitted exponential, and solve a minimum cut: forward cut edges
//!   speed up by τ, backward cut edges slow down by τ. The paper's Eq. 8
//!   lower bounds (the slowdown rewards `e⁻`) are relaxed to zero; a
//!   stretch pass after each step reclaims what they priced.
//! * **Energy accounting** (Eq. 3/4) — a pipeline's energy is computation
//!   energy plus `P_blocking` times all the time its GPUs spend blocked,
//!   including waiting for a straggler; the frontier is characterized
//!   against the T′-independent part (Eq. 4).
//! * **Straggler reaction** (§3.1) — `T_opt = min(T*, T′)` answered by a
//!   frontier lookup.
//!
//! # Examples
//!
//! ```
//! use perseus_core::{characterize, FrontierOptions, PlanContext};
//! use perseus_gpu::GpuSpec;
//! use perseus_pipeline::{PipelineBuilder, ScheduleKind};
//! use perseus_models::{zoo, min_imbalance_partition};
//!
//! let gpu = GpuSpec::a100_pcie();
//! let model = zoo::gpt3_xl(4);
//! let weights = model.fwd_latency_weights(&gpu);
//! let part = min_imbalance_partition(&weights, 4).unwrap();
//! let stages = model.stage_workloads(&part, &gpu).unwrap();
//! let pipe = PipelineBuilder::new(ScheduleKind::OneFOneB, 4, 8).build().unwrap();
//! let ctx = PlanContext::from_model_profiles(&pipe, &gpu, &stages).unwrap();
//! let frontier = characterize(&ctx, &FrontierOptions::default()).unwrap();
//! assert!(frontier.t_min() < frontier.t_star());
//! ```

mod cache;
mod context;
mod cut;
mod energy;
mod error;
mod fingerprint;
mod frontier;
mod ledger;
pub mod parallel;
mod persist;
mod planner;
mod sleep;

pub use cache::{PlanCache, PlanCacheStats};
pub use context::{model_profiles, CoreError, NodePlanInfo, PlanContext};
pub use cut::{
    get_next_pareto, get_next_pareto_arena, ArenaStats, CutOutcome, CutSolver, SolverArena,
};
pub use energy::{pipeline_energy, EnergySums, PipelineEnergy};
pub use error::Error;
pub use fingerprint::{content_hash, plan_fingerprint, PlanFingerprint};
pub use frontier::{
    characterize, EnergySchedule, FrontierOptions, FrontierPoint, FrontierSolver, ParetoFrontier,
    SolverStats,
};
pub use ledger::{
    attribute_schedule, attribute_schedule_with_sleep, AttributionSums, BloatLedger,
    EnergyBreakdown, EnergyKind, ScheduleAttribution,
};
pub use planner::{FrontierPlan, Perseus, PlanOutput, Planner};
pub use sleep::{insert_sleep, KareusPlanner, SleepPlan, SleepWindow};

#[cfg(test)]
mod tests;
