//! Perseus server and client (paper §5, Table 2).
//!
//! The paper splits Perseus into a framework-/hardware-agnostic **server**
//! and a framework-integrated, device-specific **client**:
//!
//! * the server pre-characterizes the iteration time–energy Pareto
//!   frontier, caches it in a lookup table indexed by the straggler
//!   iteration time `T'`, and deploys Pareto-optimal energy schedules;
//! * the client profiles computations online (`profiler.begin/end`) and
//!   realizes deployed schedules by setting the GPU's SM frequency
//!   asynchronously right before each forward/backward runs
//!   (`controller.set_speed`).
//!
//! The paper's HTTP/RPC transport is replaced by in-process calls — the
//! API surface (Table 2) and the control flow (profile → characterize →
//! deploy → straggler notify → instant re-deploy) are preserved. Time is
//! the simulated clock of [`perseus_gpu::SimGpu`], advanced explicitly, so
//! the straggler `delay` semantics are exactly testable.
//!
//! Every [`PerseusServer`] is built from one [`ServerConfig`], fixed for
//! its lifetime: [`PerseusServer::new`] builds an in-memory server,
//! [`PerseusServer::open`] a durable one that additionally journals every
//! state mutation to a checksummed write-ahead log and snapshots
//! periodically, so a crash-and-restart reconstructs bit-identical state
//! (see the `store` module). Opening is recovery.

//! At fleet scale, the [`FleetServer`] shards job state across many
//! [`PerseusServer`]s by consistent hashing, bounds in-flight work per
//! shard, rate-limits tenants, and shares one fingerprint-keyed
//! [`perseus_core::PlanCache`] across every shard so structurally
//! identical jobs skip the solver (see the `fleet` module docs).

mod client;
mod fleet;
mod replica;
mod server;
mod store;

pub use client::{
    AsyncFrequencyController, ClientConfig, ClientSession, DecorrelatedJitter, JobClient,
};
pub use fleet::{FleetConfig, FleetServer, FleetStats, TenantId};
pub use replica::{FollowerServer, PromotionReport, ReplicationStats, Replicator, DEFAULT_MAX_LAG};
pub use server::{
    ChaosStats, CharacterizeTicket, Deployment, FaultInjector, JobSpec, JobStatus, PerseusServer,
    Role, ServerConfig, ServerError, SubmissionFault, DEFAULT_LIVENESS_TIMEOUT, DRIFT_THRESHOLD,
};
pub use store::DurabilityStats;

#[cfg(test)]
mod tests;
