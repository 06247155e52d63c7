//! Pipeline energy accounting (paper Eq. 3).
//!
//! One pipeline's iteration energy is:
//!
//! 1. computation energy `Σ e_i(f_i)`,
//! 2. `P_blocking` × the time GPUs block between computations
//!    (`N·T − Σ t_i`),
//! 3. `P_blocking` × the time all `N` GPUs wait for the straggler
//!    (`N · (T' − T)`), plus energy of fixed-time operations.
//!
//! Only the last term depends on the straggler time `T'`, so Eq. 3 is
//! evaluated in two halves: [`EnergySums`] walks the schedule once for
//! everything `T'`-independent, and [`EnergySums::at`] adds the blocking
//! up to the sync time in O(`n_stages`).

use perseus_dag::NodeId;
use perseus_pipeline::{node_start_times, PipeNode, PipelineDag};

use crate::sleep::SleepPlan;

/// Energy breakdown of one pipeline iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineEnergy {
    /// The pipeline's own makespan `T`, seconds.
    pub iter_time_s: f64,
    /// End of the iteration including straggler wait: `max(T, T')`.
    pub sync_time_s: f64,
    /// Computation energy `Σ e_i`, joules.
    pub compute_j: f64,
    /// Energy of fixed-time operations (data loading, P2P), joules.
    pub fixed_j: f64,
    /// Blocking energy within the pipeline and while waiting for the
    /// straggler, joules.
    pub blocking_j: f64,
}

impl PipelineEnergy {
    /// Total energy of the iteration, joules.
    pub fn total_j(&self) -> f64 {
        self.compute_j + self.fixed_j + self.blocking_j
    }

    /// Average power over the synchronized iteration, watts per pipeline.
    pub fn avg_power_w(&self) -> f64 {
        self.total_j() / self.sync_time_s
    }
}

/// The `T'`-independent half of Eq. 3 for one schedule: its makespan,
/// each stage's busy time, its computation and fixed-op energy, and the
/// joules an optional sleep plan saves. Built by one walk of the
/// schedule; [`EnergySums::at`] then prices the iteration at any
/// straggler time without walking it again.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergySums {
    makespan_s: f64,
    busy_s: Vec<f64>,
    compute_j: f64,
    fixed_j: f64,
    p_blocking_w: f64,
    /// Joules the sleep plan saves; 0 without one.
    sleep_saved_j: f64,
}

impl EnergySums {
    /// Sums a pipeline whose node durations and energies are given by
    /// `dur` / `energy` (realized or planned). Each of the `n_stages` GPUs
    /// blocks at `p_blocking_w` whenever it is not executing one of its
    /// own nodes.
    pub(crate) fn new(
        pipe: &PipelineDag,
        dur: impl Fn(NodeId, &PipeNode) -> f64,
        energy: impl Fn(NodeId, &PipeNode) -> f64,
        p_blocking_w: f64,
    ) -> EnergySums {
        let (_, makespan_s) = node_start_times(&pipe.dag, &dur);
        let mut busy_s = vec![0.0f64; pipe.n_stages];
        let mut compute_j = 0.0;
        let mut fixed_j = 0.0;
        for id in pipe.dag.node_ids() {
            let node = pipe.dag.node(id);
            match node {
                PipeNode::Comp(c) => {
                    busy_s[c.stage] += dur(id, node);
                    compute_j += energy(id, node);
                }
                PipeNode::Fixed { stage, .. } => {
                    busy_s[*stage] += dur(id, node);
                    fixed_j += energy(id, node);
                }
                _ => {}
            }
        }
        EnergySums {
            makespan_s,
            busy_s,
            compute_j,
            fixed_j,
            p_blocking_w,
            sleep_saved_j: 0.0,
        }
    }

    /// These sums with `sleep`'s windows overlaid: each window replaces
    /// its slice of `P_blocking` idling with the state's actual draw, so
    /// every evaluation's `blocking_j` shrinks by the plan's savings.
    pub(crate) fn with_sleep(mut self, sleep: Option<&SleepPlan>) -> EnergySums {
        self.sleep_saved_j = sleep.map_or(0.0, |plan| plan.saved_j(self.p_blocking_w));
        self
    }

    /// Evaluates Eq. 3 at straggler iteration time `t_prime` (`None` = no
    /// straggler, so `sync_time = T`).
    pub fn at(&self, t_prime: Option<f64>) -> PipelineEnergy {
        let makespan = self.makespan_s;
        let sync = t_prime.map_or(makespan, |t| t.max(makespan));
        let blocking_time: f64 = self.busy_s.iter().map(|b| (sync - b).max(0.0)).sum();
        PipelineEnergy {
            iter_time_s: makespan,
            sync_time_s: sync,
            compute_j: self.compute_j,
            fixed_j: self.fixed_j,
            // Subtracting 0 J leaves every value's bits as they were, so
            // a schedule without a sleep plan prices as it always did.
            blocking_j: self.p_blocking_w * blocking_time - self.sleep_saved_j,
        }
    }
}

/// Evaluates Eq. 3 for a pipeline whose node durations and energies are
/// given by `dur` / `energy` (realized or planned): its [`EnergySums`]
/// evaluated [`at`](EnergySums::at) `t_prime`.
///
/// `t_prime` is the straggler's iteration time; pass `None` when there is
/// no straggler (then `sync_time = T`). Each of the `n_stages` GPUs blocks
/// whenever it is not executing one of its own nodes.
pub fn pipeline_energy(
    pipe: &PipelineDag,
    dur: impl Fn(NodeId, &PipeNode) -> f64,
    energy: impl Fn(NodeId, &PipeNode) -> f64,
    p_blocking_w: f64,
    t_prime: Option<f64>,
) -> PipelineEnergy {
    EnergySums::new(pipe, dur, energy, p_blocking_w).at(t_prime)
}
