//! Output checks and exact byte counts over the program's results.

use std::mem::size_of;

use perseus_core::{ParetoFrontier, SleepWindow};
use perseus_gpu::FreqMHz;
use perseus_server::{Deployment, ServerError};

use crate::report::Pass;

/// Field-by-field bitwise comparison of two frontiers; describes the first
/// difference, if any.
pub fn frontier_divergence(a: &ParetoFrontier, b: &ParetoFrontier) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("point counts differ: {} vs {}", a.len(), b.len()));
    }
    let same = |x: &[f64], y: &[f64]| {
        x.len() == y.len() && x.iter().zip(y).all(|(u, v)| u.to_bits() == v.to_bits())
    };
    for (i, (pa, pb)) in a.points().iter().zip(b.points()).enumerate() {
        let (sa, sb) = (&pa.schedule, &pb.schedule);
        if pa.planned_time_s.to_bits() != pb.planned_time_s.to_bits()
            || pa.planned_energy_j.to_bits() != pb.planned_energy_j.to_bits()
            || sa.time_s.to_bits() != sb.time_s.to_bits()
            || sa.compute_j.to_bits() != sb.compute_j.to_bits()
            || sa.freqs != sb.freqs
            || !same(&sa.planned, &sb.planned)
            || !same(&sa.realized_dur, &sb.realized_dur)
            || !same(&sa.realized_energy, &sb.realized_energy)
        {
            return Some(format!("point {i} differs"));
        }
    }
    None
}

/// Whether planned times ascend and planned energies never rise along the
/// frontier.
pub fn frontier_is_monotone(f: &ParetoFrontier) -> bool {
    !f.is_empty()
        && f.points().windows(2).all(|w| {
            w[1].planned_time_s > w[0].planned_time_s
                && w[1].planned_energy_j <= w[0].planned_energy_j
        })
}

/// Bytes of the per-instruction vectors (and sleep windows) a deployment
/// carries: what every returned [`Deployment`] copies.
pub fn deployment_bytes(d: &Deployment) -> u64 {
    let s = &d.schedule;
    let vectors = s.planned.len() * size_of::<f64>()
        + s.freqs.len() * size_of::<Option<FreqMHz>>()
        + s.realized_dur.len() * size_of::<f64>()
        + s.realized_energy.len() * size_of::<f64>();
    let sleep = d.sleep.as_ref().map_or(0, |p| {
        p.per_stage
            .iter()
            .map(|w| w.len() * size_of::<SleepWindow>())
            .sum()
    });
    (vectors + sleep) as u64
}

/// Counts one straggler notification sent with delay 0, which must come
/// back with the deployment it issued; checks that the deployment
/// answers `T' = t_min × degree` with a planned time within `T'`.
pub fn reaction(
    pass: &mut Pass,
    r: Result<Option<Deployment>, ServerError>,
    t_min: Option<f64>,
    degree: f64,
    job: &str,
) -> Option<Deployment> {
    let Some(dep) = pass.result(r, "set_straggler")? else {
        pass.check(false, || {
            format!("{job}: set_straggler with delay 0 deployed nothing")
        });
        return None;
    };
    let ok = t_min.is_some_and(|t| dep.t_prime.to_bits() == (t * degree).to_bits())
        && dep.planned_time_s <= dep.t_prime;
    pass.check(ok, || format!("{job}: reaction answered the wrong T'"));
    Some(dep)
}

/// Whether a replication sync installed a checkpoint: the follower's
/// shipped watermark moved further than the records the sync returned,
/// so the gap was bridged by a full-state transfer.
pub fn is_checkpoint_sync(shipped_before: u64, shipped_after: u64, records: u64) -> bool {
    shipped_after.saturating_sub(shipped_before) > records
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_sync_detection() {
        assert!(!is_checkpoint_sync(10, 15, 5), "plain tail shipping");
        assert!(!is_checkpoint_sync(10, 10, 0), "nothing to ship");
        assert!(
            is_checkpoint_sync(10, 80, 3),
            "checkpoint at 77, then 3 records"
        );
        assert!(
            is_checkpoint_sync(0, 64, 0),
            "checkpoint with an empty tail"
        );
    }

    #[test]
    fn frontier_checks() {
        use perseus_core::{FrontierOptions, FrontierSolver, PlanContext};
        use perseus_gpu::GpuSpec;
        use perseus_models::{min_imbalance_partition, zoo};
        use perseus_pipeline::{PipelineBuilder, ScheduleKind};

        let gpu = GpuSpec::a100_pcie();
        let model = zoo::bert_huge(8);
        let part = min_imbalance_partition(&model.fwd_latency_weights(&gpu), 2).unwrap();
        let stages = model.stage_workloads(&part, &gpu).unwrap();
        let pipe = PipelineBuilder::new(ScheduleKind::OneFOneB, 2, 4)
            .build()
            .unwrap();
        let ctx = PlanContext::from_model_profiles(&pipe, &gpu, &stages).unwrap();
        let solve = || {
            FrontierSolver::new(&pipe)
                .characterize(&ctx, &FrontierOptions::default())
                .unwrap()
        };
        let (a, b) = (solve(), solve());
        assert!(frontier_is_monotone(&a));
        assert_eq!(frontier_divergence(&a, &b), None);
        let shorter = ParetoFrontier::from_points(a.points()[1..].to_vec());
        assert!(frontier_divergence(&a, &shorter).is_some());

        let point = a.fastest();
        let d = Deployment {
            version: 1,
            t_prime: a.t_min(),
            planned_time_s: point.planned_time_s,
            schedule: point.schedule.clone(),
            sleep: None,
        };
        let n = point.schedule.planned.len() as u64;
        assert_eq!(deployment_bytes(&d), n * 32);
    }
}
