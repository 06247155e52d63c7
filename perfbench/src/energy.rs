//! Energy and iteration time of deployed plans against the
//! all-max-frequency plan at the same iteration time.

use perseus_baselines::AllMaxFreq;
use perseus_core::{CoreError, EnergySchedule, PlanContext, Planner, SleepPlan};

/// Running sums of deployed and all-max energy and iteration time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyTally {
    /// Joules of the deployed plans.
    pub deployed_j: f64,
    /// Joules of the all-max plans over the same iterations.
    pub allmax_j: f64,
    /// Seconds of iteration time under the deployed plans.
    pub deployed_s: f64,
    /// Seconds of iteration time under the all-max plans.
    pub allmax_s: f64,
}

impl EnergyTally {
    /// Adds one comparison.
    pub fn add(&mut self, deployed_j: f64, allmax_j: f64, deployed_s: f64, allmax_s: f64) {
        self.deployed_j += deployed_j;
        self.allmax_j += allmax_j;
        self.deployed_s += deployed_s;
        self.allmax_s += allmax_s;
    }

    /// Energy saved versus all-max, percent.
    pub fn saved_pct(&self) -> f64 {
        (1.0 - self.deployed_j / self.allmax_j) * 100.0
    }

    /// Deployed iteration time as a percentage of all-max iteration time:
    /// 100 means no throughput loss.
    pub fn iter_time_pct(&self) -> f64 {
        self.deployed_s / self.allmax_s * 100.0
    }

    /// Whether both percentages are defined.
    pub fn is_valid(&self) -> bool {
        self.allmax_j > 0.0 && self.allmax_s > 0.0 && self.deployed_j.is_finite()
    }
}

/// The all-max-frequency schedule of `ctx`'s pipeline.
///
/// # Errors
///
/// Planning failures of the baseline.
pub fn allmax_schedule(ctx: &PlanContext<'_>) -> Result<EnergySchedule, CoreError> {
    Ok(AllMaxFreq.plan(ctx)?.select(None).clone())
}

/// Adds one deployed schedule (with its sleep plan) to `tally`, priced
/// against `allmax` at the same synchronization time: the straggler's
/// `t_prime` when there is one, else the slower of the two schedules.
pub fn add_deployment(
    tally: &mut EnergyTally,
    ctx: &PlanContext<'_>,
    allmax: &EnergySchedule,
    schedule: &EnergySchedule,
    sleep: Option<&SleepPlan>,
    t_prime: Option<f64>,
) {
    let floor = t_prime.unwrap_or(0.0);
    let sync = schedule.time_s.max(allmax.time_s).max(floor);
    tally.add(
        schedule
            .energy_report_with_sleep(ctx, Some(sync), sleep)
            .total_j(),
        allmax.energy_report(ctx, Some(sync)).total_j(),
        schedule.time_s.max(floor),
        allmax.time_s.max(floor),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use perseus_core::{FrontierOptions, FrontierSolver};
    use perseus_gpu::GpuSpec;
    use perseus_models::{min_imbalance_partition, zoo};
    use perseus_pipeline::{PipelineBuilder, ScheduleKind};

    #[test]
    fn percentages_from_sums() {
        let mut t = EnergyTally::default();
        t.add(80.0, 100.0, 1.0, 1.0);
        t.add(70.0, 100.0, 1.02, 1.0);
        assert!((t.saved_pct() - 25.0).abs() < 1e-12);
        assert!((t.iter_time_pct() - 101.0).abs() < 1e-12);
        assert!(t.is_valid());
        assert!(!EnergyTally::default().is_valid());
    }

    #[test]
    fn allmax_against_itself_saves_nothing() {
        let gpu = GpuSpec::a100_pcie();
        let model = zoo::gpt3_xl(4);
        let part = min_imbalance_partition(&model.fwd_latency_weights(&gpu), 2).unwrap();
        let stages = model.stage_workloads(&part, &gpu).unwrap();
        let pipe = PipelineBuilder::new(ScheduleKind::OneFOneB, 2, 4)
            .build()
            .unwrap();
        let ctx = PlanContext::from_model_profiles(&pipe, &gpu, &stages).unwrap();
        let allmax = allmax_schedule(&ctx).unwrap();

        let mut same = EnergyTally::default();
        add_deployment(&mut same, &ctx, &allmax, &allmax, None, None);
        assert_eq!(same.saved_pct(), 0.0);
        assert_eq!(same.iter_time_pct(), 100.0);

        // The fastest frontier point removes intrinsic bloat only: less
        // energy, no longer iteration.
        let frontier = FrontierSolver::new(&pipe)
            .characterize(&ctx, &FrontierOptions::default())
            .unwrap();
        let mut perseus = EnergyTally::default();
        add_deployment(
            &mut perseus,
            &ctx,
            &allmax,
            &frontier.fastest().schedule,
            None,
            None,
        );
        assert!(perseus.saved_pct() > 0.0);
        assert!(perseus.iter_time_pct() <= 100.0 + 1e-9);

        // Under a straggler both sides synchronize on T'.
        let t_prime = allmax.time_s * 1.3;
        let mut slow = EnergyTally::default();
        let point = frontier.lookup(t_prime);
        add_deployment(
            &mut slow,
            &ctx,
            &allmax,
            &point.schedule,
            None,
            Some(t_prime),
        );
        assert_eq!(slow.deployed_s, t_prime);
        assert_eq!(slow.allmax_s, t_prime);
        assert!(slow.saved_pct() > perseus.saved_pct());
    }
}
