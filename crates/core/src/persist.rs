//! [`Persist`] implementations for the frontier types — the heart of a
//! server snapshot. A serialized [`ParetoFrontier`] carries every realized
//! schedule verbatim (planned durations, assigned frequencies, realized
//! time/energy), so recovery restores the exact curve the crashed server
//! had characterized without re-running the solver.

use perseus_gpu::FreqMHz;
use perseus_store::{ByteReader, ByteWriter, Persist, StoreError};

use crate::frontier::{EnergySchedule, FrontierOptions, FrontierPoint, ParetoFrontier};
use crate::sleep::{SleepPlan, SleepWindow};

impl Persist for EnergySchedule {
    fn encode(&self, w: &mut ByteWriter) {
        self.planned.encode(w);
        self.freqs.encode(w);
        self.realized_dur.encode(w);
        self.realized_energy.encode(w);
        w.put_f64(self.time_s);
        w.put_f64(self.compute_j);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        let planned = Vec::<f64>::decode(r)?;
        let freqs = Vec::<Option<FreqMHz>>::decode(r)?;
        let realized_dur = Vec::<f64>::decode(r)?;
        let realized_energy = Vec::<f64>::decode(r)?;
        let n = planned.len();
        if freqs.len() != n || realized_dur.len() != n || realized_energy.len() != n {
            return Err(StoreError::corrupt(
                "energy schedule per-node vectors disagree in length",
            ));
        }
        Ok(EnergySchedule {
            planned,
            freqs,
            realized_dur,
            realized_energy,
            time_s: r.get_f64()?,
            compute_j: r.get_f64()?,
        })
    }
}

impl Persist for FrontierPoint {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_f64(self.planned_time_s);
        w.put_f64(self.planned_energy_j);
        self.schedule.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        Ok(FrontierPoint {
            planned_time_s: r.get_f64()?,
            planned_energy_j: r.get_f64()?,
            schedule: EnergySchedule::decode(r)?,
        })
    }
}

impl Persist for ParetoFrontier {
    fn encode(&self, w: &mut ByteWriter) {
        // Same bytes as `Vec<FrontierPoint>::encode`, without cloning
        // every schedule into a temporary vector first.
        let points = self.points();
        w.put_usize(points.len());
        for p in points {
            p.encode(w);
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        let points = Vec::<FrontierPoint>::decode(r)?;
        // `from_points` panics on these invariants; decode must refuse
        // malformed bytes instead of aborting the process.
        if points.is_empty() {
            return Err(StoreError::corrupt("frontier has no points"));
        }
        if !points
            .windows(2)
            .all(|p| p[0].planned_time_s < p[1].planned_time_s)
        {
            return Err(StoreError::corrupt(
                "frontier points do not ascend strictly in planned time",
            ));
        }
        Ok(ParetoFrontier::from_points(points))
    }
}

impl Persist for SleepWindow {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_f64(self.start_s);
        w.put_f64(self.end_s);
        w.put_f64(self.state_power_w);
        w.put_f64(self.entry_s);
        w.put_f64(self.exit_s);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        let window = SleepWindow {
            start_s: r.get_f64()?,
            end_s: r.get_f64()?,
            state_power_w: r.get_f64()?,
            entry_s: r.get_f64()?,
            exit_s: r.get_f64()?,
        };
        // `>=` written via `partial_cmp` so a NaN endpoint is rejected too.
        let ordered = matches!(
            window.end_s.partial_cmp(&window.start_s),
            Some(std::cmp::Ordering::Greater | std::cmp::Ordering::Equal)
        );
        if !ordered {
            return Err(StoreError::corrupt("sleep window ends before it starts"));
        }
        Ok(window)
    }
}

impl Persist for SleepPlan {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(self.per_stage.len());
        for stage in &self.per_stage {
            stage.encode(w);
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        let n = r.get_len(8)?;
        let mut per_stage = Vec::with_capacity(n);
        for _ in 0..n {
            per_stage.push(Vec::<SleepWindow>::decode(r)?);
        }
        Ok(SleepPlan { per_stage })
    }
}

impl Persist for FrontierOptions {
    fn encode(&self, w: &mut ByteWriter) {
        self.tau_s.encode(w);
        w.put_usize(self.max_iters);
        w.put_bool(self.stretch);
        w.put_bool(self.warm_start);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        Ok(FrontierOptions {
            tau_s: Persist::decode(r)?,
            max_iters: r.get_usize()?,
            stretch: r.get_bool()?,
            warm_start: r.get_bool()?,
        })
    }
}
