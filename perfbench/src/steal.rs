//! CPU time the hypervisor takes from this VM, and timings kept apart
//! from it.
//!
//! On a shared host the hypervisor at times runs other guests on this
//! VM's CPUs (the `steal` column of `/proc/stat`). The program then does
//! not run at all, and whatever is timed meanwhile measures the host, not
//! the code; such bursts can double a run's wall time. Workloads time
//! their operations in slices and drop the slices during which more than
//! [`MAX_STEAL_SHARE`] of the VM's CPU time was stolen.

use std::time::Instant;

/// Share of the VM's CPU time stolen during a slice above which the
/// slice's timings are dropped.
pub const MAX_STEAL_SHARE: f64 = 0.05;

/// `/proc/stat` clock ticks per second (`USER_HZ`).
const TICKS_PER_S: f64 = 100.0;

/// CPU seconds stolen from this VM since boot, summed over its CPUs.
fn stolen_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
    let ticks: f64 = cpu.split_whitespace().nth(7)?.parse().ok()?;
    Some(ticks / TICKS_PER_S)
}

/// One slice of timed operations.
pub struct Slice {
    start: Instant,
    stolen: Option<f64>,
}

impl Slice {
    /// Starts a slice now.
    pub fn start() -> Slice {
        Slice {
            start: Instant::now(),
            stolen: stolen_s(),
        }
    }

    /// Whether the host left the VM's CPUs alone since the slice started
    /// (always true where `/proc/stat` has no steal column).
    pub fn clean(&self) -> bool {
        let (Some(before), Some(after)) = (self.stolen, stolen_s()) else {
            return true;
        };
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        after - before <= MAX_STEAL_SHARE * self.start.elapsed().as_secs_f64() * cpus
    }
}

/// Which slices of a run count: the clean ones, unless fewer than a
/// quarter of them were clean, in which case every slice counts.
#[derive(Debug, Default, Clone, Copy)]
pub struct Verdicts {
    slices: usize,
    clean: usize,
}

impl Verdicts {
    /// Records one closed slice.
    pub fn record(&mut self, clean: bool) {
        self.slices += 1;
        self.clean += usize::from(clean);
    }

    /// Whether statistics use the clean slices only.
    pub fn use_clean(&self) -> bool {
        self.clean > 0 && 4 * self.clean >= self.slices
    }

    /// `"<clean> of <slices> slices"`, for the report.
    pub fn describe(&self) -> String {
        format!(
            "{} of {} slices clean (steal <= {:.0}%){}",
            self.clean,
            self.slices,
            MAX_STEAL_SHARE * 100.0,
            if self.use_clean() { "" } else { "; using all" }
        )
    }
}

/// Timing samples of one kind, collected slice by slice.
#[derive(Debug, Default)]
pub struct Timings {
    all: Vec<f64>,
    clean: Vec<f64>,
    open: Vec<f64>,
}

impl Timings {
    /// Adds a sample to the open slice.
    pub fn push(&mut self, s: f64) {
        self.open.push(s);
    }

    /// Closes the open slice.
    pub fn close(&mut self, clean: bool) {
        if clean {
            self.clean.extend_from_slice(&self.open);
        }
        self.all.append(&mut self.open);
    }

    /// The samples statistics use under `verdicts`.
    pub fn kept(&self, verdicts: &Verdicts) -> &[f64] {
        if verdicts.use_clean() {
            &self.clean
        } else {
            &self.all
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stolen_slices_are_dropped_unless_most_are_stolen() {
        let mut t = Timings::default();
        let mut v = Verdicts::default();
        for (clean, xs) in [(true, [1.0, 2.0]), (false, [9.0, 9.0]), (true, [3.0, 4.0])] {
            for x in xs {
                t.push(x);
            }
            t.close(clean);
            v.record(clean);
        }
        assert!(v.use_clean());
        assert_eq!(t.kept(&v), &[1.0, 2.0, 3.0, 4.0]);

        let mut stolen = Verdicts::default();
        for clean in [false, false, false, false, true] {
            stolen.record(clean);
        }
        assert!(!stolen.use_clean(), "one clean slice in five is too few");
        assert_eq!(t.kept(&stolen).len(), 6);
        assert!(!Verdicts::default().use_clean());
    }
}
