//! What every workload shares: run settings and the setup clock.

use std::path::PathBuf;
use std::time::Instant;

/// Settings of one pass over a workload.
pub struct RunConfig {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Scratch directory for durable state, removed after the run.
    pub work_dir: PathBuf,
    /// Process start: the first setup of the first pass is timed from
    /// here, so `setup_s` covers everything before the first timed
    /// operation.
    pub started: Option<Instant>,
}

/// When setup `k` starts its clock: the first setup of the first pass
/// counts from process start.
pub fn setup_clock(cfg: &RunConfig, k: usize) -> Instant {
    match (k, cfg.started) {
        (0, Some(started)) => started,
        _ => Instant::now(),
    }
}

/// Seconds to microseconds.
pub fn us(s: f64) -> f64 {
    s * 1e6
}

/// Seconds to milliseconds.
pub fn ms(s: f64) -> f64 {
    s * 1e3
}
