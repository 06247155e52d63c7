//! The flight recorder: a fixed-capacity ring of per-iteration
//! time-series samples, kept cheap enough to run always-on and dumped as
//! a JSON post-mortem when something goes wrong (a chaos fault fires, a
//! characterization panics and is contained).
//!
//! The ring is the only per-iteration history: an [`crate::ObsPipeline`]
//! owns one and records into it from [`crate::ObsPipeline::ingest`], so
//! every retained sample has also passed the detectors and the SLO
//! engine. Everyone else reads it.
//!
//! The recorder deliberately stores plain numbers rather than typed
//! energy structures: telemetry sits below the planner crates in the
//! dependency order, so the producer (the chaos harness, the server)
//! flattens its `EnergyBreakdown` into the sample at record time.

use std::collections::VecDeque;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::slo::json_number;

/// One iteration of the recorded time series.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IterationSample {
    /// Iteration index (monotone within one run).
    pub iteration: u64,
    /// Synchronized iteration time, seconds.
    pub sync_time_s: f64,
    /// Useful joules of the iteration (slack-filling alternative).
    pub useful_j: f64,
    /// Intrinsic-bloat joules (stage imbalance inside one pipeline).
    pub intrinsic_j: f64,
    /// Extrinsic-bloat joules (gradient-sync straggler wait).
    pub extrinsic_j: f64,
    /// Lowest frequency the deployed schedule assigns, MHz (0 when the
    /// schedule assigns no frequencies at all).
    pub freq_min_mhz: u32,
    /// Highest frequency the deployed schedule assigns, MHz.
    pub freq_max_mhz: u32,
    /// Whether the serving job was in degraded mode during the iteration.
    pub degraded: bool,
    /// Degraded frontier lookups this iteration (delta of the
    /// `degraded_lookups` counter, not its running total).
    pub degraded_lookups: u64,
    /// Faults injected during this iteration.
    pub faults: u64,
}

impl IterationSample {
    /// Total energy of the sample, joules.
    pub fn total_j(&self) -> f64 {
        self.useful_j + self.intrinsic_j + self.extrinsic_j
    }
}

/// Compact description of a [`FlightSnapshot`], cheap enough to embed in
/// every `JobStatus`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlightSummary {
    /// Samples currently retained in the ring.
    pub samples: usize,
    /// Samples evicted because the ring was full.
    pub dropped: u64,
    /// Retained samples recorded in degraded mode.
    pub degraded_samples: usize,
    /// Faults across the retained samples.
    pub faults: u64,
    /// Iteration index of the newest sample, if any.
    pub last_iteration: Option<u64>,
}

impl FlightSummary {
    /// Folds retained `samples` (oldest first) into a summary — the one
    /// place the ring's counts are computed.
    fn fold<'a>(samples: impl Iterator<Item = &'a IterationSample>, dropped: u64) -> FlightSummary {
        let mut summary = FlightSummary {
            dropped,
            ..FlightSummary::default()
        };
        for s in samples {
            summary.samples += 1;
            summary.degraded_samples += usize::from(s.degraded);
            summary.faults += s.faults;
            summary.last_iteration = Some(s.iteration);
        }
        summary
    }
}

/// A point-in-time copy of the recorder's ring, oldest sample first.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightSnapshot {
    /// Ring capacity of the recorder this was taken from.
    pub capacity: usize,
    /// Samples evicted before this snapshot was taken.
    pub dropped: u64,
    /// Retained samples, oldest first.
    pub samples: Vec<IterationSample>,
}

impl FlightSnapshot {
    /// An empty snapshot (what a fresh recorder returns).
    pub fn empty(capacity: usize) -> FlightSnapshot {
        FlightSnapshot {
            capacity,
            dropped: 0,
            samples: Vec::new(),
        }
    }

    /// Retained samples recorded while the job was degraded.
    pub fn degraded_samples(&self) -> usize {
        self.summary().degraded_samples
    }

    /// Sum of the per-sample degraded-lookup deltas — equals the
    /// `degraded_lookups` telemetry counter when the ring kept every
    /// iteration of the run.
    pub fn degraded_lookups(&self) -> u64 {
        self.samples.iter().map(|s| s.degraded_lookups).sum()
    }

    /// Faults across the retained samples.
    pub fn faults(&self) -> u64 {
        self.summary().faults
    }

    /// The compact summary of this snapshot.
    pub fn summary(&self) -> FlightSummary {
        FlightSummary::fold(self.samples.iter(), self.dropped)
    }

    /// Renders the snapshot as a self-contained JSON document — the
    /// post-mortem artifact [`FlightRecorder::dump_to`] writes. Numbers
    /// use the same stable formatting as the `/alerts` and `/slo` bodies
    /// (shortest roundtrip; non-finite values, which JSON cannot carry,
    /// clamp to `±1e308` and NaN to `0`), so the output is both
    /// deterministic and standards-compliant JSON.
    pub fn to_json(&self) -> String {
        let summary = self.summary();
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"capacity\": {},\n", self.capacity));
        out.push_str(&format!("  \"dropped\": {},\n", self.dropped));
        out.push_str(&format!(
            "  \"degraded_samples\": {},\n",
            summary.degraded_samples
        ));
        out.push_str(&format!("  \"faults\": {},\n", summary.faults));
        out.push_str("  \"samples\": [");
        for (i, s) in self.samples.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {{\"iteration\": {}, \"sync_time_s\": {}, \"useful_j\": {}, \
                 \"intrinsic_j\": {}, \"extrinsic_j\": {}, \"freq_min_mhz\": {}, \
                 \"freq_max_mhz\": {}, \"degraded\": {}, \"degraded_lookups\": {}, \
                 \"faults\": {}}}",
                s.iteration,
                json_number(s.sync_time_s),
                json_number(s.useful_j),
                json_number(s.intrinsic_j),
                json_number(s.extrinsic_j),
                s.freq_min_mhz,
                s.freq_max_mhz,
                s.degraded,
                s.degraded_lookups,
                s.faults,
            ));
        }
        if !self.samples.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// A fixed-capacity per-iteration flight recorder.
///
/// Recording is a short critical section on a ring buffer (no
/// allocation once the ring is warm); snapshots copy the ring out, and
/// summaries fold it in place. Only the owning [`crate::ObsPipeline`]
/// records; every public method reads.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    ring: Mutex<Ring>,
    dumps: AtomicU64,
}

/// The retained samples plus the count evicted to make room for them,
/// behind one lock so the two always agree.
#[derive(Debug)]
struct Ring {
    samples: VecDeque<IterationSample>,
    dropped: u64,
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` samples (minimum 1).
    pub(crate) fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            capacity,
            ring: Mutex::new(Ring {
                samples: VecDeque::with_capacity(capacity),
                dropped: 0,
            }),
            dumps: AtomicU64::new(0),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Post-mortem dumps written so far via [`FlightRecorder::dump_to`].
    pub fn dumps(&self) -> u64 {
        self.dumps.load(Ordering::Relaxed)
    }

    /// Records one iteration, evicting the oldest sample when full.
    pub(crate) fn record(&self, sample: IterationSample) {
        let mut ring = self.ring.lock();
        if ring.samples.len() == self.capacity {
            ring.samples.pop_front();
            ring.dropped += 1;
        }
        ring.samples.push_back(sample);
    }

    /// Copies the ring out, oldest sample first.
    pub fn snapshot(&self) -> FlightSnapshot {
        let ring = self.ring.lock();
        FlightSnapshot {
            capacity: self.capacity,
            dropped: ring.dropped,
            samples: ring.samples.iter().copied().collect(),
        }
    }

    /// The summary of the current ring contents, folded under the lock
    /// without copying the ring.
    pub fn summary(&self) -> FlightSummary {
        let ring = self.ring.lock();
        FlightSummary::fold(ring.samples.iter(), ring.dropped)
    }

    /// Writes the current snapshot as a JSON post-mortem to `path`,
    /// creating parent directories as needed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn dump_to(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.snapshot().to_json().as_bytes())?;
        self.dumps.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}
