//! The streaming observability pipeline: per-iteration samples in;
//! flight record, alerts and SLO budgets out.
//!
//! Data flow (DESIGN.md §5e):
//!
//! ```text
//! IterationSample ─▶ ObsPipeline::ingest
//!                     ├─▶ FlightRecorder (ring) ─▶ JobStatus.flight, post-mortems
//!                     ├─▶ EwmaDetector / PageHinkley ─▶ AlertLog ─▶ /alerts
//!                     └─▶ SloEngine (error budgets) ─▶ JobStatus.slo, /slo
//! ```
//!
//! One [`ObsPipeline`] watches one job. [`ObsPipeline::ingest`] is the
//! single entry point — the server, the chaos harness, and the cluster
//! emulator all feed it the per-iteration sample, and it is the only
//! writer of the flight recorder, so every retained sample has been seen
//! by the detectors and the SLO engine. Enabling the pipeline changes
//! *observation only*: planner outputs stay byte-identical
//! (golden-gated).
//!
//! Everything downstream of `ingest` is deterministic in the sample
//! sequence: same samples in, byte-identical alert stream and SLO report
//! out. That is what the replay test locks down.

use parking_lot::Mutex;

use crate::detector::{Alert, AlertLog, EwmaConfig, EwmaDetector, PageHinkley, PageHinkleyConfig};
use crate::slo::{render_slo_json, SloEngine, SloSpec, SloStatus};
use crate::{FlightRecorder, Histogram, IterationSample};

/// Samples the flight recorder retains: enough to hold the recent
/// history of any emulated training segment while staying a few tens of
/// kilobytes.
pub const FLIGHT_CAPACITY: usize = 256;

/// Alerts the log retains.
const ALERT_CAPACITY: usize = 1024;

/// Metric names the pipeline derives from each [`IterationSample`] (plus
/// the sparse ones fed through [`crate::ObsPipeline::observe_metric`]):
/// the detectors name their alerts by them and SLO specs read them.
pub mod series {
    /// Total joules of the iteration (useful + intrinsic + extrinsic).
    pub const ENERGY_PER_ITERATION_J: &str = "energy_per_iteration_j";
    /// Synchronized iteration time, seconds.
    pub const SYNC_TIME_S: &str = "sync_time_s";
    /// Extrinsic-bloat joules as a share of total energy.
    pub const EXTRINSIC_SHARE: &str = "extrinsic_share";
    /// Degraded frontier lookups in the iteration.
    pub const DEGRADED_LOOKUP_RATE: &str = "degraded_lookup_rate";
    /// Iterations a just-ended degraded episode lasted (one point per
    /// recovery).
    pub const RECOVERY_ITERS: &str = "recovery_iters";
    /// p99 of the attached lookup-latency histogram, seconds.
    pub const LOOKUP_LATENCY_P99_S: &str = "lookup_latency_p99_s";
    /// Iterations between a drift re-characterization trigger and the
    /// first lookup served from the re-characterized frontier (one point
    /// per drift re-plan, fed via [`crate::ObsPipeline::observe_metric`]).
    pub const DRIFT_STALENESS_ITERS: &str = "drift_staleness_iters";
}

/// Detector pair watching one derived series.
#[derive(Debug)]
struct Watch {
    ewma: EwmaDetector,
    page_hinkley: Option<PageHinkley>,
}

impl Watch {
    fn update(&mut self, iteration: u64, value: f64, out: &mut Vec<Alert>) {
        if let Some(alert) = self.ewma.update(iteration, value) {
            out.push(alert);
        }
        if let Some(ph) = &mut self.page_hinkley {
            if let Some(alert) = ph.update(iteration, value) {
                out.push(alert);
            }
        }
    }
}

/// Mutable single-writer state behind the pipeline's ingest lock.
#[derive(Debug)]
struct PipelineState {
    energy: Watch,
    sync_time: Watch,
    degraded_rate: Watch,
    /// Length of the in-progress degraded episode, iterations.
    degraded_streak: u64,
    /// Histogram whose p99 the SLO engine reads each tick.
    lookup_latency: Option<Histogram>,
}

/// The per-job streaming observability pipeline. Share via `Arc`; ingest
/// from the iteration loop, read from status endpoints.
#[derive(Debug)]
pub struct ObsPipeline {
    flight: FlightRecorder,
    alerts: AlertLog,
    slo: SloEngine,
    state: Mutex<PipelineState>,
}

impl Default for ObsPipeline {
    /// The pipeline evaluating [`SloSpec::perseus_defaults`].
    fn default() -> ObsPipeline {
        ObsPipeline::new(SloSpec::perseus_defaults())
    }
}

impl ObsPipeline {
    /// A fresh pipeline evaluating `slos`. Detector tuning, ring and
    /// alert-log capacities are fixed: default EWMA and Page–Hinkley
    /// configs, [`FLIGHT_CAPACITY`] samples, 1,024 alerts.
    pub fn new(slos: Vec<SloSpec>) -> ObsPipeline {
        let ewma = EwmaConfig::default();
        // The degraded-lookup watch needs an absolute floor: its healthy
        // baseline is exactly zero, where relative bands have no width.
        let degraded_ewma = EwmaConfig {
            abs_floor: 0.5,
            ..ewma
        };
        let page_hinkley = PageHinkleyConfig::default();
        ObsPipeline {
            flight: FlightRecorder::new(FLIGHT_CAPACITY),
            alerts: AlertLog::new(ALERT_CAPACITY),
            slo: SloEngine::new(slos),
            state: Mutex::new(PipelineState {
                energy: Watch {
                    ewma: EwmaDetector::new(series::ENERGY_PER_ITERATION_J, ewma),
                    page_hinkley: Some(PageHinkley::new(
                        series::ENERGY_PER_ITERATION_J,
                        page_hinkley,
                    )),
                },
                sync_time: Watch {
                    ewma: EwmaDetector::new(series::SYNC_TIME_S, ewma),
                    page_hinkley: Some(PageHinkley::new(series::SYNC_TIME_S, page_hinkley)),
                },
                degraded_rate: Watch {
                    ewma: EwmaDetector::new(series::DEGRADED_LOOKUP_RATE, degraded_ewma),
                    page_hinkley: None,
                },
                degraded_streak: 0,
                lookup_latency: None,
            }),
        }
    }

    /// Attaches the lookup-latency histogram whose p99 the SLO engine
    /// evaluates each tick (typically the server's
    /// `perseus_server_lookup_seconds` handle).
    pub fn attach_lookup_latency(&self, histogram: Histogram) {
        self.state.lock().lookup_latency = Some(histogram);
    }

    /// Records one iteration into the flight recorder, then feeds it
    /// through the detectors and the SLO engine. Returns the alerts this
    /// sample transitioned (usually none).
    pub fn ingest(&self, sample: &IterationSample) -> Vec<Alert> {
        self.flight.record(*sample);
        let total_j = sample.total_j();
        let extrinsic_share = if total_j > 0.0 {
            sample.extrinsic_j / total_j
        } else {
            0.0
        };
        let degraded_rate = sample.degraded_lookups as f64;

        let mut fired = Vec::new();
        let mut slo_values: Vec<(&str, f64)> = vec![(series::EXTRINSIC_SHARE, extrinsic_share)];

        let mut state = self.state.lock();
        state.energy.update(sample.iteration, total_j, &mut fired);
        state
            .sync_time
            .update(sample.iteration, sample.sync_time_s, &mut fired);
        state
            .degraded_rate
            .update(sample.iteration, degraded_rate, &mut fired);

        if sample.degraded {
            state.degraded_streak += 1;
        } else if state.degraded_streak > 0 {
            let recovery = state.degraded_streak as f64;
            state.degraded_streak = 0;
            slo_values.push((series::RECOVERY_ITERS, recovery));
        }

        if let Some(p99) = state.lookup_latency.as_ref().and_then(|h| h.quantile(0.99)) {
            slo_values.push((series::LOOKUP_LATENCY_P99_S, p99));
        }
        drop(state);

        self.slo.evaluate(sample.iteration, &slo_values);
        for alert in &fired {
            self.alerts.push(alert.clone());
        }
        fired
    }

    /// Evaluates one point of an out-of-band metric — one not derived
    /// from [`IterationSample`], e.g. [`series::DRIFT_STALENESS_ITERS`] —
    /// against any SLOs reading it ([`SloStatus::last_value`] keeps the
    /// latest point). Detectors are untouched: out-of-band metrics are
    /// sparse (one point per event), which is exactly the shape streaming
    /// change detectors mis-read.
    pub fn observe_metric(&self, iteration: u64, metric: &str, value: f64) {
        self.slo.evaluate(iteration, &[(metric, value)]);
    }

    /// Samples ingested so far: those the flight recorder retains plus
    /// those it evicted.
    pub fn ingested(&self) -> u64 {
        let summary = self.flight.summary();
        summary.samples as u64 + summary.dropped
    }

    /// The flight recorder: the last [`FLIGHT_CAPACITY`] ingested
    /// samples, for status summaries and post-mortem dumps.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The alert log.
    pub fn alert_log(&self) -> &AlertLog {
        &self.alerts
    }

    /// All retained alerts, oldest first.
    pub fn alerts(&self) -> Vec<Alert> {
        self.alerts.alerts()
    }

    /// Currently-firing alerts.
    pub fn firing(&self) -> Vec<Alert> {
        self.alerts.firing()
    }

    /// Per-objective SLO statuses, in spec order.
    pub fn slo_status(&self) -> Vec<SloStatus> {
        self.slo.status()
    }

    /// Whether every SLO budget has headroom.
    pub fn slo_healthy(&self) -> bool {
        self.slo.all_healthy()
    }

    /// The `/alerts` endpoint body: retained alerts as a JSON array.
    pub fn alerts_json(&self) -> String {
        render_alerts_json(&self.alerts())
    }

    /// The `/slo` endpoint body: objective statuses as a JSON array.
    pub fn slo_json(&self) -> String {
        render_slo_json(&self.slo_status())
    }
}

/// Renders alerts as a JSON array (used by `/alerts`).
pub fn render_alerts_json(alerts: &[Alert]) -> String {
    use crate::slo::{json_number, json_string};
    use std::fmt::Write as _;

    let mut out = String::from("[");
    for (i, a) in alerts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"iteration\":{iter},\"metric\":{metric},\"detector\":\"{det}\",\"state\":\"{state}\",\"severity\":\"{sev}\",\"observed\":{obs},\"baseline\":{base},\"threshold\":{thr},\"statistic\":{stat}}}",
            iter = a.iteration,
            metric = json_string(&a.metric),
            det = a.detector,
            state = a.state,
            sev = a.severity,
            obs = json_number(a.evidence.observed),
            base = json_number(a.evidence.baseline),
            thr = json_number(a.evidence.threshold),
            stat = json_number(a.evidence.statistic),
        );
    }
    out.push(']');
    out
}
