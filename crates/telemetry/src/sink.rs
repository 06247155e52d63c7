//! The one pipe everything emits through: [`TelemetrySink`] receives a
//! [`SpanRecord`] for every closed span. The in-memory registry is the
//! implicit default sink; [`TraceWriter`] additionally collects records
//! into Chrome-trace JSON (`chrome://tracing` / Perfetto) for the viz
//! tooling.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::slo::json_string;

/// Everything known about one closed span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// The span's own name (last path component).
    pub name: &'static str,
    /// Full `parent/child` path.
    pub path: String,
    /// Labels captured at open time.
    pub labels: Vec<(&'static str, String)>,
    /// Custom counters accumulated via [`crate::Span::add`].
    pub custom: Vec<(&'static str, u64)>,
    /// When the span opened.
    pub start: Instant,
    /// How long it stayed open.
    pub duration: Duration,
    /// Dense per-process ordinal of the recording thread.
    pub thread: u64,
}

/// A consumer of closed spans. Implementations must be cheap and
/// non-blocking: `on_span` runs inline in the instrumented thread while a
/// read lock on the sink list is held.
pub trait TelemetrySink: Send + Sync {
    /// Called once per closed span, after its metrics are registered.
    fn on_span(&self, record: &SpanRecord);
}

struct TraceEvent {
    name: String,
    ts_us: f64,
    dur_us: f64,
    thread: u64,
    args: Vec<(String, String)>,
}

/// A [`TelemetrySink`] that buffers spans and serializes them as Chrome
/// trace-event JSON (complete `"ph": "X"` events).
///
/// ```
/// use std::sync::Arc;
/// use perseus_telemetry::{span, Telemetry, TraceWriter};
///
/// let tel = Telemetry::enabled();
/// let trace = Arc::new(TraceWriter::new());
/// tel.add_sink(Arc::clone(&trace) as _);
/// drop(span!(tel, "lookup"));
/// assert!(trace.to_chrome_json().contains("\"name\":\"lookup\""));
/// ```
pub struct TraceWriter {
    /// Zero point of the trace's microsecond timeline.
    origin: Instant,
    events: Mutex<Vec<TraceEvent>>,
}

impl Default for TraceWriter {
    fn default() -> TraceWriter {
        TraceWriter::new()
    }
}

impl TraceWriter {
    /// An empty trace whose timeline starts now.
    pub fn new() -> TraceWriter {
        TraceWriter {
            origin: Instant::now(),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Number of spans captured so far.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Whether no spans have been captured.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }

    /// Serializes the captured spans as a Chrome trace-event JSON object
    /// (`{"traceEvents": [...]}`), loadable in `chrome://tracing` and
    /// Perfetto.
    pub fn to_chrome_json(&self) -> String {
        let events = self.events.lock();
        let mut out = String::from("{\"traceEvents\":[");
        for (i, ev) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}",
                json_string(&ev.name),
                ev.thread,
                ev.ts_us,
                ev.dur_us,
            );
            if !ev.args.is_empty() {
                out.push_str(",\"args\":{");
                for (j, (k, v)) in ev.args.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{}:{}", json_string(k), json_string(v));
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

impl TelemetrySink for TraceWriter {
    fn on_span(&self, record: &SpanRecord) {
        let ts = record.start.saturating_duration_since(self.origin);
        let mut args: Vec<(String, String)> = record
            .labels
            .iter()
            .map(|(k, v)| ((*k).to_string(), v.clone()))
            .collect();
        for (k, v) in &record.custom {
            args.push(((*k).to_string(), v.to_string()));
        }
        self.events.lock().push(TraceEvent {
            name: record.path.clone(),
            ts_us: ts.as_secs_f64() * 1e6,
            dur_us: record.duration.as_secs_f64() * 1e6,
            thread: record.thread,
            args,
        });
    }
}
