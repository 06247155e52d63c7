//! Perseus observability: hierarchical spans, typed metrics, and pluggable
//! sinks — the introspection layer behind the paper's §6 overhead results
//! (planner lookup and re-characterization cost are first-class numbers,
//! so the repro must be able to measure them without perturbing them).
//!
//! # Design
//!
//! * [`Telemetry`] is a cheap cloneable handle. [`Telemetry::disabled`]
//!   is the production default for hot paths that were not asked to
//!   report: every operation is a branch-predictable no-op (one
//!   `Option` check, no clock reads, no allocation), so instrumented and
//!   uninstrumented code paths produce byte-identical planner output —
//!   verified by the golden-trace gates.
//! * Metrics live in a sharded registry: handles ([`Counter`],
//!   [`FloatCounter`], [`Gauge`], [`Histogram`]) are atomics shared
//!   between the registry and the instrumented call site, so the hot
//!   path never holds a lock — shard mutexes guard only handle
//!   creation and snapshotting.
//! * [`span!`] opens a hierarchical [`Span`]: wall time and call counts
//!   are recorded on drop, per-span custom counters via [`Span::add`].
//!   Nesting is tracked per thread, so a span opened inside another
//!   span records under `parent/child`.
//! * [`MetricsSnapshot`] renders the registry to a stable, sorted,
//!   Prometheus-style text format — suitable for golden-testing.
//! * [`TelemetrySink`] is the one pipe everything emits through: the
//!   in-memory registry is the default sink, and extra sinks such as
//!   the Chrome-trace [`TraceWriter`] can be attached with
//!   [`Telemetry::add_sink`].
//!
//! # Examples
//!
//! ```
//! use perseus_telemetry::{span, Telemetry};
//!
//! let tel = Telemetry::enabled();
//! {
//!     let mut span = span!(tel, "characterize", job = "gpt3-xl");
//!     span.add("cut_solves", 3);
//! }
//! let snap = tel.snapshot();
//! assert_eq!(
//!     snap.value_of("perseus_span_calls_total", &[("job", "gpt3-xl"), ("span", "characterize")]),
//!     Some(1.0)
//! );
//! ```

pub mod detector;
mod flight;
pub mod http;
mod metrics;
pub mod pipeline;
mod registry;
mod sink;
pub mod slo;
mod snapshot;
mod span;

pub use detector::{Alert, AlertEvidence, AlertLog, AlertState, Severity};
pub use flight::{FlightRecorder, FlightSnapshot, FlightSummary, IterationSample};
pub use http::{Endpoints, TelemetryServer};
pub use metrics::{Counter, FloatCounter, Gauge, Histogram};
pub use pipeline::ObsPipeline;
pub use sink::{SpanRecord, TelemetrySink, TraceWriter};
pub use slo::{SloEngine, SloOp, SloSpec, SloStatus};
pub use snapshot::{histogram_quantile, MetricsSnapshot, SnapshotBuilder};
pub use span::Span;

use std::sync::Arc;
use std::time::Instant;

use parking_lot::RwLock;

use registry::Registry;

/// Label set of a metric: `(key, value)` pairs, sorted by the registry so
/// lookup order never matters.
pub type Labels<'a> = &'a [(&'static str, &'a str)];

pub(crate) struct Inner {
    pub(crate) registry: Registry,
    pub(crate) sinks: RwLock<Vec<Arc<dyn TelemetrySink>>>,
}

/// A telemetry handle: either a live recorder backed by a shared metric
/// registry, or the disabled no-op. Cloning shares the registry.
#[derive(Clone)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::disabled()
    }
}

impl Telemetry {
    /// The no-op handle: every operation is a single predictable branch.
    /// Handles returned by the metric constructors are *detached* — they
    /// still count (so code can read its own counters back) but are never
    /// registered and never appear in a snapshot.
    pub fn disabled() -> Telemetry {
        Telemetry { inner: None }
    }

    /// A live handle with a fresh empty registry as its default sink.
    pub fn enabled() -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Inner {
                registry: Registry::new(),
                sinks: RwLock::new(Vec::new()),
            })),
        }
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Identity of the backing registry: two enabled handles share one
    /// registry iff their ids are equal (`None` when disabled). The fleet
    /// rollup dedups shard snapshots by this, so shards sharing a
    /// telemetry handle are not double-counted.
    pub fn registry_id(&self) -> Option<usize> {
        self.inner.as_ref().map(|a| Arc::as_ptr(a) as usize)
    }

    /// Attaches an extra sink (for example a [`TraceWriter`]); span
    /// records are delivered to every attached sink in attachment order.
    /// No-op when disabled.
    pub fn add_sink(&self, sink: Arc<dyn TelemetrySink>) {
        if let Some(inner) = &self.inner {
            inner.sinks.write().push(sink);
        }
    }

    /// The current instant, or `None` when disabled — lets hot paths skip
    /// the clock read entirely when nobody is listening.
    #[inline]
    pub fn now(&self) -> Option<Instant> {
        self.inner.as_ref().map(|_| Instant::now())
    }

    /// A monotonically increasing counter registered under `name`.
    /// Repeated calls with the same name and labels return handles to the
    /// same underlying atomic.
    pub fn counter(&self, name: &'static str) -> Counter {
        self.counter_with(name, &[])
    }

    /// A labeled [`Telemetry::counter`].
    pub fn counter_with(&self, name: &'static str, labels: Labels<'_>) -> Counter {
        match &self.inner {
            Some(inner) => inner.registry.counter(name, labels),
            None => Counter::detached(),
        }
    }

    /// A float-valued accumulator (seconds of busy time, joules, …).
    pub fn float_counter(&self, name: &'static str) -> FloatCounter {
        self.float_counter_with(name, &[])
    }

    /// A labeled [`Telemetry::float_counter`].
    pub fn float_counter_with(&self, name: &'static str, labels: Labels<'_>) -> FloatCounter {
        match &self.inner {
            Some(inner) => inner.registry.float_counter(name, labels),
            None => FloatCounter::detached(),
        }
    }

    /// A gauge (instantaneous level: worker-pool occupancy, queue depth).
    pub fn gauge(&self, name: &'static str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// A labeled [`Telemetry::gauge`].
    pub fn gauge_with(&self, name: &'static str, labels: Labels<'_>) -> Gauge {
        match &self.inner {
            Some(inner) => inner.registry.gauge(name, labels),
            None => Gauge::detached(),
        }
    }

    /// A latency histogram with the default exponential bucket bounds
    /// (1 µs … 10 s).
    pub fn histogram(&self, name: &'static str) -> Histogram {
        self.histogram_with(name, &[])
    }

    /// A labeled [`Telemetry::histogram`].
    pub fn histogram_with(&self, name: &'static str, labels: Labels<'_>) -> Histogram {
        match &self.inner {
            Some(inner) => inner.registry.histogram(name, labels),
            None => Histogram::detached(),
        }
    }

    /// Opens a hierarchical span named `name`; prefer the [`span!`] macro,
    /// which also captures labels. Wall time and call count are recorded
    /// when the returned guard drops. Disabled handles return an inert
    /// guard without reading the clock.
    pub fn span(&self, name: &'static str) -> Span {
        self.span_with(name, &[])
    }

    /// A labeled [`Telemetry::span`].
    pub fn span_with(&self, name: &'static str, labels: &[(&'static str, String)]) -> Span {
        match &self.inner {
            Some(inner) => Span::enter(Arc::clone(inner), name, labels),
            None => Span::inert(),
        }
    }

    /// Snapshots every registered metric into a stable, sorted form.
    /// Disabled handles snapshot to an empty set.
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            Some(inner) => inner.registry.snapshot(),
            None => MetricsSnapshot::empty(),
        }
    }
}

/// Opens a [`Span`] on a [`Telemetry`] handle, optionally with labels:
///
/// ```
/// use perseus_telemetry::{span, Telemetry};
/// let tel = Telemetry::enabled();
/// let job = "gpt3";
/// let _guard = span!(tel, "characterize", job = job);
/// ```
#[macro_export]
macro_rules! span {
    ($tel:expr, $name:expr) => {
        $tel.span($name)
    };
    ($tel:expr, $name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $tel.span_with($name, &[$((stringify!($key), ::std::string::ToString::to_string(&$value))),+])
    };
}

#[cfg(test)]
mod tests;
