//! Spans around the benchmark's calls into each layer, and where their
//! time went.
//!
//! The benchmark records through its own [`Telemetry`] handle; the
//! program under test always receives `Telemetry::disabled()`, so the
//! traced and untraced passes execute the same program code. Span names
//! are metric names (`server.submit_us`): the text before the first `.`
//! is the layer (a crate name). Names without a `.` (`run`, `iteration`,
//! ...) are roots and enclosing requests; their self time is time no
//! layer span covers, reported as unattributed.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use perseus_telemetry::{Span, SpanRecord, Telemetry, TelemetrySink, TraceWriter};

/// Spans forwarded to the Chrome trace export; the self-time analysis
/// covers every span regardless, this only bounds the exported file.
const EXPORT_LIMIT: usize = 50_000;

/// One closed span as the analysis needs it.
#[derive(Debug, Clone, Copy)]
pub struct SpanRow {
    /// Span (= metric) name.
    pub name: &'static str,
    /// When it opened.
    pub start: Instant,
    /// How long it stayed open.
    pub dur: Duration,
    /// Recording thread.
    pub thread: u64,
}

impl SpanRow {
    fn end(&self) -> Instant {
        self.start + self.dur
    }

    fn contains(&self, other: &SpanRow) -> bool {
        self.thread == other.thread && self.start <= other.start && other.end() <= self.end()
    }
}

/// In-memory sink: every span as a compact row, the first
/// [`EXPORT_LIMIT`] also into a [`TraceWriter`].
struct Sink {
    rows: Mutex<Vec<SpanRow>>,
    export: TraceWriter,
}

impl TelemetrySink for Sink {
    fn on_span(&self, record: &SpanRecord) {
        let mut rows = self.rows.lock().expect("span sink poisoned");
        rows.push(SpanRow {
            name: record.name,
            start: record.start,
            dur: record.duration,
            thread: record.thread,
        });
        if rows.len() <= EXPORT_LIMIT {
            self.export.on_span(record);
        }
    }
}

/// The benchmark's span recorder: inert when off.
pub struct Tracer {
    tel: Telemetry,
    sink: Option<Arc<Sink>>,
}

impl Tracer {
    /// Records nothing; every span is a no-op guard.
    pub fn off() -> Tracer {
        Tracer {
            tel: Telemetry::disabled(),
            sink: None,
        }
    }

    /// Records every span into memory.
    pub fn on() -> Tracer {
        let tel = Telemetry::enabled();
        let sink = Arc::new(Sink {
            rows: Mutex::new(Vec::new()),
            export: TraceWriter::new(),
        });
        tel.add_sink(Arc::clone(&sink) as Arc<dyn TelemetrySink>);
        Tracer {
            tel,
            sink: Some(sink),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.sink.is_some()
    }

    /// A span around one call; its parent is whatever span is open.
    pub fn span(&self, name: &'static str) -> Span {
        self.tel.span(name)
    }

    /// A request span (batch, admission round, iteration) labelled with
    /// its request id; the calls made for the request nest inside it.
    pub fn root(&self, name: &'static str, req: impl Display) -> Span {
        if self.is_on() {
            self.tel.span_with(name, &[("req", req.to_string())])
        } else {
            self.tel.span(name)
        }
    }

    /// Every span closed so far.
    pub fn rows(&self) -> Vec<SpanRow> {
        self.sink.as_ref().map_or_else(Vec::new, |s| {
            s.rows.lock().expect("span sink poisoned").clone()
        })
    }

    /// Writes the exported spans as Chrome trace JSON; returns how many.
    ///
    /// # Errors
    ///
    /// I/O errors creating or writing `path`.
    pub fn write_chrome_trace(&self, path: &Path) -> io::Result<usize> {
        let Some(sink) = &self.sink else {
            return Ok(0);
        };
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(File::create(path)?);
        perseus_viz::write_chrome_trace(&sink.export, &mut out)?;
        out.flush()?;
        Ok(sink.export.len())
    }
}

/// Durations, in seconds, of every span named `name`.
pub fn durations(rows: &[SpanRow], name: &str) -> Vec<f64> {
    rows.iter()
        .filter(|r| r.name == name)
        .map(|r| r.dur.as_secs_f64())
        .collect()
}

/// For each row: its self time (duration minus what its direct children
/// cover) and the index of its outermost enclosing span (itself for a
/// root). Spans nest per thread because guards drop in LIFO order.
pub fn self_times(rows: &[SpanRow]) -> Vec<(Duration, usize)> {
    let mut order: Vec<usize> = (0..rows.len()).collect();
    // Parents first: earlier start, then later end, then later close
    // (a parent closes after a child with identical bounds).
    order.sort_by(|&a, &b| {
        let (ra, rb) = (&rows[a], &rows[b]);
        ra.thread
            .cmp(&rb.thread)
            .then(ra.start.cmp(&rb.start))
            .then(rb.end().cmp(&ra.end()))
            .then(b.cmp(&a))
    });
    let mut covered = vec![Duration::ZERO; rows.len()];
    let mut root: Vec<usize> = (0..rows.len()).collect();
    let mut stack: Vec<usize> = Vec::new();
    for &i in &order {
        while let Some(&top) = stack.last() {
            if rows[top].contains(&rows[i]) {
                break;
            }
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            covered[parent] += rows[i].dur;
            root[i] = root[parent];
        }
        stack.push(i);
    }
    rows.iter()
        .zip(covered)
        .zip(root)
        .map(|((r, c), root)| (r.dur.saturating_sub(c), root))
        .collect()
}

/// Where the time of one root span went.
#[derive(Debug, Clone, PartialEq)]
pub struct Breakdown {
    /// The root span's duration.
    pub wall: Duration,
    /// Self time per layer (`server`, `cluster`, ...).
    pub layers: BTreeMap<String, Duration>,
    /// Self time of each enclosing span kind (`run`, `iteration`, ...):
    /// time inside the root that no layer span covers.
    pub unattributed: BTreeMap<String, Duration>,
}

impl Breakdown {
    /// Sum of every layer's and every enclosing span's self time; equals
    /// [`Breakdown::wall`] when the spans nest.
    pub fn total(&self) -> Duration {
        self.layers.values().chain(self.unattributed.values()).sum()
    }
}

/// Breaks the last root span named `root` down into self time per layer
/// plus the unattributed remainder of each enclosing span kind.
pub fn breakdown(rows: &[SpanRow], root: &str) -> Option<Breakdown> {
    let nodes = self_times(rows);
    let r = (0..rows.len())
        .rev()
        .find(|&i| rows[i].name == root && nodes[i].1 == i)?;
    let mut out = Breakdown {
        wall: rows[r].dur,
        layers: BTreeMap::new(),
        unattributed: BTreeMap::new(),
    };
    for (row, &(own, top)) in rows.iter().zip(&nodes) {
        if top != r {
            continue;
        }
        let slot = match row.name.split_once('.') {
            Some((layer, _)) => out.layers.entry(layer.to_string()),
            None => out.unattributed.entry(row.name.to_string()),
        };
        *slot.or_default() += own;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(base: Instant, name: &'static str, from_ms: u64, to_ms: u64) -> SpanRow {
        SpanRow {
            name,
            start: base + Duration::from_millis(from_ms),
            dur: Duration::from_millis(to_ms - from_ms),
            thread: 0,
        }
    }

    /// Rows in the order guards close them: children before parents.
    fn sample(base: Instant) -> Vec<SpanRow> {
        vec![
            row(base, "models.partition_ms", 5, 15),
            row(base, "setup", 0, 30),
            row(base, "server.status_us", 45, 60),
            row(base, "cluster.report_us", 60, 80),
            row(base, "iteration", 40, 90),
            row(base, "run", 0, 100),
            row(base, "core.context_ms", 110, 120),
        ]
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let base = Instant::now();
        let rows = sample(base);
        let st = self_times(&rows);
        let ms = |i: usize| st[i].0.as_millis();
        assert_eq!(ms(0), 10);
        assert_eq!(ms(1), 20, "setup minus partition");
        assert_eq!(ms(4), 15, "iteration minus status and report");
        assert_eq!(
            ms(5),
            20,
            "run minus setup and iteration, not grandchildren"
        );
        assert_eq!(st[2].1, 5, "root of a grandchild is the run span");
        assert_eq!(st[6].1, 6, "a probe after the run is its own root");
    }

    #[test]
    fn breakdown_adds_up_to_the_root_wall() {
        let base = Instant::now();
        let b = breakdown(&sample(base), "run").expect("run span present");
        assert_eq!(b.wall, Duration::from_millis(100));
        assert_eq!(b.total(), b.wall);
        assert_eq!(b.layers["models"], Duration::from_millis(10));
        assert_eq!(b.layers["server"], Duration::from_millis(15));
        assert_eq!(b.unattributed["iteration"], Duration::from_millis(15));
        assert_eq!(b.unattributed["run"], Duration::from_millis(20));
        assert!(
            !b.layers.contains_key("core"),
            "probes outside the run are excluded"
        );
    }

    #[test]
    fn identical_bounds_nest_child_inside_parent() {
        let base = Instant::now();
        let rows = vec![
            row(base, "server.wait_ms", 0, 10),
            row(base, "batch", 0, 10),
        ];
        let st = self_times(&rows);
        assert_eq!(st[1].0, Duration::ZERO);
        assert_eq!(st[0].1, 1);
        let b = breakdown(&rows, "batch").expect("root");
        assert_eq!(b.total(), b.wall);
    }

    #[test]
    fn threads_do_not_nest_into_each_other() {
        let base = Instant::now();
        let mut other = row(base, "server.wait_ms", 2, 5);
        other.thread = 1;
        let rows = vec![other, row(base, "run", 0, 10)];
        let b = breakdown(&rows, "run").expect("root");
        assert_eq!(b.unattributed["run"], Duration::from_millis(10));
        assert!(b.layers.is_empty());
    }

    #[test]
    fn recorded_spans_nest_and_sum() {
        let tracer = Tracer::on();
        {
            let _run = tracer.span("run");
            for i in 0..3 {
                let _it = tracer.root("iteration", i);
                let _call = tracer.span("server.status_us");
                std::hint::black_box((0..1000).sum::<u64>());
            }
        }
        let rows = tracer.rows();
        assert_eq!(rows.len(), 7);
        assert_eq!(durations(&rows, "server.status_us").len(), 3);
        let b = breakdown(&rows, "run").expect("root");
        assert_eq!(b.total(), b.wall);
        assert!(Tracer::off().rows().is_empty());
    }
}
