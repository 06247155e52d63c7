use std::sync::Arc;
use std::time::Duration;

use crate::{Telemetry, TelemetrySink, TraceWriter};

#[test]
fn counters_register_and_accumulate() {
    let tel = Telemetry::enabled();
    let c = tel.counter("requests_total");
    c.inc();
    c.add(4);
    assert_eq!(c.get(), 5);
    // Same name+labels returns the same underlying atomic.
    let again = tel.counter("requests_total");
    again.inc();
    assert_eq!(c.get(), 6);
    assert_eq!(tel.snapshot().value_of("requests_total", &[]), Some(6.0));
}

#[test]
fn labels_are_order_insensitive() {
    let tel = Telemetry::enabled();
    tel.counter_with("hits", &[("a", "1"), ("b", "2")]).inc();
    tel.counter_with("hits", &[("b", "2"), ("a", "1")]).inc();
    let snap = tel.snapshot();
    assert_eq!(snap.len(), 1);
    assert_eq!(snap.value_of("hits", &[("b", "2"), ("a", "1")]), Some(2.0));
}

#[test]
fn float_counter_and_gauge() {
    let tel = Telemetry::enabled();
    let f = tel.float_counter("busy_seconds_total");
    f.add(0.25);
    f.add(0.5);
    assert!((f.get() - 0.75).abs() < 1e-12);
    let g = tel.gauge("occupancy");
    g.add(3);
    g.add(-1);
    assert_eq!(g.get(), 2);
    g.set(7);
    let snap = tel.snapshot();
    assert_eq!(snap.value_of("occupancy", &[]), Some(7.0));
    assert_eq!(snap.value_of("busy_seconds_total", &[]), Some(0.75));
}

#[test]
fn histogram_buckets_are_cumulative() {
    let tel = Telemetry::enabled();
    let h = tel.histogram("latency_seconds");
    h.observe(0.5e-6); // first bucket (1e-6)
    h.observe(3e-6); // 5e-6 bucket
    h.observe(100.0); // beyond every bound: only +Inf
    h.observe_duration(Duration::from_micros(2)); // 2.5e-6 bucket
    assert_eq!(h.count(), 4);
    let snap = tel.snapshot();
    assert_eq!(
        snap.value_of("latency_seconds_bucket", &[("le", "0.000001")]),
        Some(1.0)
    );
    assert_eq!(
        snap.value_of("latency_seconds_bucket", &[("le", "0.0000025")]),
        Some(2.0)
    );
    assert_eq!(
        snap.value_of("latency_seconds_bucket", &[("le", "0.000005")]),
        Some(3.0)
    );
    assert_eq!(
        snap.value_of("latency_seconds_bucket", &[("le", "+Inf")]),
        Some(4.0)
    );
    assert_eq!(snap.value_of("latency_seconds_count", &[]), Some(4.0));
    let sum = snap.value_of("latency_seconds_sum", &[]).unwrap();
    assert!((sum - 100.0000055).abs() < 1e-9, "sum = {sum}");
}

#[test]
fn spans_nest_into_paths_and_flush_custom_counters() {
    let tel = Telemetry::enabled();
    {
        let outer = span!(tel, "characterize", job = "gpt3");
        assert_eq!(outer.path(), Some("characterize"));
        {
            let mut inner = span!(tel, "cut");
            assert_eq!(inner.path(), Some("characterize/cut"));
            inner.add("resolves", 2);
            inner.add("resolves", 1);
        }
    }
    let snap = tel.snapshot();
    assert_eq!(
        snap.value_of(
            "perseus_span_calls_total",
            &[("job", "gpt3"), ("span", "characterize")]
        ),
        Some(1.0)
    );
    assert_eq!(
        snap.value_of("perseus_span_calls_total", &[("span", "characterize/cut")]),
        Some(1.0)
    );
    assert_eq!(
        snap.value_of("resolves", &[("span", "characterize/cut")]),
        Some(3.0)
    );
    // Wall time was recorded (monotonic clocks: non-negative is all we
    // can assert portably).
    assert!(
        snap.value_of(
            "perseus_span_seconds_total",
            &[("span", "characterize/cut")]
        )
        .unwrap()
            >= 0.0
    );
}

#[test]
fn disabled_telemetry_is_inert_but_usable() {
    let tel = Telemetry::disabled();
    assert!(!tel.is_enabled());
    assert!(tel.now().is_none());
    let c = tel.counter("ignored");
    c.inc();
    assert_eq!(c.get(), 1); // detached handles still count locally
    let mut s = span!(tel, "lookup", job = "gpt3");
    assert!(!s.is_recording());
    assert_eq!(s.path(), None);
    s.add("anything", 10);
    drop(s);
    let snap = tel.snapshot();
    assert!(snap.is_empty());
    assert_eq!(snap.render(), "");
}

#[test]
fn render_is_sorted_and_stable() {
    let tel = Telemetry::enabled();
    tel.counter_with("zeta", &[("k", "1")]).add(3);
    tel.counter("alpha").add(1);
    tel.gauge_with("zeta", &[("k", "0")]).set(-2);
    let rendered = tel.snapshot().render();
    assert_eq!(rendered, "alpha 1\nzeta{k=\"0\"} -2\nzeta{k=\"1\"} 3\n");
    // A second snapshot of the unchanged registry renders identically.
    assert_eq!(tel.snapshot().render(), rendered);
}

#[test]
#[should_panic(expected = "already registered")]
fn kind_mismatch_panics() {
    let tel = Telemetry::enabled();
    tel.counter("metric").inc();
    tel.gauge("metric");
}

struct CountingSink(std::sync::atomic::AtomicUsize);

impl TelemetrySink for CountingSink {
    fn on_span(&self, record: &crate::SpanRecord) {
        assert!(!record.path.is_empty());
        self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

#[test]
fn sinks_receive_every_closed_span() {
    let tel = Telemetry::enabled();
    let sink = Arc::new(CountingSink(std::sync::atomic::AtomicUsize::new(0)));
    tel.add_sink(Arc::clone(&sink) as _);
    drop(tel.span("a"));
    drop(tel.span("b"));
    assert_eq!(sink.0.load(std::sync::atomic::Ordering::Relaxed), 2);
}

#[test]
fn trace_writer_emits_chrome_json() {
    let tel = Telemetry::enabled();
    let trace = Arc::new(TraceWriter::new());
    tel.add_sink(Arc::clone(&trace) as _);
    {
        let mut s = span!(tel, "lookup", job = "chaos");
        s.add("faults", 1);
    }
    assert_eq!(trace.len(), 1);
    let json = trace.to_chrome_json();
    assert!(json.starts_with("{\"traceEvents\":["), "{json}");
    assert!(json.contains("\"name\":\"lookup\""), "{json}");
    assert!(json.contains("\"ph\":\"X\""), "{json}");
    assert!(json.contains("\"job\":\"chaos\""), "{json}");
    assert!(json.contains("\"faults\":\"1\""), "{json}");
    assert!(json.ends_with("]}"), "{json}");
}

#[test]
fn spans_on_other_threads_do_not_inherit_this_path() {
    let tel = Telemetry::enabled();
    let _outer = tel.span("main");
    let tel2 = tel.clone();
    std::thread::spawn(move || {
        let s = tel2.span("worker");
        assert_eq!(s.path(), Some("worker"));
    })
    .join()
    .unwrap();
}

mod flight {
    use crate::{FlightRecorder, IterationSample};

    fn sample(iteration: u64, degraded: bool) -> IterationSample {
        IterationSample {
            iteration,
            sync_time_s: 0.5 + iteration as f64 * 0.01,
            useful_j: 100.0,
            intrinsic_j: 7.5,
            extrinsic_j: if degraded { 12.0 } else { 0.0 },
            freq_min_mhz: 990,
            freq_max_mhz: 1410,
            degraded,
            degraded_lookups: u64::from(degraded),
            faults: u64::from(degraded),
        }
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let rec = FlightRecorder::new(4);
        assert_eq!(rec.summary().samples, 0);
        for i in 0..10 {
            rec.record(sample(i, false));
        }
        assert_eq!(rec.summary().samples, 4);
        let snap = rec.snapshot();
        assert_eq!(snap.dropped, 6);
        let kept: Vec<u64> = snap.samples.iter().map(|s| s.iteration).collect();
        assert_eq!(kept, vec![6, 7, 8, 9], "oldest first, newest retained");
        let summary = snap.summary();
        assert_eq!(summary.samples, 4);
        assert_eq!(summary.dropped, 6);
        assert_eq!(summary.last_iteration, Some(9));
        assert_eq!(
            rec.summary(),
            summary,
            "running counts match the copy's fold"
        );
    }

    #[test]
    fn snapshot_counts_degraded_and_faults() {
        let rec = FlightRecorder::new(16);
        for i in 0..8 {
            rec.record(sample(i, i % 3 == 0));
        }
        let snap = rec.snapshot();
        assert_eq!(snap.degraded_samples(), 3); // iterations 0, 3, 6
        assert_eq!(snap.degraded_lookups(), 3);
        assert_eq!(snap.faults(), 3);
        assert_eq!(snap.summary().degraded_samples, 3);
        assert_eq!(rec.summary(), snap.summary());
        assert!((snap.samples[0].total_j() - 119.5).abs() < 1e-12);
    }

    /// The running summary equals the counts folded from a snapshot after
    /// seeded record sequences that evict, at a small and the default
    /// capacity, checked after every record.
    #[test]
    fn running_summary_matches_the_ring_through_evictions() {
        for capacity in [4, 256] {
            let rec = FlightRecorder::new(capacity);
            // SplitMix64: which samples are degraded and how many faults
            // each carries.
            let mut state = 0xF11E_u64 + capacity as u64;
            let mut draw = move || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            for i in 0..(3 * capacity as u64 + 7) {
                let r = draw();
                rec.record(IterationSample {
                    faults: r % 4,
                    ..sample(i, r & 0x10 != 0)
                });
                assert_eq!(
                    rec.summary(),
                    rec.snapshot().summary(),
                    "capacity {capacity}, after iteration {i}"
                );
            }
            let summary = rec.summary();
            assert_eq!(summary.samples, capacity);
            assert_eq!(summary.dropped, 2 * capacity as u64 + 7);
            assert_eq!(summary.last_iteration, Some(3 * capacity as u64 + 6));
        }
    }

    /// The training loop's numbers reach the dump unvalidated, so a
    /// diverged iteration (infinite time, NaN joules) must still dump as
    /// JSON a standard parser accepts.
    #[test]
    fn dump_of_non_finite_sample_is_valid_json() {
        let rec = FlightRecorder::new(4);
        rec.record(IterationSample {
            sync_time_s: f64::INFINITY,
            useful_j: f64::NAN,
            extrinsic_j: f64::NEG_INFINITY,
            ..sample(0, false)
        });
        let text = rec.snapshot().to_json();
        let value = super::json::parse(&text).expect("non-finite dump must be valid JSON");
        let obj = value.as_object().unwrap();
        let first = obj["samples"].as_array().unwrap()[0].as_object().unwrap();
        assert_eq!(first["sync_time_s"].as_f64(), Some(1e308));
        assert_eq!(first["useful_j"].as_f64(), Some(0.0));
        assert_eq!(first["extrinsic_j"].as_f64(), Some(-1e308));
    }

    /// Finite samples dump in the metrics renderer's number format:
    /// integral values without a decimal point, the rest shortest
    /// round-trip.
    #[test]
    fn dump_of_finite_samples_is_pinned() {
        let rec = FlightRecorder::new(2);
        for i in 0..3 {
            rec.record(sample(i, i == 2));
        }
        assert_eq!(
            rec.snapshot().to_json(),
            "{\n  \"capacity\": 2,\n  \"dropped\": 1,\n  \"degraded_samples\": 1,\n  \"faults\": 1,\n  \"samples\": [\n    \
             {\"iteration\": 1, \"sync_time_s\": 0.51, \"useful_j\": 100, \"intrinsic_j\": 7.5, \
             \"extrinsic_j\": 0, \"freq_min_mhz\": 990, \"freq_max_mhz\": 1410, \"degraded\": false, \
             \"degraded_lookups\": 0, \"faults\": 0},\n    \
             {\"iteration\": 2, \"sync_time_s\": 0.52, \"useful_j\": 100, \"intrinsic_j\": 7.5, \
             \"extrinsic_j\": 12, \"freq_min_mhz\": 990, \"freq_max_mhz\": 1410, \"degraded\": true, \
             \"degraded_lookups\": 1, \"faults\": 1}\n  ]\n}\n"
        );
    }

    #[test]
    fn dump_writes_valid_json_post_mortem() {
        let rec = FlightRecorder::new(8);
        for i in 0..5 {
            rec.record(sample(i, i == 2));
        }
        let dir = std::env::temp_dir().join(format!(
            "perseus-flight-test-{}-{:p}",
            std::process::id(),
            &rec
        ));
        let path = dir.join("nested").join("postmortem.json");
        let _ = std::fs::remove_dir_all(&dir);
        rec.dump_to(&path).unwrap();
        assert_eq!(rec.dumps(), 1);
        let text = std::fs::read_to_string(&path).unwrap();
        let value = super::json::parse(&text).expect("dump must be valid JSON");
        let obj = value.as_object().unwrap();
        assert_eq!(obj["capacity"].as_f64(), Some(8.0));
        assert_eq!(obj["degraded_samples"].as_f64(), Some(1.0));
        assert_eq!(obj["faults"].as_f64(), Some(1.0));
        let samples = obj["samples"].as_array().unwrap();
        assert_eq!(samples.len(), 5);
        let third = samples[2].as_object().unwrap();
        assert_eq!(third["iteration"].as_f64(), Some(2.0));
        assert_eq!(third["degraded"], super::json::Value::Bool(true));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_recorder_snapshots_empty() {
        let rec = FlightRecorder::new(0); // clamps to 1
        assert_eq!(rec.capacity(), 1);
        let snap = rec.snapshot();
        assert!(snap.samples.is_empty());
        assert_eq!(snap.summary().last_iteration, None);
        super::json::parse(&snap.to_json()).expect("empty dump is still valid JSON");
    }
}

mod quantiles {
    use crate::Telemetry;

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let tel = Telemetry::enabled();
        let h = tel.histogram("latency_seconds");
        // 100 observations right at 0.15s: they all land in the
        // (0.1, 0.25] bucket, so every quantile reports that bucket's
        // upper bound (the all-in-one-bucket edge-case rule).
        for _ in 0..100 {
            h.observe(0.15);
        }
        let snap = tel.snapshot();
        for q in ["p50", "p90", "p99"] {
            let v = snap
                .value_of(&format!("latency_seconds_{q}"), &[])
                .unwrap_or_else(|| panic!("missing {q}"));
            assert!(
                (0.1..=0.25).contains(&v),
                "{q} = {v} outside the observed bucket"
            );
        }
        // Higher quantiles never undercut lower ones.
        let p50 = snap.value_of("latency_seconds_p50", &[]).unwrap();
        let p90 = snap.value_of("latency_seconds_p90", &[]).unwrap();
        let p99 = snap.value_of("latency_seconds_p99", &[]).unwrap();
        assert!(p50 <= p90 && p90 <= p99);
    }

    #[test]
    fn quantiles_split_across_buckets() {
        let tel = Telemetry::enabled();
        let h = tel.histogram("split_seconds");
        // Half the mass at ~1ms, half at ~1s: the median sits at the
        // boundary region while p90/p99 live in the slow mode.
        for _ in 0..50 {
            h.observe(1e-3);
        }
        for _ in 0..50 {
            h.observe(1.0);
        }
        let snap = tel.snapshot();
        let p50 = snap.value_of("split_seconds_p50", &[]).unwrap();
        let p99 = snap.value_of("split_seconds_p99", &[]).unwrap();
        assert!(p50 <= 1e-3 + 1e-12, "median in the fast mode, got {p50}");
        assert!(p99 > 0.5, "p99 in the slow mode, got {p99}");
    }

    #[test]
    fn overflow_clamps_to_highest_finite_bound() {
        let tel = Telemetry::enabled();
        let h = tel.histogram("huge_seconds");
        for _ in 0..10 {
            h.observe(1e6); // beyond every finite bound
        }
        let snap = tel.snapshot();
        let p99 = snap.value_of("huge_seconds_p99", &[]).unwrap();
        assert_eq!(p99, 10.0, "+Inf bucket clamps to the last finite bound");
    }

    #[test]
    fn empty_histogram_emits_no_quantiles() {
        let tel = Telemetry::enabled();
        let _ = tel.histogram("idle_seconds");
        let snap = tel.snapshot();
        assert_eq!(snap.value_of("idle_seconds_p50", &[]), None);
        assert_eq!(snap.value_of("idle_seconds_count", &[]), Some(0.0));
    }
}

/// A minimal recursive-descent JSON parser — just enough to
/// parse-validate what `TraceWriter` and the flight recorder emit,
/// keeping the crate dependency-free.
pub(crate) mod json {
    use std::collections::BTreeMap;

    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Number(f64),
        String(String),
        Array(Vec<Value>),
        Object(BTreeMap<String, Value>),
    }

    impl Value {
        pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
            match self {
                Value::Object(m) => Some(m),
                _ => None,
            }
        }
        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Array(v) => Some(v),
                _ => None,
            }
        }
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Number(n) => Some(*n),
                _ => None,
            }
        }
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::String(s) => Some(s),
                _ => None,
            }
        }
    }

    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
    }

    fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
        if bytes.get(*pos) == Some(&b) {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {pos}", b as char))
        }
    }

    fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b'{') => parse_object(bytes, pos),
            Some(b'[') => parse_array(bytes, pos),
            Some(b'"') => Ok(Value::String(parse_string(bytes, pos)?)),
            Some(b't') => parse_lit(bytes, pos, "true", Value::Bool(true)),
            Some(b'f') => parse_lit(bytes, pos, "false", Value::Bool(false)),
            Some(b'n') => parse_lit(bytes, pos, "null", Value::Null),
            Some(_) => parse_number(bytes, pos),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
        if bytes[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {pos}"))
        }
    }

    fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while *pos < bytes.len()
            && matches!(bytes[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        {
            *pos += 1;
        }
        std::str::from_utf8(&bytes[start..*pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Number)
            .ok_or_else(|| format!("bad number at offset {start}"))
    }

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(bytes, pos, b'"')?;
        let mut out = String::new();
        loop {
            match bytes.get(*pos) {
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match bytes.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = bytes
                                .get(*pos + 1..*pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                            *pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 passes through untouched.
                    let ch_len = utf8_len(bytes[*pos]);
                    let s = std::str::from_utf8(&bytes[*pos..*pos + ch_len])
                        .map_err(|e| e.to_string())?;
                    out.push_str(s);
                    *pos += ch_len;
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn utf8_len(b: u8) -> usize {
        match b {
            0x00..=0x7f => 1,
            0xc0..=0xdf => 2,
            0xe0..=0xef => 3,
            _ => 4,
        }
    }

    fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(bytes, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(parse_value(bytes, pos)?);
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Array(items));
                }
                other => return Err(format!("expected , or ] got {other:?}")),
            }
        }
    }

    fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(bytes, pos, b'{')?;
        let mut map = BTreeMap::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            skip_ws(bytes, pos);
            let key = parse_string(bytes, pos)?;
            skip_ws(bytes, pos);
            expect(bytes, pos, b':')?;
            map.insert(key, parse_value(bytes, pos)?);
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Object(map));
                }
                other => return Err(format!("expected , or }} got {other:?}")),
            }
        }
    }
}

mod chrome_trace_roundtrip {
    use std::sync::Arc;

    use super::json;
    use crate::{Telemetry, TraceWriter};

    /// Satellite fix: `TraceWriter`'s output was never parse-validated.
    /// Round-trip it through the minimal parser and check both the JSON
    /// shape and that per-thread span intervals nest properly.
    #[test]
    fn emitted_chrome_trace_parses_and_nests() {
        let tel = Telemetry::enabled();
        let trace = Arc::new(TraceWriter::new());
        tel.add_sink(Arc::clone(&trace) as _);
        {
            let mut outer = span!(tel, "characterize", job = "gpt3\"quoted\"");
            outer.add("cut_solves", 2);
            for _ in 0..3 {
                drop(span!(tel, "pd_iteration"));
            }
        }
        drop(span!(tel, "lookup"));

        let text = trace.to_chrome_json();
        let value = json::parse(&text).expect("chrome trace must be valid JSON");
        let events = value
            .as_object()
            .and_then(|o| o.get("traceEvents"))
            .and_then(|v| v.as_array())
            .expect("top level is {\"traceEvents\": [...]}")
            .to_vec();
        assert_eq!(events.len(), 5);

        // Every event is a complete-phase slice with the required keys.
        let mut by_tid: std::collections::BTreeMap<i64, Vec<(f64, f64, String)>> =
            std::collections::BTreeMap::new();
        for ev in &events {
            let obj = ev.as_object().expect("event is an object");
            assert_eq!(obj["ph"].as_str(), Some("X"));
            assert_eq!(obj["pid"].as_f64(), Some(1.0));
            let name = obj["name"].as_str().expect("name is a string").to_string();
            let ts = obj["ts"].as_f64().expect("ts is a number");
            let dur = obj["dur"].as_f64().expect("dur is a number");
            assert!(ts >= 0.0 && dur >= 0.0);
            by_tid
                .entry(obj["tid"].as_f64().expect("tid") as i64)
                .or_default()
                .push((ts, ts + dur, name));
        }
        // The quoted label survived escaping and parsing.
        let outer = events
            .iter()
            .filter_map(|e| e.as_object())
            .find(|o| o["name"].as_str() == Some("characterize"))
            .expect("outer span present");
        let args = outer["args"].as_object().expect("args object");
        assert_eq!(args["job"].as_str(), Some("gpt3\"quoted\""));
        assert_eq!(args["cut_solves"].as_str(), Some("2"));
        // Nested spans record under their hierarchical path.
        assert!(events
            .iter()
            .filter_map(|e| e.as_object())
            .any(|o| o["name"].as_str() == Some("characterize/pd_iteration")));

        // Well-formed nesting per thread: any two spans either nest or
        // are disjoint — intervals never partially overlap.
        for spans in by_tid.values() {
            for (i, a) in spans.iter().enumerate() {
                for b in spans.iter().skip(i + 1) {
                    let disjoint = a.1 <= b.0 || b.1 <= a.0;
                    let a_in_b = b.0 <= a.0 && a.1 <= b.1;
                    let b_in_a = a.0 <= b.0 && b.1 <= a.1;
                    assert!(
                        disjoint || a_in_b || b_in_a,
                        "spans {:?} and {:?} partially overlap",
                        a,
                        b
                    );
                }
            }
        }
    }

    #[test]
    fn empty_trace_is_valid_json() {
        let trace = TraceWriter::new();
        let value = json::parse(&trace.to_chrome_json()).unwrap();
        assert_eq!(
            value.as_object().unwrap()["traceEvents"]
                .as_array()
                .unwrap()
                .len(),
            0
        );
    }
}

mod snapshot_invariants {
    use crate::{MetricsSnapshot, SnapshotBuilder, Telemetry};

    /// Satellite: render order is a tested invariant — stable sort by
    /// metric name then label set, independent of registration order.
    #[test]
    fn render_order_is_independent_of_registration_order() {
        let forward = Telemetry::enabled();
        let reverse = Telemetry::enabled();
        let metrics: Vec<(&'static str, &'static str)> = vec![
            ("zeta_total", "b"),
            ("alpha_total", "z"),
            ("mid_total", "m"),
            ("alpha_total", "a"),
            ("zeta_total", "a"),
        ];
        for (name, label) in &metrics {
            forward.counter_with(name, &[("shard", label)]).inc();
        }
        for (name, label) in metrics.iter().rev() {
            reverse.counter_with(name, &[("shard", label)]).inc();
        }
        let rendered = forward.snapshot().render();
        assert_eq!(rendered, reverse.snapshot().render());
        // And the order is the canonical (name, labels) sort.
        let lines: Vec<&str> = rendered.lines().collect();
        let mut sorted = lines.clone();
        sorted.sort();
        assert_eq!(lines, sorted, "render output is sorted");
    }

    #[test]
    fn render_order_is_stable_under_threaded_registration() {
        let tel = Telemetry::enabled();
        let mut handles = Vec::new();
        for t in 0..8 {
            let tel = tel.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..16 {
                    let shard = format!("{}", (t * 16 + i) % 7);
                    tel.counter_with("threaded_total", &[("shard", &shard)])
                        .inc();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let rendered = tel.snapshot().render();
        let lines: Vec<&str> = rendered.lines().collect();
        let mut sorted = lines.clone();
        sorted.sort();
        assert_eq!(lines, sorted, "threaded registration still renders sorted");
        assert_eq!(lines.len(), 7);
    }

    /// Tentpole: merged counters equal the sum of the inputs' counters
    /// exactly, and histograms merge bucket-wise.
    #[test]
    fn merge_sums_scalars_and_histograms_exactly() {
        let a = Telemetry::enabled();
        let b = Telemetry::enabled();
        a.counter("requests_total").add(3);
        b.counter("requests_total").add(39);
        a.counter_with("only_a_total", &[("k", "v")]).add(7);
        b.float_counter("joules_total").add(0.125);
        let ha = a.histogram("lat_seconds");
        let hb = b.histogram("lat_seconds");
        for _ in 0..10 {
            ha.observe(1e-3);
        }
        for _ in 0..30 {
            hb.observe(0.9);
        }
        let merged = a.snapshot().merge(&b.snapshot());
        assert_eq!(merged.value_of("requests_total", &[]), Some(42.0));
        assert_eq!(merged.value_of("only_a_total", &[("k", "v")]), Some(7.0));
        assert_eq!(merged.value_of("joules_total", &[]), Some(0.125));
        assert_eq!(merged.value_of("lat_seconds_count", &[]), Some(40.0));
        let sum = merged.value_of("lat_seconds_sum", &[]).unwrap();
        assert!((sum - (10.0 * 1e-3 + 30.0 * 0.9)).abs() < 1e-9);
        // Quantiles are recomputed from the merged buckets: 3/4 of the
        // mass sits at 0.9, so the median lives in the slow mode.
        let p50 = merged.value_of("lat_seconds_p50", &[]).unwrap();
        assert!(p50 > 0.25, "median of merged mass in the slow mode: {p50}");
    }

    #[test]
    fn merge_all_equals_pairwise_merges() {
        let tels: Vec<Telemetry> = (0..4).map(|_| Telemetry::enabled()).collect();
        for (i, tel) in tels.iter().enumerate() {
            tel.counter("shard_total").add(i as u64 + 1);
        }
        let snaps: Vec<MetricsSnapshot> = tels.iter().map(|t| t.snapshot()).collect();
        let all = MetricsSnapshot::merge_all(snaps.iter());
        let pairwise = snaps[0].merge(&snaps[1]).merge(&snaps[2]).merge(&snaps[3]);
        assert_eq!(all.render(), pairwise.render());
        assert_eq!(all.value_of("shard_total", &[]), Some(10.0));
    }

    #[test]
    fn builder_snapshots_merge_with_registry_snapshots() {
        let tel = Telemetry::enabled();
        tel.counter("requests_total").add(5);
        let mut builder = SnapshotBuilder::new();
        builder.scalar("requests_total", &[], 7.0).scalar(
            "fleet_admitted_total",
            &[("tenant", "a")],
            3.0,
        );
        let merged = tel.snapshot().merge(&builder.build());
        assert_eq!(merged.value_of("requests_total", &[]), Some(12.0));
        assert_eq!(
            merged.value_of("fleet_admitted_total", &[("tenant", "a")]),
            Some(3.0)
        );
    }

    #[test]
    #[should_panic(expected = "merging a scalar with a histogram")]
    fn merge_panics_on_kind_mismatch() {
        let a = Telemetry::enabled();
        let b = Telemetry::enabled();
        a.counter("m").inc();
        b.histogram("m").observe(1.0);
        let _ = a.snapshot().merge(&b.snapshot());
    }
}

mod quantile_edges {
    use crate::{histogram_quantile, Telemetry};

    /// Satellite: empty, single-sample, and all-equal histograms return
    /// well-defined quantiles.
    #[test]
    fn empty_histogram_has_no_quantiles() {
        assert_eq!(histogram_quantile(&[1.0, 2.0], &[0, 0], 0, 0.99), None);
        let tel = Telemetry::enabled();
        let h = tel.histogram("idle_seconds");
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn single_sample_reports_its_bucket_bound() {
        let tel = Telemetry::enabled();
        let h = tel.histogram("one_seconds");
        h.observe(0.15); // lands in the (0.1, 0.25] bucket
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(h.quantile(q), Some(0.25), "q={q}");
        }
        let snap = tel.snapshot();
        assert_eq!(snap.value_of("one_seconds_p50", &[]), Some(0.25));
        assert_eq!(snap.value_of("one_seconds_p99", &[]), Some(0.25));
    }

    #[test]
    fn all_equal_samples_report_their_bucket_bound() {
        let tel = Telemetry::enabled();
        let h = tel.histogram("const_seconds");
        for _ in 0..1000 {
            h.observe(2e-3); // all in the (1e-3, 2.5e-3] bucket
        }
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(h.quantile(q), Some(2.5e-3), "q={q}");
        }
    }

    #[test]
    fn all_overflow_clamps_to_last_finite_bound() {
        assert_eq!(
            histogram_quantile(&[1.0, 5.0, 10.0], &[0, 0, 0], 4, 0.5),
            Some(10.0)
        );
    }

    #[test]
    fn mixed_mass_still_interpolates() {
        // 2 obs in (0,1], 2 in (1,5]: the median is the first bucket's
        // upper bound, p99 interpolates inside the second bucket.
        let bounds = [1.0, 5.0];
        let buckets = [2, 2];
        let p50 = histogram_quantile(&bounds, &buckets, 4, 0.5).unwrap();
        assert!((p50 - 1.0).abs() < 1e-12);
        let p99 = histogram_quantile(&bounds, &buckets, 4, 0.99).unwrap();
        assert!(p99 > 4.0 && p99 <= 5.0, "p99 = {p99}");
    }
}

mod detectors {
    use crate::detector::{
        AlertState, EwmaConfig, EwmaDetector, PageHinkley, PageHinkleyConfig, Severity,
    };

    #[test]
    fn ewma_fires_on_step_and_clears_on_recovery() {
        let mut d = EwmaDetector::new("energy", EwmaConfig::default());
        let mut alerts = Vec::new();
        // 100 in-band iterations, then a 3x spike for 20, then recovery.
        for i in 0..100u64 {
            let v = 100.0 + (i % 5) as f64; // small periodic wobble
            if let Some(a) = d.update(i, v) {
                alerts.push(a);
            }
        }
        assert!(alerts.is_empty(), "no false positives in-band: {alerts:?}");
        for i in 100..120u64 {
            if let Some(a) = d.update(i, 300.0) {
                alerts.push(a);
            }
        }
        assert_eq!(alerts.len(), 1, "one firing transition: {alerts:?}");
        assert_eq!(alerts[0].state, AlertState::Firing);
        assert_eq!(alerts[0].severity, Severity::Critical);
        assert!(d.is_firing());
        for i in 120..160u64 {
            if let Some(a) = d.update(i, 100.0 + (i % 5) as f64) {
                alerts.push(a);
            }
        }
        assert_eq!(alerts.len(), 2, "then one cleared transition");
        assert_eq!(alerts[1].state, AlertState::Cleared);
        assert!(!d.is_firing());
    }

    #[test]
    fn ewma_never_fires_on_constant_series() {
        let mut d = EwmaDetector::new("flat", EwmaConfig::default());
        for i in 0..10_000u64 {
            assert!(d.update(i, 42.0).is_none(), "constant series fired at {i}");
        }
    }

    #[test]
    fn ewma_abs_floor_gates_zero_baseline_series() {
        let cfg = EwmaConfig {
            abs_floor: 0.5,
            ..EwmaConfig::default()
        };
        let mut d = EwmaDetector::new("degraded_rate", cfg);
        for i in 0..100u64 {
            assert!(d.update(i, 0.0).is_none());
        }
        let alert = d
            .update(100, 3.0)
            .expect("jump past the absolute floor fires");
        assert_eq!(alert.state, AlertState::Firing);
    }

    #[test]
    fn page_hinkley_catches_slow_creep() {
        let mut ph = PageHinkley::new("time", PageHinkleyConfig::default());
        let mut fired_at = None;
        for i in 0..400u64 {
            // 1.0 baseline for 100 iters, then a persistent +20% creep —
            // small enough to stay inside an EWMA band scaled by larger
            // wobble, but PH accumulates it.
            let v = if i < 100 { 1.0 } else { 1.2 };
            if let Some(a) = ph.update(i, v) {
                fired_at = Some(a.iteration);
                break;
            }
        }
        let at = fired_at.expect("PH fires on sustained creep");
        assert!(
            at >= 100,
            "no false positive before the creep, fired at {at}"
        );
        assert!(at < 200, "fires within 100 iterations of onset, at {at}");
    }

    #[test]
    fn page_hinkley_quiet_on_stationary_noise() {
        let mut ph = PageHinkley::new("noise", PageHinkleyConfig::default());
        // Deterministic bounded zig-zag around 1.0.
        for i in 0..10_000u64 {
            let v = 1.0 + 0.02 * ((i % 7) as f64 - 3.0);
            assert!(ph.update(i, v).is_none(), "stationary noise fired at {i}");
        }
    }

    /// Satellite: the same sample sequence replayed twice produces
    /// byte-identical alert streams.
    #[test]
    fn detector_replay_is_byte_identical() {
        let run = || {
            let mut d = EwmaDetector::new("energy", EwmaConfig::default());
            let mut ph = PageHinkley::new("energy", PageHinkleyConfig::default());
            let mut log = String::new();
            for i in 0..600u64 {
                // Piecewise series with two drift episodes.
                let v = match i {
                    0..=199 => 100.0 + (i % 4) as f64,
                    200..=259 => 260.0,
                    260..=449 => 100.0 + (i % 4) as f64,
                    _ => 130.0,
                };
                if let Some(a) = d.update(i, v) {
                    log.push_str(&a.render());
                    log.push('\n');
                }
                if let Some(a) = ph.update(i, v) {
                    log.push_str(&a.render());
                    log.push('\n');
                }
            }
            log
        };
        let first = run();
        let second = run();
        assert!(!first.is_empty(), "the drift episodes produce alerts");
        assert_eq!(first, second, "replay is byte-identical");
    }

    #[test]
    fn alert_log_retains_newest_and_reports_firing() {
        use crate::detector::{Alert, AlertEvidence, AlertLog};
        let log = AlertLog::new(2);
        let mk = |iter: u64, state: AlertState| Alert {
            iteration: iter,
            metric: "m".to_string(),
            detector: "ewma",
            state,
            severity: Severity::Warning,
            evidence: AlertEvidence {
                observed: 1.0,
                baseline: 0.5,
                threshold: 0.2,
                statistic: 2.5,
            },
        };
        log.push(mk(1, AlertState::Firing));
        log.push(mk(2, AlertState::Cleared));
        log.push(mk(3, AlertState::Firing));
        assert_eq!(log.total(), 3);
        let kept = log.alerts();
        assert_eq!(kept.len(), 2, "capacity bound holds");
        assert_eq!(kept[0].iteration, 2);
        let firing = log.firing();
        assert_eq!(firing.len(), 1);
        assert_eq!(firing[0].iteration, 3);
    }
}

mod slo {
    use super::json;
    use crate::slo::{render_slo_json, SloEngine, SloOp, SloSpec};

    #[test]
    fn budgets_track_violations_exactly() {
        let engine = SloEngine::new(vec![SloSpec::new("latency", "p99_s", SloOp::Lte, 1.0)
            .with_budget(0.1)
            .with_window(4)]);
        // 10 ticks, 2 violations: exactly 2x the 10% budget.
        for i in 0..10u64 {
            let v = if i == 3 || i == 7 { 5.0 } else { 0.5 };
            engine.evaluate(i, &[("p99_s", v)]);
        }
        let status = &engine.status()[0];
        assert_eq!(status.ticks, 10);
        assert_eq!(status.violations, 2);
        assert!((status.budget_consumed - 2.0).abs() < 1e-12);
        assert!(!status.healthy);
        assert_eq!(status.last_violation_iter, Some(7));
        // Window of 4 saw one violation (iter 7) → burn rate 2.5x.
        assert_eq!(status.window_violations, 1);
        assert!((status.burn_rate - 2.5).abs() < 1e-12);
        assert!(!engine.all_healthy());
    }

    #[test]
    fn absent_metrics_consume_no_budget() {
        let engine = SloEngine::new(vec![SloSpec::new("rec", "recovery_iters", SloOp::Lte, 3.0)]);
        for i in 0..100u64 {
            engine.evaluate(i, &[("other_metric", 1.0)]);
        }
        let status = &engine.status()[0];
        assert_eq!(status.ticks, 0);
        assert_eq!(status.budget_consumed, 0.0);
        assert!(status.healthy);
        assert_eq!(status.last_value, None);
    }

    #[test]
    fn gte_objectives_hold_above_target() {
        let engine = SloEngine::new(vec![SloSpec::new("tput", "iters_per_s", SloOp::Gte, 10.0)]);
        engine.evaluate(0, &[("iters_per_s", 12.0)]);
        engine.evaluate(1, &[("iters_per_s", 8.0)]);
        let status = &engine.status()[0];
        assert_eq!(status.violations, 1);
    }

    #[test]
    fn slo_json_is_valid_and_complete() {
        let engine = SloEngine::perseus_defaults();
        engine.evaluate(0, &[("extrinsic_share", 0.2), ("recovery_iters", 1.0)]);
        let text = render_slo_json(&engine.status());
        let value = json::parse(&text).expect("/slo body is valid JSON");
        let arr = value.as_array().unwrap();
        assert_eq!(arr.len(), 3, "three default objectives");
        let first = arr[0].as_object().unwrap();
        assert!(first.contains_key("name"));
        assert!(first.contains_key("budget_consumed"));
        assert!(first.contains_key("healthy"));
        // The never-evaluated latency objective serializes its null.
        let latency = arr
            .iter()
            .filter_map(|v| v.as_object())
            .find(|o| o["name"].as_str() == Some("lookup_latency_p99"))
            .unwrap();
        assert_eq!(latency["last_value"], json::Value::Null);
    }
}

mod pipeline {
    use super::json;
    use crate::pipeline::{render_alerts_json, series, ObsPipeline, FLIGHT_CAPACITY};
    use crate::{IterationSample, Telemetry};

    fn sample(iteration: u64, sync_time_s: f64, extrinsic_j: f64) -> IterationSample {
        IterationSample {
            iteration,
            sync_time_s,
            useful_j: 100.0,
            intrinsic_j: 8.0,
            extrinsic_j,
            freq_min_mhz: 990,
            freq_max_mhz: 1410,
            degraded: false,
            degraded_lookups: 0,
            faults: 0,
        }
    }

    #[test]
    fn pipeline_builds_series_and_catches_drift() {
        let pipeline = ObsPipeline::default();
        let mut alerts = Vec::new();
        for i in 0..200u64 {
            alerts.extend(pipeline.ingest(&sample(i, 0.5 + (i % 3) as f64 * 0.001, 2.0)));
        }
        assert!(
            alerts.is_empty(),
            "healthy run produces no alerts: {alerts:?}"
        );
        // Sustained straggler: sync time and extrinsic joules triple.
        let mut fired_at = None;
        for i in 200..260u64 {
            let fired = pipeline.ingest(&sample(i, 1.6, 160.0));
            if fired_at.is_none() && !fired.is_empty() {
                fired_at = Some(i);
            }
        }
        let at = fired_at.expect("drift fires an alert");
        assert!(at <= 210, "alert within 10 iterations of onset, got {at}");
        assert!(!pipeline.firing().is_empty());
        // Alerts name the derived series they watched.
        for alert in pipeline.alerts() {
            assert!(
                [series::ENERGY_PER_ITERATION_J, series::SYNC_TIME_S].contains(&&*alert.metric),
                "unexpected alert metric {}",
                alert.metric
            );
        }
        // The flight recorder kept the newest samples, drift included.
        assert_eq!(pipeline.ingested(), 260);
        let record = pipeline.flight().snapshot();
        assert_eq!(record.samples.len(), FLIGHT_CAPACITY);
        assert_eq!(record.dropped, 260 - FLIGHT_CAPACITY as u64);
        assert_eq!(record.samples.last().map(|s| s.iteration), Some(259));
        assert_eq!(record.samples.last().map(|s| s.sync_time_s), Some(1.6));
    }

    #[test]
    fn recovery_episodes_feed_the_slo_engine() {
        let pipeline = ObsPipeline::default();
        for i in 0..50u64 {
            let mut s = sample(i, 0.5, 2.0);
            s.degraded = (10..=14).contains(&i); // a 5-iteration episode
            pipeline.ingest(&s);
        }
        let status = pipeline.slo_status();
        let recovery = status.iter().find(|s| s.name == "recovery_iters").unwrap();
        assert_eq!(recovery.metric, series::RECOVERY_ITERS);
        assert_eq!(recovery.last_value, Some(5.0));
        assert_eq!(recovery.ticks, 1, "one recovery episode evaluated");
        assert_eq!(recovery.violations, 1, "5 iters > the 3-iter objective");
    }

    #[test]
    fn lookup_latency_histogram_feeds_p99_objective() {
        let tel = Telemetry::enabled();
        let hist = tel.histogram("perseus_server_lookup_seconds");
        let pipeline = ObsPipeline::default();
        pipeline.attach_lookup_latency(hist.clone());
        hist.observe(2e-6);
        pipeline.ingest(&sample(0, 0.5, 2.0));
        let status = pipeline.slo_status();
        let latency = status
            .iter()
            .find(|s| s.name == "lookup_latency_p99")
            .unwrap();
        assert_eq!(latency.metric, series::LOOKUP_LATENCY_P99_S);
        assert_eq!(latency.ticks, 1);
        assert_eq!(latency.violations, 0, "2 µs is inside the 50 µs objective");
        assert!(latency.last_value.is_some());
    }

    /// Satellite: no-fault soak — 10k healthy iterations, zero alerts.
    #[test]
    fn ten_thousand_iteration_soak_produces_zero_alerts() {
        let pipeline = ObsPipeline::default();
        // Deterministic small jitter from SplitMix64 (seeded, no RNG dep).
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            (z ^ (z >> 31)) as f64 / u64::MAX as f64
        };
        for i in 0..10_000u64 {
            let jitter = next() * 0.02 - 0.01; // ±1%
            let fired = pipeline.ingest(&sample(i, 0.5 * (1.0 + jitter), 2.0 * (1.0 + jitter)));
            assert!(fired.is_empty(), "soak fired at iteration {i}: {fired:?}");
        }
        assert_eq!(pipeline.alert_log().total(), 0);
        assert!(pipeline.slo_healthy());
    }

    #[test]
    fn alerts_json_is_valid() {
        let pipeline = ObsPipeline::default();
        for i in 0..120u64 {
            pipeline.ingest(&sample(i, 0.5, 2.0));
        }
        for i in 120..140u64 {
            pipeline.ingest(&sample(i, 2.5, 200.0));
        }
        let text = pipeline.alerts_json();
        let value = json::parse(&text).expect("/alerts body is valid JSON");
        let arr = value.as_array().unwrap();
        assert!(!arr.is_empty());
        let first = arr[0].as_object().unwrap();
        assert_eq!(first["state"].as_str(), Some("firing"));
        assert!(first.contains_key("observed"));
        assert!(first.contains_key("baseline"));
        // Empty log renders an empty array.
        assert_eq!(render_alerts_json(&[]), "[]");
    }
}

mod http_server {
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::sync::Arc;

    use super::json;
    use crate::pipeline::ObsPipeline;
    use crate::{Endpoints, IterationSample, Telemetry, TelemetryServer};

    fn get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response
            .split_once("\r\n\r\n")
            .expect("response has a blank line");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_metrics_alerts_slo_and_health() {
        let tel = Telemetry::enabled();
        tel.counter("requests_total").add(3);
        let pipeline = Arc::new(ObsPipeline::default());
        pipeline.ingest(&IterationSample {
            iteration: 0,
            sync_time_s: 0.5,
            useful_j: 100.0,
            intrinsic_j: 8.0,
            extrinsic_j: 2.0,
            ..IterationSample::default()
        });
        let server = TelemetryServer::bind(
            "127.0.0.1:0",
            Endpoints::from_telemetry(tel.clone()).with_pipeline(Arc::clone(&pipeline)),
        )
        .unwrap();
        let addr = server.addr();

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("Content-Type: text/plain"), "{head}");
        assert_eq!(body, tel.snapshot().render(), "/metrics serves the render");

        let (head, body) = get(addr, "/alerts");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert!(head.contains("application/json"));
        json::parse(&body).expect("/alerts is valid JSON");

        let (head, body) = get(addr, "/slo");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        let value = json::parse(&body).expect("/slo is valid JSON");
        assert_eq!(value.as_array().unwrap().len(), 3);

        let (head, body) = get(addr, "/health");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert_eq!(body, "ok\n");

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");

        server.shutdown();
        // After shutdown the port stops accepting (bind it again to prove
        // the listener is gone).
        std::net::TcpListener::bind(addr).expect("port released after shutdown");
    }

    #[test]
    fn metrics_reflect_live_updates() {
        let tel = Telemetry::enabled();
        let server =
            TelemetryServer::bind("127.0.0.1:0", Endpoints::from_telemetry(tel.clone())).unwrap();
        let addr = server.addr();
        let (_, body) = get(addr, "/metrics");
        assert_eq!(body, "");
        tel.counter("live_total").add(7);
        let (_, body) = get(addr, "/metrics");
        assert_eq!(body, "live_total 7\n", "scrape reflects the update");
    }

    #[test]
    fn custom_metrics_source_overrides_default() {
        let server = TelemetryServer::bind(
            "127.0.0.1:0",
            Endpoints::default().with_metrics(|| "rollup_total 42\n".to_string()),
        )
        .unwrap();
        let (_, body) = get(server.addr(), "/metrics");
        assert_eq!(body, "rollup_total 42\n");
    }

    #[test]
    fn non_get_methods_are_rejected() {
        let server = TelemetryServer::bind("127.0.0.1:0", Endpoints::default()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write!(stream, "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 405"), "{response}");
    }
}
