//! Metric names and units, the per-pass record, and the result line.
//!
//! `BENCHMARK.json` lists exactly [`END_TO_END`] and [`PER_LAYER`] (a test
//! keeps them in step). Every workload prints every metric of the list
//! its mode asks for: per-layer metrics of a layer the workload bypasses
//! read 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by an untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("lookup_p50_us", "us"),
    ("energy_saved_pct", "%"),
    ("iter_time_pct", "%"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by a traced run (`--trace 1`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("models.partition_ms", "ms"),
    ("pipeline.build_ms", "ms"),
    ("profiler.profile_ms", "ms"),
    ("profiler.sim_clock_s", "s"),
    ("cluster.build_ms", "ms"),
    ("core.context_ms", "ms"),
    ("core.characterize_ms", "ms"),
    ("core.characterize_max_ms", "ms"),
    ("core.sleep_ms", "ms"),
    ("core.frontier_points", "count"),
    ("core.fingerprint_us", "us"),
    ("core.cache_hit_ratio", "ratio"),
    ("core.cache_hits", "count"),
    ("core.cache_misses", "count"),
    ("core.cache_entries", "count"),
    ("flow.augmenting_paths", "count"),
    ("flow.paths_saved_ratio", "ratio"),
    ("server.register_us", "us"),
    ("server.submit_us", "us"),
    ("server.wait_ms", "ms"),
    ("server.wait_max_ms", "ms"),
    ("server.straggler_us", "us"),
    ("server.status_us", "us"),
    ("server.deployments", "count"),
    ("server.deploy_bytes", "B"),
    ("server.advance_us", "us"),
    ("server.advance_max_us", "us"),
    ("server.ingest_drift_us", "us"),
    ("server.drift_replans", "count"),
    ("telemetry.observe_us", "us"),
    ("cluster.report_us", "us"),
    ("store.journal_appends", "count"),
    ("store.snapshots", "count"),
    ("store.snapshot_stall_ms", "ms"),
    ("store.snapshot_bytes", "B"),
    ("store.journal_bytes", "B"),
    ("store.replayed_events", "count"),
    ("store.recover_ms", "ms"),
    ("replica.sync_ms", "ms"),
    ("replica.sync_max_ms", "ms"),
    ("replica.syncs", "count"),
    ("replica.records_shipped", "count"),
    ("replica.checkpoint_syncs", "count"),
    ("replica.checkpoint_ratio", "ratio"),
    ("replica.lag_records_max", "count"),
    ("replica.promote_replayed", "count"),
    ("replica.promote_ms", "ms"),
    ("selftime.models_ms", "ms"),
    ("selftime.pipeline_ms", "ms"),
    ("selftime.profiler_ms", "ms"),
    ("selftime.cluster_ms", "ms"),
    ("selftime.server_ms", "ms"),
    ("selftime.telemetry_ms", "ms"),
    ("selftime.store_ms", "ms"),
    ("selftime.replica_ms", "ms"),
    ("unattributed.run_ms", "ms"),
    ("unattributed.setup_ms", "ms"),
    ("unattributed.batch_ms", "ms"),
    ("unattributed.lookups_ms", "ms"),
    ("unattributed.round_ms", "ms"),
    ("unattributed.admission_ms", "ms"),
    ("unattributed.iteration_ms", "ms"),
    ("unattributed.post_ms", "ms"),
    ("trace.wall_ms", "ms"),
    ("trace.spans", "count"),
    ("overhead.setup_s", "s"),
    ("overhead.ops_per_s", "1/s"),
    ("overhead.op_p50_ms", "ms"),
    ("overhead.lookup_p50_us", "us"),
    ("overhead.energy_saved_pct", "%"),
    ("overhead.iter_time_pct", "%"),
    ("overhead.peak_rss_mb", "MiB"),
];

/// The span a per-layer timing is read from, and whether it reports the
/// slowest call rather than the median: spans are named after their
/// metric, and `X_max_ms` reads the span `X_ms`.
pub fn span_of(metric: &str) -> (String, bool) {
    match metric.replacen("_max_", "_", 1) {
        span if span != metric => (span, true),
        _ => (metric.to_string(), false),
    }
}

/// Seconds-to-unit factor of a time unit; `None` for other units.
pub fn time_scale(unit: &str) -> Option<f64> {
    match unit {
        "s" => Some(1.0),
        "ms" => Some(1e3),
        "us" => Some(1e6),
        _ => None,
    }
}

/// The unit of a metric in either list.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// Failed checks described on stderr before the rest are only counted.
const MAX_REPORTED_FAILURES: u64 = 20;

/// What one pass over a workload produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Operations attempted, output checks included.
    pub attempted: u64,
    /// Operations that returned an error or failed their output check.
    pub failed: u64,
    /// End-to-end metric values by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer values computed by the workload itself (counts, ratios);
    /// span-derived ones are filled in from the trace.
    pub layer: BTreeMap<&'static str, f64>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
}

impl Pass {
    /// Counts one operation; returns `ok`.
    pub fn op(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }

    /// Counts one output check, describing it on stderr when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !self.op(ok) && self.failed <= MAX_REPORTED_FAILURES {
            eprintln!("perfbench: check failed: {}", what());
        }
        ok
    }

    /// Counts one operation from its result, describing an error.
    pub fn result<T, E: std::fmt::Display>(&mut self, r: Result<T, E>, what: &str) -> Option<T> {
        match r {
            Ok(v) => {
                self.op(true);
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }

    /// Appends a human-readable line.
    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }
}

/// The peak resident set size of this process (VmHWM), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// The last stdout line: `{"correct", "attempted", "failed", "metrics"}`.
/// Values print with every digit Rust's shortest round-trip form keeps.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn max_metrics_read_their_base_span() {
        assert_eq!(
            span_of("server.wait_max_ms"),
            ("server.wait_ms".into(), true)
        );
        assert_eq!(span_of("server.wait_ms"), ("server.wait_ms".into(), false));
        for (name, _) in PER_LAYER.iter().filter(|(n, _)| n.contains("_max_")) {
            let (span, _) = span_of(name);
            assert!(
                PER_LAYER.iter().any(|(n, _)| *n == span),
                "{name} has no base"
            );
        }
    }

    #[test]
    fn result_line_is_json_shaped() {
        let line = result_line(3, 0, &[("a_s", "s", 1.25), ("b", "count", 12.0)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"a_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"b\": {\"value\": 12, \"unit\": \"count\"}}}"
        );
        assert!(result_line(3, 1, &[]).starts_with("{\"correct\": false"));
    }

    #[test]
    fn pass_counts_operations_and_failures() {
        let mut p = Pass::default();
        p.op(true);
        p.check(false, || "expected".into());
        assert_eq!(p.result::<u8, &str>(Err("boom"), "call"), None);
        assert_eq!((p.attempted, p.failed), (3, 2));
    }

    #[test]
    fn benchmark_json_lists_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let body = &text[start..];
            let body = &body[..body.find(']').expect("list end")];
            body.split("\"name\"")
                .skip(1)
                .map(|entry| {
                    let field = |k: &str, s: &str| -> String {
                        let s = if k.is_empty() {
                            s
                        } else {
                            &s[s.find(k).expect(k) + k.len()..]
                        };
                        let s = &s[s.find('"').expect("open quote") + 1..];
                        s[..s.find('"').expect("close quote")].to_string()
                    };
                    (field("", entry), field("\"unit\"", entry))
                })
                .collect()
        };
        let want = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), want(END_TO_END));
        assert_eq!(section("per_layer"), want(PER_LAYER));
    }
}
