//! Table 3: intrinsic energy-bloat reduction (no stragglers) and iteration
//! slowdown — Perseus vs EnvPipe, on (a) four-stage A100 and (b)
//! eight-stage A40, with the workload parameters of Appendix B.
//!
//! With `--metrics`, characterization telemetry is recorded and the
//! metrics snapshot is printed to **stderr**; stdout stays byte-identical
//! to the metrics-free run (the golden-trace CI gate relies on this).
//!
//! Run: `cargo run --release -p perseus-bench --bin table3_intrinsic [-- --metrics]`

use perseus_bench::{usage_exit, SuiteTelemetry};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let suite = SuiteTelemetry::from_args(&args).unwrap_or_else(|e| usage_exit(&e));
    let tel = suite.telemetry().clone();
    let stdout = std::io::stdout();
    perseus_bench::table3_report_with(&mut stdout.lock(), &tel).expect("write to stdout");
    suite.finish();
}
