//! Figure 8 scaling: how the *extrinsic* share of energy bloat grows
//! with straggler slowdown across the Table 5 strong-scaling
//! configurations (A100, all-max attribution), with a machine-checkable
//! monotone-growth claim line. Stdout is golden-gated in CI.
//!
//! With `--metrics`, characterization telemetry is recorded and the
//! snapshot printed to **stderr**; stdout stays byte-identical.
//!
//! Run: `cargo run --release -p perseus-bench --bin fig8_scaling [-- --metrics]`

use perseus_bench::{usage_exit, SuiteTelemetry};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let suite = SuiteTelemetry::from_args(&args).unwrap_or_else(|e| usage_exit(&e));
    let tel = suite.telemetry().clone();
    let stdout = std::io::stdout();
    perseus_bench::fig8_scaling_report_with(&mut stdout.lock(), &tel).expect("write to stdout");
    suite.finish();
}
