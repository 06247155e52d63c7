//! Figure 9 (and Appendix G Figures 11/12): iteration time–energy
//! frontiers of Perseus versus the two Zeus-derived baselines.
//!
//! Emits CSV series (`policy,time_s,energy_j`) for:
//!   (a) GPT-3 1.3B, four-stage pipeline, A100;
//!   (b) GPT-3 2.7B, eight-stage pipeline, A40;
//!   (c) GPT-3 6.7B, 3D parallelism (DP 2, TP 2, PP 4), A40;
//! plus the Appendix G workloads via `--appendix`.
//!
//! With `--metrics`, characterization telemetry is recorded and the
//! metrics snapshot is printed to **stderr**; stdout stays byte-identical
//! to the metrics-free run.
//!
//! Run: `cargo run --release -p perseus-bench --bin fig9_frontier [-- --appendix] [-- --metrics]`

use perseus_bench::{usage_exit, SuiteTelemetry};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let appendix = args.iter().any(|a| a == "--appendix");
    let suite = SuiteTelemetry::from_args(&args).unwrap_or_else(|e| usage_exit(&e));
    let tel = suite.telemetry().clone();
    let stdout = std::io::stdout();
    perseus_bench::fig9_report_with(&mut stdout.lock(), appendix, &tel).expect("write to stdout");
    suite.finish();
}
