//! Large-scale emulation suite (§6.3): reproduces **Table 6** (intrinsic
//! savings vs microbatch count for GPT-3 175B and Bloom 176B), **Figure 7**
//! (savings breakdown at straggler slowdown 1.2 on 1,024 GPUs), and
//! **Figure 8** (savings vs straggler slowdown across the Table 5
//! strong-scaling configurations).
//!
//! One emulator per (model, GPU, microbatch count) is characterized once
//! and reused across all three artifacts. Stdout is recorded in
//! `results/emulation_suite.txt`.
//!
//! With `--metrics`, characterization telemetry is recorded and the
//! metrics snapshot is printed to **stderr**; stdout stays byte-identical
//! to the metrics-free run (a CI check relies on this).
//!
//! Run: `cargo run --release -p perseus-bench --bin emulation_suite \
//!        [-- --metrics] [--serve 127.0.0.1:9184]`

use perseus_bench::{usage_exit, SuiteTelemetry};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let suite = SuiteTelemetry::from_args(&args).unwrap_or_else(|e| usage_exit(&e));
    perseus_bench::emulation_suite_report_with(&mut std::io::stdout().lock(), suite.telemetry())
        .expect("write to stdout");
    suite.finish();
}
