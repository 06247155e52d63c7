//! Figure 7 breakdown: energy-bloat attribution of the §6.3 M=96 A100
//! workloads at straggler slowdown 1.2 — total cluster joules split into
//! useful / intrinsic-bloat / extrinsic-bloat under all-max and Perseus,
//! with per-kind and per-stage detail and a machine-checkable claim line
//! (both bloat components nonzero). Stdout is golden-gated in CI.
//!
//! * `--svg <path>` additionally renders the stacked-bar chart; `--svg`
//!   without a path exits 2.
//! * `--metrics` records characterization telemetry and prints the
//!   snapshot to **stderr**; stdout stays byte-identical.
//!
//! Run: `cargo run --release -p perseus-bench --bin fig7_breakdown \
//!        [-- --svg fig7.svg] [--metrics]`

use perseus_bench::{flag_value, usage_exit, SuiteTelemetry};
use perseus_viz::{breakdown_svg, BreakdownBar, BreakdownPlot};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let suite = SuiteTelemetry::from_args(&args).unwrap_or_else(|e| usage_exit(&e));
    let svg_path = flag_value(&args, "--svg").unwrap_or_else(|e| usage_exit(&e));

    let rows =
        perseus_bench::fig7_breakdown_report_with(&mut std::io::stdout().lock(), suite.telemetry())
            .expect("write to stdout");

    if let Some(path) = svg_path {
        let svg = breakdown_svg(&BreakdownPlot {
            title: "Figure 7: energy-bloat breakdown (slowdown 1.2)".into(),
            bars: rows
                .iter()
                .map(|r| BreakdownBar {
                    label: format!("{} {}", r.model, r.policy),
                    useful_j: r.breakdown.useful_j,
                    intrinsic_j: r.breakdown.intrinsic_j,
                    extrinsic_j: r.breakdown.extrinsic_j,
                    sleep_j: 0.0,
                })
                .collect(),
        });
        std::fs::write(path, svg).expect("write svg");
    }
    suite.finish();
}
