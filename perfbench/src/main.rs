//! `perfbench`: the seeded end-to-end and per-layer benchmark of the
//! Perseus planning pipeline (profile → characterize → cache → serve →
//! journal → replicate → emulate).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold-plan|fleet-serve|durable-train> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload once, untraced, and prints the
//! end-to-end metrics. `--trace 1` runs it untraced and then again with
//! spans recorded around every call the benchmark makes, and prints the
//! per-layer metrics, where the traced wall time went, and the tracing
//! overhead. Either way the last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md`.

mod check;
mod cold_plan;
mod durable_train;
mod energy;
mod fleet_serve;
mod report;
mod rng;
mod shapes;
mod stats;
mod steal;
mod trace;
mod workload;

#[cfg(test)]
mod determinism;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{result_line, span_of, time_scale, unit_of, Pass, END_TO_END, PER_LAYER};
use shapes::Fallible;
use trace::{breakdown, durations, Breakdown, SpanRow, Tracer};
use workload::RunConfig;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ColdPlan,
    FleetServe,
    DurableTrain,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::ColdPlan,
        Workload::FleetServe,
        Workload::DurableTrain,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ColdPlan => "cold-plan",
            Workload::FleetServe => "fleet-serve",
            Workload::DurableTrain => "durable-train",
        }
    }

    /// Runs one pass sized for `seconds`.
    fn run(self, cfg: &RunConfig, seconds: u64, tracer: &Tracer) -> Fallible<Pass> {
        match self {
            Workload::ColdPlan => {
                cold_plan::run(cfg, &cold_plan::Size::for_seconds(seconds), tracer)
            }
            Workload::FleetServe => {
                fleet_serve::run(cfg, &fleet_serve::Size::for_seconds(seconds), tracer)
            }
            Workload::DurableTrain => {
                durable_train::run(cfg, &durable_train::Size::for_seconds(seconds), tracer)
            }
        }
    }
}

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <cold-plan|fleet-serve|durable-train> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10u64, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} wants a whole number, got {v:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = number(&value)?,
            "--seconds" => seconds = number(&value)?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Where run artifacts go: beside the benchmark's executable, inside the
/// build directory.
fn artifact_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("perfbench/target"))
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work_dir = artifact_dir().join("perfbench-runs").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let out = execute(&args, started, &work_dir);
    let _ = std::fs::remove_dir_all(&work_dir);
    match out {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}

/// Runs the requested passes; returns the stdout lines, result last.
fn execute(args: &Args, started: Instant, work_dir: &Path) -> Fallible<Vec<String>> {
    let cfg = |pass: &str, started: Option<Instant>| RunConfig {
        seed: args.seed,
        work_dir: work_dir.join(pass),
        started,
    };
    let base = args.workload.run(
        &cfg("untraced", Some(started)),
        args.seconds,
        &Tracer::off(),
    )?;
    let mut lines = base.lines.clone();
    let (mut attempted, mut failed) = (base.attempted, base.failed);

    let values: Vec<(&str, &str, Option<f64>)> = if args.trace {
        let tracer = Tracer::on();
        let traced = args
            .workload
            .run(&cfg("traced", None), args.seconds, &tracer)?;
        attempted += traced.attempted + 1;
        failed += traced.failed;
        let rows = tracer.rows();
        let split = breakdown(&rows, "run").ok_or("the traced pass recorded no run span")?;
        if split.total() != split.wall {
            failed += 1;
            eprintln!("perfbench: self times do not add up to the traced wall time");
        }
        let trace_file = artifact_dir().join("perfbench-traces").join(format!(
            "{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        let exported = tracer.write_chrome_trace(&trace_file)?;
        lines.push(format!("traced pass ({} spans):", rows.len()));
        lines.extend(traced.lines.iter().map(|l| format!("  {l}")));
        lines.extend(split_lines(&split));
        lines.push("  tracing overhead (traced - untraced):".to_string());
        for &(name, unit) in END_TO_END {
            if let (Some(t), Some(b)) = (traced.e2e.get(name), base.e2e.get(name)) {
                lines.push(format!("    {name:<18} {:>+14.4} {unit}", t - b));
            }
        }
        lines.push(format!(
            "  chrome trace: {} ({exported} spans)",
            trace_file.display()
        ));
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                (
                    name,
                    unit,
                    Some(layer_value(name, &base, &traced, &rows, &split)),
                )
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| (name, unit, base.e2e.get(name).copied()))
            .collect()
    };
    let metrics: Vec<(&str, &str, f64)> = values
        .into_iter()
        .map(|(name, unit, v)| match v {
            Some(v) if v.is_finite() => (name, unit, v),
            _ => {
                eprintln!("perfbench: {} produced no {name}", args.workload.name());
                failed += 1;
                (name, unit, 0.0)
            }
        })
        .collect();

    lines.push("end-to-end (untraced):".to_string());
    for &(name, unit) in END_TO_END {
        if let Some(v) = base.e2e.get(name) {
            lines.push(format!("  {name:<18} {v:>14.4} {unit}"));
        }
    }
    if args.trace {
        lines.push("per-layer (traced):".to_string());
        for (name, unit, v) in &metrics {
            lines.push(format!("  {name:<28} {v:>16.4} {unit}"));
        }
    }
    lines.push(result_line(attempted, failed, &metrics));
    Ok(lines)
}

/// One per-layer metric of the traced pass. Values the workload computed
/// come first; a timing otherwise reads the span named after it; the
/// `selftime`, `unattributed` and `trace` families read the breakdown of
/// the `run` span; `overhead.X` is traced minus untraced `X`. A layer the
/// workload bypasses reads 0.
fn layer_value(name: &str, base: &Pass, traced: &Pass, rows: &[SpanRow], split: &Breakdown) -> f64 {
    let ms = |d: &Duration| d.as_secs_f64() * 1e3;
    if let Some(v) = traced.layer.get(name) {
        return *v;
    }
    let (family, rest) = name.split_once('.').unwrap_or((name, ""));
    let key = rest.strip_suffix("_ms").unwrap_or(rest);
    match family {
        "selftime" => split.layers.get(key).map_or(0.0, ms),
        "unattributed" => split.unattributed.get(key).map_or(0.0, ms),
        "overhead" => match (traced.e2e.get(rest), base.e2e.get(rest)) {
            (Some(t), Some(b)) => t - b,
            _ => 0.0,
        },
        "trace" if rest == "wall_ms" => ms(&split.wall),
        "trace" if rest == "spans" => rows.len() as f64,
        _ => {
            let scale = unit_of(name).and_then(time_scale).unwrap_or(1.0);
            let (span, slowest) = span_of(name);
            let d = durations(rows, &span);
            let v = if slowest {
                stats::max(&d)
            } else {
                stats::median(&d)
            };
            v.map_or(0.0, |v| v * scale)
        }
    }
}

/// Report lines for where the traced wall time went.
fn split_lines(split: &Breakdown) -> Vec<String> {
    let ms = |d: &Duration| d.as_secs_f64() * 1e3;
    let mut lines = vec![format!(
        "  traced wall {:.3} ms = layer self times + unattributed remainder:",
        ms(&split.wall)
    )];
    for (layer, d) in &split.layers {
        lines.push(format!("    {layer:<24} {:>12.3} ms", ms(d)));
    }
    for (root, d) in &split.unattributed {
        lines.push(format!("    unattributed in {root:<8} {:>12.3} ms", ms(d)));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "fleet-serve",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::FleetServe);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "1"]).is_err(), "workload is required");
        assert!(args(&["--workload", "cold-plan", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "cold-plan", "--seed"]).is_err());
        assert!(args(&["--workload", "cold-plan", "--seed", "x"]).is_err());
    }
}
