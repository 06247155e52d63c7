//! Perseus experiment harness.
//!
//! One binary per table/figure of the paper's evaluation (§6); see
//! `DESIGN.md` for the experiment index and `EXPERIMENTS.md` for the
//! paper-vs-measured record. The [`claims`] registry checks every written
//! contract of the reproduction in one run. Shared plumbing lives here:
//! the workload matrix of Appendix B Tables 8–10 and the flag parsing.

pub mod claims;
mod reports;
mod suite;

pub use reports::{
    breakdown_reports_with, emulation_suite_report_with, fig7_breakdown_report_with,
    fig8_scaling_report_with, fig9_report_with, kareus_report_with, table3_report_with,
    BreakdownRow, KareusSweep,
};
pub use suite::{flag_value, usage_exit, SuiteTelemetry};

use perseus_cluster::{ClusterConfig, Emulator, EmulatorError};
use perseus_core::FrontierOptions;
use perseus_gpu::GpuSpec;
use perseus_models::{zoo, ModelSpec};
use perseus_pipeline::ScheduleKind;
use perseus_telemetry::Telemetry;

/// One experiment workload: a model with the batch parameters of Appendix
/// B (Tables 9/10) for a given testbed.
#[derive(Clone)]
pub struct Workload {
    /// Display name used in the paper's tables.
    pub name: &'static str,
    /// Model constructor applied to the microbatch size.
    pub model: fn(usize) -> ModelSpec,
    /// Per-pipeline microbatch size.
    pub microbatch: usize,
    /// Microbatches per iteration.
    pub n_microbatches: usize,
}

/// The five A100 workloads of Table 10 (four-stage pipeline parallelism).
pub fn a100_workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "GPT-3 1.3B",
            model: zoo::gpt3_xl,
            microbatch: 4,
            n_microbatches: 128,
        },
        Workload {
            name: "BERT 1.3B",
            model: zoo::bert_huge,
            microbatch: 8,
            n_microbatches: 32,
        },
        Workload {
            name: "T5 3B",
            model: zoo::t5_3b,
            microbatch: 4,
            n_microbatches: 32,
        },
        Workload {
            name: "Bloom 3B",
            model: zoo::bloom_3b,
            microbatch: 4,
            n_microbatches: 128,
        },
        Workload {
            name: "Wide-ResNet 1.5B",
            model: zoo::wide_resnet101_8,
            microbatch: 64,
            n_microbatches: 24,
        },
    ]
}

/// The five A40 workloads of Table 9 (eight-stage pipeline parallelism).
pub fn a40_workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "GPT-3 2.7B",
            model: zoo::gpt3_2_7b,
            microbatch: 4,
            n_microbatches: 256,
        },
        Workload {
            name: "BERT 1.3B",
            model: zoo::bert_huge,
            microbatch: 8,
            n_microbatches: 32,
        },
        Workload {
            name: "T5 3B",
            model: zoo::t5_3b,
            microbatch: 4,
            n_microbatches: 32,
        },
        Workload {
            name: "Bloom 3B",
            model: zoo::bloom_3b,
            microbatch: 4,
            n_microbatches: 128,
        },
        Workload {
            name: "Wide-ResNet 1.5B",
            model: zoo::wide_resnet101_8,
            microbatch: 32,
            n_microbatches: 48,
        },
    ]
}

/// Builds the single-pipeline emulator for a workload on `gpu` with
/// `n_stages` stages (the §6.2 testbed setting).
///
/// # Errors
///
/// Propagates emulator construction failures.
pub fn testbed_emulator(
    w: &Workload,
    gpu: GpuSpec,
    n_stages: usize,
) -> Result<Emulator, EmulatorError> {
    testbed_emulator_with(w, gpu, n_stages, Telemetry::disabled())
}

/// [`testbed_emulator`] recording characterization counters into
/// `telemetry`.
///
/// # Errors
///
/// Propagates emulator construction failures.
pub fn testbed_emulator_with(
    w: &Workload,
    gpu: GpuSpec,
    n_stages: usize,
    telemetry: Telemetry,
) -> Result<Emulator, EmulatorError> {
    Emulator::with_telemetry(
        ClusterConfig {
            model: (w.model)(w.microbatch),
            gpu,
            n_stages,
            n_microbatches: w.n_microbatches,
            n_pipelines: 1,
            tensor_parallel: 1,
            schedule: ScheduleKind::OneFOneB,
            frontier: FrontierOptions::default(),
        },
        telemetry,
    )
}
