//! GPU-independent layer cost descriptors.

use perseus_gpu::{GpuSpec, Workload};

/// Architectural role of a partitionable layer.
///
/// Pipeline partitioning operates at this granularity (Appendix B: one
/// transformer layer, or one bottleneck block for Wide-ResNet).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerKind {
    /// Token/position embedding lookup (memory-bound).
    Embedding,
    /// Transformer encoder layer (bidirectional self-attention + FFN).
    TransformerEncoder,
    /// Transformer decoder layer (causal self-attention + FFN).
    TransformerDecoder,
    /// Transformer decoder layer with cross-attention (T5-style).
    TransformerCrossDecoder,
    /// Language-modeling head: hidden → vocab projection. Large vocab
    /// models make the last pipeline stage heavy (Appendix B).
    LmHead,
    /// Convolution stem (Wide-ResNet 7×7 conv + pool).
    ConvStem,
    /// Bottleneck residual block; `group` selects the resolution stage 0–3.
    Bottleneck {
        /// Which of the four ResNet groups this block belongs to.
        group: u8,
    },
    /// Global pooling + classifier head.
    Classifier,
}

/// Cost of one partitionable layer for one microbatch, expressed in
/// "time-FLOPs" — raw FLOPs divided by the kernel's sustained-efficiency
/// factor, so that latency = time_flops / (GPU effective FLOP/s).
#[derive(Debug, Clone)]
pub struct LayerCost {
    /// Human-readable identifier, e.g. `"decoder.17"`.
    pub name: String,
    /// Role of the layer.
    pub kind: LayerKind,
    /// Forward time-FLOPs per microbatch.
    pub fwd_tflops: f64,
    /// Backward time-FLOPs per microbatch (≈ 2× forward).
    pub bwd_tflops: f64,
    /// Fraction of forward latency that does not scale with SM clock
    /// (memory stalls, kernel launches).
    pub fwd_mem_frac: f64,
    /// Same for backward.
    pub bwd_mem_frac: f64,
    /// Dynamic-power utilization while running forward.
    pub fwd_util: f64,
    /// Dynamic-power utilization while running backward.
    pub bwd_util: f64,
}

impl LayerCost {
    /// Forward latency at the GPU's maximum SM clock, seconds.
    pub fn fwd_latency_at_max(&self, gpu: &GpuSpec) -> f64 {
        self.fwd_tflops / (gpu.flops_per_mhz_s * gpu.max_freq_mhz as f64)
    }

    /// Converts the forward pass into a [`Workload`] on `gpu`.
    pub fn fwd_workload(&self, gpu: &GpuSpec) -> Workload {
        cost_to_workload(self.fwd_tflops, self.fwd_mem_frac, self.fwd_util, gpu)
    }

    /// Converts the backward pass into a [`Workload`] on `gpu`.
    pub fn bwd_workload(&self, gpu: &GpuSpec) -> Workload {
        cost_to_workload(self.bwd_tflops, self.bwd_mem_frac, self.bwd_util, gpu)
    }

    /// Scales the layer's compute by `k` (tensor parallelism divides work
    /// equally across GPUs, §4.4).
    pub fn scaled(&self, k: f64) -> LayerCost {
        LayerCost {
            fwd_tflops: self.fwd_tflops * k,
            bwd_tflops: self.bwd_tflops * k,
            ..self.clone()
        }
    }
}

/// Splits a total max-clock latency into clock-proportional and
/// clock-insensitive parts per the memory-bound fraction.
fn cost_to_workload(tflops: f64, mem_frac: f64, util: f64, gpu: &GpuSpec) -> Workload {
    let t_at_max = tflops / (gpu.flops_per_mhz_s * gpu.max_freq_mhz as f64);
    let mem_time = t_at_max * mem_frac;
    let compute = t_at_max * (1.0 - mem_frac) * gpu.max_freq_mhz as f64;
    Workload::new(compute, mem_time, util)
}
