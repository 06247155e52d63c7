//! Per-stage instruction programs for pipeline-parallel schedules.

use std::fmt;

/// What a computation does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CompKind {
    /// Forward pass of one microbatch through one stage.
    Forward,
    /// Backward pass (gradient computation).
    Backward,
    /// Activation recomputation preceding a backward pass (Merak-style
    /// early recomputation; same work as a forward pass).
    Recompute,
}

impl fmt::Display for CompKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompKind::Forward => write!(f, "F"),
            CompKind::Backward => write!(f, "B"),
            CompKind::Recompute => write!(f, "R"),
        }
    }
}

/// One computation instance: a (stage, microbatch, chunk, kind) tuple.
///
/// `chunk` selects the model chunk under interleaved schedules (stage `s`
/// hosts virtual stages `s, s + N, s + 2N, ...`); plain schedules use
/// chunk 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Computation {
    /// Pipeline stage index, `0..n_stages`.
    pub stage: usize,
    /// Microbatch index, `0..n_microbatches`.
    pub microbatch: usize,
    /// Model chunk hosted by this stage (interleaved schedules), else 0.
    pub chunk: usize,
    /// Forward / backward / recompute.
    pub kind: CompKind,
}

impl fmt::Display for Computation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.chunk == 0 {
            write!(f, "{}{}@S{}", self.kind, self.microbatch, self.stage)
        } else {
            write!(
                f,
                "{}{}@S{}c{}",
                self.kind, self.microbatch, self.stage, self.chunk
            )
        }
    }
}

/// Profiling key: all microbatches of a (stage, chunk, kind) triple run
/// the same code on the same data shape, so they share one time/energy
/// profile (§5 — the profiler wraps "forward" and "backward" per stage).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpKey {
    /// Pipeline stage.
    pub stage: usize,
    /// Model chunk on that stage (0 for non-interleaved schedules).
    pub chunk: usize,
    /// Forward / backward / recompute.
    pub kind: CompKind,
}

impl OpKey {
    /// Key for a non-interleaved (single-chunk) computation.
    pub fn plain(stage: usize, kind: CompKind) -> OpKey {
        OpKey {
            stage,
            chunk: 0,
            kind,
        }
    }
}

impl Computation {
    /// Profiling key of this computation.
    pub fn op_key(&self) -> OpKey {
        OpKey {
            stage: self.stage,
            chunk: self.chunk,
            kind: self.kind,
        }
    }
}

/// One instruction of a stage's program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instruction {
    /// Microbatch the instruction processes.
    pub microbatch: usize,
    /// Model chunk the instruction runs (0 unless interleaved).
    pub chunk: usize,
    /// Operation kind.
    pub kind: CompKind,
}

/// Supported pipeline schedules (§4.4: anything expressible as a DAG
/// works; these are the common ones).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleKind {
    /// 1F1B (PipeDream-Flush): warm up, then strictly alternate one
    /// forward with one backward, then drain.
    OneFOneB,
    /// GPipe: all forwards, then all backwards.
    GPipe,
    /// 1F1B with explicit early recomputation: each backward is preceded
    /// by a recompute instruction that only depends on the stage's own
    /// stored boundary activation, so it can start before the upstream
    /// gradient arrives.
    EarlyRecompute1F1B,
    /// Megatron-style interleaved 1F1B: the model splits into
    /// `chunks × n_stages` virtual stages; stage `s` hosts chunks
    /// `s, s + N, ...`, shrinking the pipeline bubble at the cost of more
    /// communication. Requires `n_microbatches % n_stages == 0`.
    Interleaved1F1B {
        /// Model chunks per stage (`v ≥ 1`; `v = 1` degenerates to 1F1B).
        chunks: usize,
    },
}

impl ScheduleKind {
    /// Model chunks each stage hosts under this schedule.
    pub fn chunks(&self) -> usize {
        match self {
            ScheduleKind::Interleaved1F1B { chunks } => (*chunks).max(1),
            _ => 1,
        }
    }
}

impl fmt::Display for ScheduleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleKind::OneFOneB => write!(f, "1F1B"),
            ScheduleKind::GPipe => write!(f, "GPipe"),
            ScheduleKind::EarlyRecompute1F1B => write!(f, "early-recompute-1F1B"),
            ScheduleKind::Interleaved1F1B { chunks } => write!(f, "interleaved-1F1B(v={chunks})"),
        }
    }
}

/// Generates the instruction program of `stage` under `kind`.
///
/// Every program issues exactly one `Forward` and one `Backward` per
/// (microbatch, chunk) pair (plus one `Recompute` for the early-recompute
/// schedule), in an order that is deadlock-free with respect to the
/// inter-stage dependencies.
pub fn stage_program(
    kind: ScheduleKind,
    stage: usize,
    n_stages: usize,
    n_microbatches: usize,
) -> Vec<Instruction> {
    let m = n_microbatches;
    match kind {
        ScheduleKind::GPipe => {
            let mut prog: Vec<Instruction> = (0..m)
                .map(|mb| Instruction {
                    microbatch: mb,
                    chunk: 0,
                    kind: CompKind::Forward,
                })
                .collect();
            // Backward drains in reverse microbatch order.
            prog.extend((0..m).rev().map(|mb| Instruction {
                microbatch: mb,
                chunk: 0,
                kind: CompKind::Backward,
            }));
            prog
        }
        ScheduleKind::OneFOneB => one_f_one_b(stage, n_stages, m, false),
        ScheduleKind::EarlyRecompute1F1B => one_f_one_b(stage, n_stages, m, true),
        ScheduleKind::Interleaved1F1B { chunks } => interleaved(stage, n_stages, m, chunks.max(1)),
    }
}

fn one_f_one_b(stage: usize, n_stages: usize, m: usize, recompute: bool) -> Vec<Instruction> {
    // Standard PipeDream-Flush: stage s admits `n_stages - s - 1` warmup
    // forwards (capped at m) before strictly alternating.
    let warmup = (n_stages - stage - 1).min(m);
    let mut prog = Vec::with_capacity(2 * m + if recompute { m } else { 0 });
    for mb in 0..warmup {
        prog.push(Instruction {
            microbatch: mb,
            chunk: 0,
            kind: CompKind::Forward,
        });
    }
    for i in 0..m - warmup {
        prog.push(Instruction {
            microbatch: warmup + i,
            chunk: 0,
            kind: CompKind::Forward,
        });
        if recompute {
            prog.push(Instruction {
                microbatch: i,
                chunk: 0,
                kind: CompKind::Recompute,
            });
        }
        prog.push(Instruction {
            microbatch: i,
            chunk: 0,
            kind: CompKind::Backward,
        });
    }
    for i in m - warmup..m {
        if recompute {
            prog.push(Instruction {
                microbatch: i,
                chunk: 0,
                kind: CompKind::Recompute,
            });
        }
        prog.push(Instruction {
            microbatch: i,
            chunk: 0,
            kind: CompKind::Backward,
        });
    }
    prog
}

/// Megatron-LM's interleaved 1F1B program (`megatron/core/pipeline_
/// parallel/schedules.py`, simplified to the steady case): stage `s` warms
/// up `2·(N − s − 1) + (v − 1)·N` virtual forwards, then alternates 1F1B
/// over virtual microbatch ids, then drains.
///
/// Virtual id → (chunk, microbatch): ids advance in groups of `N·v`;
/// within a group, consecutive runs of `N` ids share a chunk
/// (forward chunks ascend, backward chunks descend).
///
/// # Panics
///
/// Panics if `m % n_stages != 0` (the Megatron requirement); the builder
/// validates this and returns an error first.
fn interleaved(stage: usize, n_stages: usize, m: usize, v: usize) -> Vec<Instruction> {
    assert!(
        m.is_multiple_of(n_stages),
        "interleaved 1F1B requires microbatches divisible by stages"
    );
    let total = m * v;
    let group = n_stages * v;
    let decode = |id: usize, forward: bool| -> (usize, usize) {
        let in_group = id % group;
        let mut chunk = in_group / n_stages;
        if !forward {
            chunk = v - 1 - chunk;
        }
        let mb = (id / group) * n_stages + in_group % n_stages;
        (chunk, mb)
    };
    let warmup = (2 * (n_stages - stage - 1) + (v - 1) * n_stages).min(total);
    let mut prog = Vec::with_capacity(2 * total);
    let mut f_id = 0usize;
    let mut b_id = 0usize;
    for _ in 0..warmup {
        let (chunk, mb) = decode(f_id, true);
        prog.push(Instruction {
            microbatch: mb,
            chunk,
            kind: CompKind::Forward,
        });
        f_id += 1;
    }
    while f_id < total {
        let (chunk, mb) = decode(f_id, true);
        prog.push(Instruction {
            microbatch: mb,
            chunk,
            kind: CompKind::Forward,
        });
        f_id += 1;
        let (chunk, mb) = decode(b_id, false);
        prog.push(Instruction {
            microbatch: mb,
            chunk,
            kind: CompKind::Backward,
        });
        b_id += 1;
    }
    while b_id < total {
        let (chunk, mb) = decode(b_id, false);
        prog.push(Instruction {
            microbatch: mb,
            chunk,
            kind: CompKind::Backward,
        });
        b_id += 1;
    }
    prog
}
