//! Seeded fault plans: the deterministic schedule of everything that will
//! go wrong during a chaos run.
//!
//! A [`FaultPlan`] is a pure function of its `u64` seed (plus the run's
//! shape): the same seed always yields byte-identical event streams, so a
//! failing chaos run is replayed exactly by its seed alone. Seed 0 is
//! reserved for the empty plan — a chaos run at seed 0 must be
//! indistinguishable from a fault-free emulation run.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use perseus_cluster::StragglerCause;
use perseus_gpu::{FreqMHz, GpuSpec};

/// One injectable failure mode. Mirrors the trouble §2.3 attributes to
/// production clusters (thermal capping, input stalls, announced
/// slowdowns) plus the control-plane faults a real Perseus deployment
/// must survive: lost/slow/crashing characterization traffic and
/// unsynchronized clocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// A pipeline becomes the straggler for the given root cause.
    StragglerSpike {
        /// Pipeline hit by the spike.
        pipeline: usize,
        /// Root cause (determines the effective `T'`).
        cause: StragglerCause,
    },
    /// A previously-straggling pipeline recovers to full speed.
    StragglerRecover {
        /// Pipeline that recovers.
        pipeline: usize,
    },
    /// A `submit_profiles` call is lost in flight; the client must
    /// retry and the server must keep serving the old frontier meanwhile.
    DropSubmission,
    /// A `submit_profiles` call stalls this long before characterizing;
    /// short client timeouts race a resubmission against it.
    DelaySubmission {
        /// Stall length in milliseconds (real time on the worker pool).
        millis: u64,
    },
    /// The characterization worker panics mid-task; the server must
    /// contain it and degrade to the last deployed frontier.
    PanicWorker,
    /// Datacenter power management caps every GPU's SM clock; frontier
    /// points above the cap become unrealizable and must be re-clamped.
    FreqCap {
        /// The imposed cap.
        cap: FreqMHz,
    },
    /// The emulated cluster clock skews by this many seconds (negative =
    /// backwards); pending straggler timers must survive it.
    ClockSkew {
        /// Skew in seconds.
        skew_s: f64,
    },
    /// The server process dies and is immediately reopened from its
    /// durable directory; all recovered state (frontier, stragglers,
    /// clock, deployment versions) must be bit-identical to the
    /// pre-crash state. On a non-durable run the harness rebuilds the
    /// server from scratch and re-seeds it instead. Only scheduled by
    /// [`FaultPlan::from_seed_durable`].
    CrashRestart,
    /// Garbage is scribbled over the write-ahead journal's append cursor
    /// (a torn write / bit rot in the tail). Appends after the scribble
    /// are unreachable at the next open; recovery must truncate to the
    /// last valid record without panicking. No-op on a non-durable run.
    /// Only scheduled by [`FaultPlan::from_seed_durable`].
    CorruptJournalTail {
        /// Bytes of garbage to scribble.
        len: usize,
    },
    /// A sustained straggler: the pipeline slows to `degree ×` its normal
    /// speed and *stays* slow until an explicit
    /// [`FaultKind::StragglerRecover`]. This is the drift-detection
    /// stimulus — a step change the streaming detectors must flag within
    /// a bounded number of iterations. Never drawn by the seeded
    /// constructors (their streams are byte-stable); scheduled explicitly
    /// via [`FaultPlan::from_events`].
    DriftBurst {
        /// Pipeline hit by the sustained slowdown.
        pipeline: usize,
        /// Slowdown factor (> 1.0).
        degree: f64,
    },
    /// The leader is killed mid-run and a replication follower is
    /// promoted in its place: on a durable run the harness ships the
    /// leader's journal to a fresh follower, drops the leader, promotes
    /// the follower ([`FollowerServer::promote`]
    /// — bounded tail replay, never from genesis), and rewires the
    /// client to the promoted server. On an in-memory run there is no
    /// journal to ship, so the harness rebuilds from scratch like
    /// [`FaultKind::CrashRestart`]. Never drawn by the seeded
    /// constructors (their streams are byte-stable); scheduled
    /// explicitly via [`FaultPlan::from_events`] — the path the `ha`
    /// claims of the `claims` bin drive.
    ///
    /// [`FollowerServer::promote`]: perseus_server::FollowerServer::promote
    LeaderFailover,
}

/// A fault scheduled at a specific iteration of the chaos run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Iteration (0-based) at whose start the fault fires.
    pub at_iteration: usize,
    /// What goes wrong.
    pub kind: FaultKind,
}

/// The full, deterministic schedule of faults for one chaos run.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Derives the plan for a run of `iterations` iterations over
    /// `n_pipelines` data-parallel pipelines on `gpu`. Seed 0 yields the
    /// empty plan; any other seed yields roughly one fault every four
    /// iterations, drawn uniformly over every [`FaultKind`].
    pub fn from_seed(seed: u64, iterations: usize, n_pipelines: usize, gpu: &GpuSpec) -> FaultPlan {
        Self::from_seed_impl(seed, iterations, n_pipelines, gpu, 8)
    }

    /// [`FaultPlan::from_seed`] extended with the durability faults
    /// ([`FaultKind::CrashRestart`], [`FaultKind::CorruptJournalTail`]).
    /// A separate constructor so that `from_seed`'s event stream for any
    /// given seed stays byte-stable — the CI golden traces pin it.
    pub fn from_seed_durable(
        seed: u64,
        iterations: usize,
        n_pipelines: usize,
        gpu: &GpuSpec,
    ) -> FaultPlan {
        Self::from_seed_impl(seed, iterations, n_pipelines, gpu, 10)
    }

    /// Shared derivation: draws uniformly over the first `n_kinds` fault
    /// kinds. Arms 0–7 consume exactly the draws they always did, so
    /// `from_seed_impl(.., 8)` reproduces the historical `from_seed`
    /// stream bit-for-bit.
    fn from_seed_impl(
        seed: u64,
        iterations: usize,
        n_pipelines: usize,
        gpu: &GpuSpec,
        n_kinds: usize,
    ) -> FaultPlan {
        if seed == 0 || iterations == 0 {
            return FaultPlan {
                seed,
                events: Vec::new(),
            };
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let n_events = (iterations / 4).max(1);
        let mut events = Vec::with_capacity(n_events);
        for _ in 0..n_events {
            let at_iteration = rng.gen_range(0..iterations);
            let kind = match rng.gen_range(0..n_kinds) {
                0 => FaultKind::StragglerSpike {
                    pipeline: rng.gen_range(0..n_pipelines.max(1)),
                    cause: StragglerCause::Slowdown {
                        degree: 1.0 + rng.gen_range(0.05..0.6),
                    },
                },
                1 => FaultKind::StragglerSpike {
                    pipeline: rng.gen_range(0..n_pipelines.max(1)),
                    cause: StragglerCause::ThermalThrottle {
                        freq_cap: random_freq(&mut rng, gpu),
                    },
                },
                2 => FaultKind::StragglerRecover {
                    pipeline: rng.gen_range(0..n_pipelines.max(1)),
                },
                3 => FaultKind::DropSubmission,
                4 => FaultKind::DelaySubmission {
                    millis: rng.gen_range(1..20),
                },
                5 => FaultKind::PanicWorker,
                6 => FaultKind::FreqCap {
                    cap: random_freq(&mut rng, gpu),
                },
                7 => FaultKind::ClockSkew {
                    skew_s: rng.gen_range(0.0..20.0) - 10.0,
                },
                8 => FaultKind::CrashRestart,
                _ => FaultKind::CorruptJournalTail {
                    len: rng.gen_range(1..64),
                },
            };
            events.push(FaultEvent { at_iteration, kind });
        }
        // Stable sort: same-iteration events keep their generation order,
        // so the stream is a pure function of the seed.
        events.sort_by_key(|e| e.at_iteration);
        FaultPlan { seed, events }
    }

    /// A hand-scripted plan: exactly `events`, replayed in iteration
    /// order. The scripted path is how the observability suite injects a
    /// [`FaultKind::DriftBurst`] at a known iteration — no seed derives
    /// one, so the seeded streams stay byte-stable.
    pub fn from_events(seed: u64, mut events: Vec<FaultEvent>) -> FaultPlan {
        events.sort_by_key(|e| e.at_iteration);
        FaultPlan { seed, events }
    }

    /// The seed this plan was derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled events, sorted by iteration.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules no faults (always true for seed 0).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// A supported frequency in the upper half of `gpu`'s range — low enough
/// to bite (it invalidates the frontier's fast points), high enough that
/// capped schedules stay realizable without degenerating the run.
fn random_freq(rng: &mut StdRng, gpu: &GpuSpec) -> FreqMHz {
    let lo = u64::from(gpu.min_freq_mhz + (gpu.max_freq_mhz - gpu.min_freq_mhz) / 2);
    let hi = u64::from(gpu.max_freq_mhz);
    gpu.clamp_freq(FreqMHz(rng.gen_range(lo..hi.max(lo + 1)) as u32))
}
