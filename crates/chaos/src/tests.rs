use perseus_cluster::{ClusterConfig, Emulator, Policy};
use perseus_core::FrontierOptions;
use perseus_gpu::GpuSpec;
use perseus_models::zoo;
use perseus_pipeline::ScheduleKind;
use perseus_server::SubmissionFault;

use crate::harness::ScriptedInjector;
use crate::{run_chaos, ChaosConfig, FaultKind, FaultPlan};
use perseus_server::FaultInjector;

fn small_config() -> ClusterConfig {
    ClusterConfig {
        model: zoo::bert_base(8),
        gpu: GpuSpec::a100_pcie(),
        n_stages: 4,
        n_microbatches: 6,
        n_pipelines: 4,
        tensor_parallel: 1,
        schedule: ScheduleKind::OneFOneB,
        frontier: FrontierOptions {
            tau_s: Some(2e-3),
            max_iters: 50_000,
            stretch: true,
            warm_start: true,
        },
    }
}

/// A tempdir unique to this test invocation (pid + per-process counter),
/// so parallel test binaries and repeated runs never share state.
fn unique_test_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("perseus-chaos-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create unique test dir");
    dir
}

#[test]
fn fault_plan_is_deterministic_and_seed_zero_is_empty() {
    let gpu = GpuSpec::a100_pcie();
    let a = FaultPlan::from_seed(99, 100, 4, &gpu);
    let b = FaultPlan::from_seed(99, 100, 4, &gpu);
    assert_eq!(a.events(), b.events());
    assert!(!a.is_empty());
    // Events are sorted and land within the run.
    for pair in a.events().windows(2) {
        assert!(pair[0].at_iteration <= pair[1].at_iteration);
    }
    assert!(a.events().iter().all(|e| e.at_iteration < 100));
    assert!(FaultPlan::from_seed(0, 100, 4, &gpu).is_empty());
    // Different seeds diverge (xoshiro makes collisions vanishingly rare).
    let c = FaultPlan::from_seed(100, 100, 4, &gpu);
    assert_ne!(a.events(), c.events());
}

#[test]
fn scripted_injector_defaults_to_fault_free() {
    let inj = ScriptedInjector::new();
    assert_eq!(inj.submission_fault("job", 1), SubmissionFault::None);
    inj.push(SubmissionFault::Drop);
    inj.push(SubmissionFault::Panic);
    assert_eq!(inj.submission_fault("job", 2), SubmissionFault::Drop);
    assert_eq!(inj.submission_fault("job", 3), SubmissionFault::Panic);
    assert_eq!(inj.submission_fault("job", 4), SubmissionFault::None);
    assert_eq!(inj.injected(), 2);
}

/// Differential check over the whole planner registry: the cached,
/// `T'`-independent [`PlanOutput`](perseus_core::PlanOutput) selected at a
/// deadline must deploy exactly the schedule a fresh `plan()` would at
/// that same deadline, across a 50-deadline sweep spanning below `T_min`
/// to beyond `T*`.
#[test]
fn cached_select_matches_fresh_plan_across_deadline_sweep() {
    let emu = Emulator::new(small_config()).unwrap();
    let ctx = emu.ctx();
    let (t_min, t_star) = (emu.frontier().t_min(), emu.frontier().t_star());
    let planners: Vec<_> = emu.planners().iter().collect();
    assert!(planners.len() >= 6, "default registry holds all policies");
    for (name, planner) in planners {
        let cached = emu.plan_of(Policy::custom(name)).unwrap();
        let fresh = planner.plan(ctx).unwrap();
        for i in 0..50 {
            let t = 0.8 * t_min + (1.5 * t_star - 0.8 * t_min) * (i as f64) / 49.0;
            let a = cached.select(Some(t));
            let b = fresh.select(Some(t));
            assert_eq!(a.freqs, b.freqs, "{name} diverged at deadline {t}");
            assert!(
                (a.time_s - b.time_s).abs() < 1e-12 && (a.compute_j - b.compute_j).abs() < 1e-12,
                "{name} re-planned differently at deadline {t}"
            );
        }
    }
}

#[test]
fn seed_zero_run_matches_fault_free_emulation_exactly() {
    let mut emu = Emulator::new(small_config()).unwrap();
    let fault_free = emu.report_with_belief(Policy::Perseus, None, None).unwrap();
    let cfg = ChaosConfig {
        seed: 0,
        iterations: 20,
        ..Default::default()
    };
    let report = run_chaos(&mut emu, &cfg).unwrap();
    assert_eq!(report.faults_scheduled, 0);
    assert_eq!(report.faults_injected, 0);
    assert_eq!(report.degraded_lookups, 0);
    assert_eq!(report.client_retries, 0);
    // Exact equality: seed 0 takes the identical code path per iteration
    // (accumulate in the same order the harness does).
    let (mut expect_e, mut expect_t) = (0.0, 0.0);
    for _ in 0..20 {
        expect_e += fault_free.total_j();
        expect_t += fault_free.sync_time_s;
    }
    assert_eq!(report.total_energy_j, expect_e);
    assert_eq!(report.total_time_s, expect_t);
}

#[test]
fn nonzero_seed_survives_and_accounts_every_fault() {
    let mut emu = Emulator::new(small_config()).unwrap();
    let cfg = ChaosConfig {
        seed: 1337,
        iterations: 40,
        ..Default::default()
    };
    let report = run_chaos(&mut emu, &cfg).unwrap();
    assert!(report.faults_scheduled > 0);
    assert_eq!(report.faults_injected, report.faults_scheduled);
    assert_eq!(report.notifications_answered, report.notifications_sent);
    // The server absorbed exactly the server-directed faults of the plan.
    let server_kinds = FaultPlan::from_seed(1337, 40, 4, &GpuSpec::a100_pcie())
        .events()
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                FaultKind::DropSubmission
                    | FaultKind::DelaySubmission { .. }
                    | FaultKind::PanicWorker
                    | FaultKind::FreqCap { .. }
                    | FaultKind::ClockSkew { .. }
            )
        })
        .count() as u64;
    assert_eq!(report.server_faults_absorbed, server_kinds);
    assert!(report.total_energy_j.is_finite() && report.total_energy_j >= 0.0);
    assert!(report.min_iter_time_s >= report.fault_free_critical_path_s - 1e-9);
}

/// The first seed whose fault plan schedules both a frequency cap and a
/// straggler spike within the run — found deterministically, so the test
/// never depends on a hand-picked magic seed staying lucky.
fn seed_with_cap_and_straggler(iterations: usize) -> u64 {
    let gpu = GpuSpec::a100_pcie();
    (1..500)
        .find(|&seed| {
            let plan = FaultPlan::from_seed(seed, iterations, 4, &gpu);
            let cap = plan
                .events()
                .iter()
                .any(|e| matches!(e.kind, FaultKind::FreqCap { .. }));
            let spike = plan
                .events()
                .iter()
                .any(|e| matches!(e.kind, FaultKind::StragglerSpike { .. }));
            cap && spike
        })
        .expect("some seed below 500 schedules both a freq cap and a straggler spike")
}

/// Warm-started incremental solving is an optimization, never a behavior
/// change: a seeded chaos run (frequency cap + straggler spike both in
/// the plan) produces bit-identical energy and time whether the frontier
/// was characterized with warm starts or from scratch.
#[test]
fn warm_started_chaos_run_is_bit_identical_to_cold() {
    let iterations = 40;
    let seed = seed_with_cap_and_straggler(iterations);
    let run = |warm_start: bool| {
        let mut cluster = small_config();
        cluster.frontier.warm_start = warm_start;
        let mut emu = Emulator::new(cluster).unwrap();
        let cfg = ChaosConfig {
            seed,
            iterations,
            ..Default::default()
        };
        run_chaos(&mut emu, &cfg).unwrap()
    };
    let warm = run(true);
    let cold = run(false);
    assert!(warm.faults_injected > 0, "seed {seed} must inject faults");
    assert_eq!(warm.total_energy_j.to_bits(), cold.total_energy_j.to_bits());
    assert_eq!(warm.total_time_s.to_bits(), cold.total_time_s.to_bits());
    assert_eq!(
        warm.min_iter_time_s.to_bits(),
        cold.min_iter_time_s.to_bits()
    );
    assert_eq!(
        warm.fault_free_critical_path_s.to_bits(),
        cold.fault_free_critical_path_s.to_bits()
    );
    assert_eq!(warm.faults_scheduled, cold.faults_scheduled);
    assert_eq!(warm.faults_injected, cold.faults_injected);
    assert_eq!(warm.server_faults_absorbed, cold.server_faults_absorbed);
    assert_eq!(warm.degraded_lookups, cold.degraded_lookups);
    assert_eq!(warm.notifications_sent, cold.notifications_sent);
    assert_eq!(warm.notifications_answered, cold.notifications_answered);
    assert_eq!(warm.client_retries, cold.client_retries);
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        // Under ANY seeded fault plan: the run completes (no panic
        // escapes the server), energy stays finite and non-negative, and
        // no iteration beats the fault-free critical path.
        #[test]
        fn chaos_runs_preserve_energy_and_time_invariants(
            seed in 1usize..1_000_000,
            iterations in 8usize..24,
        ) {
            let mut emu = Emulator::new(small_config()).unwrap();
            let cfg = ChaosConfig {
                seed: seed as u64,
                iterations,
                ..Default::default()
            };
            let report = run_chaos(&mut emu, &cfg).unwrap();
            prop_assert_eq!(report.faults_injected, report.faults_scheduled);
            prop_assert_eq!(report.notifications_answered, report.notifications_sent);
            prop_assert!(report.total_energy_j.is_finite());
            prop_assert!(report.total_energy_j >= 0.0);
            prop_assert!(report.total_time_s.is_finite());
            prop_assert!(
                report.min_iter_time_s >= report.fault_free_critical_path_s - 1e-9,
                "iteration time {} beat the fault-free critical path {}",
                report.min_iter_time_s,
                report.fault_free_critical_path_s
            );
        }
    }
}

/// Differential: the `degraded_lookups` count in the [`ChaosReport`]
/// (read from the server's own atomics) must equal the
/// `perseus_server_degraded_lookups_total` telemetry counter — the two
/// observation paths may never drift apart.
#[test]
fn degraded_lookups_report_matches_telemetry_counter() {
    let tel = perseus_telemetry::Telemetry::enabled();
    let mut emu = Emulator::with_telemetry(small_config(), tel.clone()).unwrap();
    let cfg = ChaosConfig {
        seed: 1337,
        iterations: 40,
        ..Default::default()
    };
    let report = run_chaos(&mut emu, &cfg).unwrap();
    let snap = tel.snapshot();
    let counted = snap
        .value_of("perseus_server_degraded_lookups_total", &[("job", "chaos")])
        .unwrap_or(0.0);
    assert_eq!(counted, report.degraded_lookups as f64);
    // The chaos server shares the telemetry pipe end to end: its worker
    // spans landed under the "chaos" job label too.
    if report.server_faults_absorbed > 0 {
        assert!(
            snap.value_of(
                "perseus_span_calls_total",
                &[("job", "chaos"), ("span", "characterize")]
            )
            .unwrap_or(0.0)
                >= 1.0
        );
    }
}

mod durable {
    use perseus_server::DurabilityStats;

    use super::*;

    /// The first seed whose durable fault plan schedules both a
    /// [`FaultKind::CrashRestart`] and a [`FaultKind::CorruptJournalTail`]
    /// within the run — found deterministically, so the test never
    /// depends on a hand-picked magic seed staying lucky.
    fn seed_with_durability_faults(iterations: usize) -> u64 {
        let gpu = GpuSpec::a100_pcie();
        (1..500)
            .find(|&seed| {
                let plan = FaultPlan::from_seed_durable(seed, iterations, 4, &gpu);
                let crash = plan
                    .events()
                    .iter()
                    .any(|e| matches!(e.kind, FaultKind::CrashRestart));
                let scribble = plan
                    .events()
                    .iter()
                    .any(|e| matches!(e.kind, FaultKind::CorruptJournalTail { .. }));
                crash && scribble
            })
            .expect("some seed below 500 schedules both durability faults")
    }

    /// The headline robustness gate: a durable chaos run that is killed
    /// and recovered mid-flight (and has garbage scribbled over its
    /// journal tail) completes, fires every scheduled fault, and accounts
    /// for every crash and corruption it absorbed.
    #[test]
    fn durable_run_survives_crashes_and_journal_corruption() {
        let iterations = 40;
        let seed = seed_with_durability_faults(iterations);
        let gpu = GpuSpec::a100_pcie();
        let plan = FaultPlan::from_seed_durable(seed, iterations, 4, &gpu);
        let crashes = plan
            .events()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::CrashRestart))
            .count() as u64;
        let scribbles = plan
            .events()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::CorruptJournalTail { .. }))
            .count() as u64;

        let dir = unique_test_dir("durable-chaos");
        let mut emu = Emulator::new(small_config()).unwrap();
        let cfg = ChaosConfig {
            seed,
            iterations,
            durable_dir: Some(dir.clone()),
            ..Default::default()
        };
        let report = run_chaos(&mut emu, &cfg).unwrap();
        assert_eq!(report.faults_injected, report.faults_scheduled);
        assert_eq!(report.crashes_survived, crashes);
        assert_eq!(report.journal_corruptions, scribbles);
        // Every post-crash boot found durable state and recovered it.
        assert_eq!(report.durability.recoveries, crashes);
        assert!(report.durability.journal_appends > 0);
        assert!(report.total_energy_j > 0.0);
        assert!(report.min_iter_time_s >= report.fault_free_critical_path_s - 1e-9);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Durability is invisible to the planning path: a fault-free run
    /// produces bit-identical energy and time whether or not the server
    /// journals to disk.
    #[test]
    fn fault_free_durable_run_matches_in_memory() {
        let mut emu = Emulator::new(small_config()).unwrap();
        let mem = run_chaos(
            &mut emu,
            &ChaosConfig {
                seed: 0,
                iterations: 10,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(mem.durability, DurabilityStats::default());

        let dir = unique_test_dir("durable-id");
        let mut emu = Emulator::new(small_config()).unwrap();
        let dur = run_chaos(
            &mut emu,
            &ChaosConfig {
                seed: 0,
                iterations: 10,
                durable_dir: Some(dir.clone()),
                ..Default::default()
            },
        )
        .unwrap();

        assert_eq!(mem.total_energy_j.to_bits(), dur.total_energy_j.to_bits());
        assert_eq!(mem.total_time_s.to_bits(), dur.total_time_s.to_bits());
        assert_eq!(mem.min_iter_time_s.to_bits(), dur.min_iter_time_s.to_bits());
        assert_eq!(dur.crashes_survived, 0);
        assert_eq!(dur.journal_corruptions, 0);
        // ...but the journal really was written behind the scenes.
        assert!(dur.durability.journal_appends >= 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A durable chaos run is replayable end to end: the same seed into a
    /// fresh directory reproduces the identical energy outcome, even
    /// though the run crashes, recovers, and eats journal corruption
    /// along the way. This is the recovery contract (bit-identical
    /// deployments) observed through the emulator's energy accounting.
    #[test]
    fn durable_run_is_reproducible_across_directories() {
        let iterations = 40;
        let seed = seed_with_durability_faults(iterations);
        let run = |tag: &str| {
            let dir = unique_test_dir(tag);
            let mut emu = Emulator::new(small_config()).unwrap();
            let cfg = ChaosConfig {
                seed,
                iterations,
                durable_dir: Some(dir.clone()),
                ..Default::default()
            };
            let report = run_chaos(&mut emu, &cfg).unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            report
        };
        let a = run("repro-a");
        let b = run("repro-b");
        assert_eq!(a.total_energy_j.to_bits(), b.total_energy_j.to_bits());
        assert_eq!(a.total_time_s.to_bits(), b.total_time_s.to_bits());
        assert_eq!(a.crashes_survived, b.crashes_survived);
        assert_eq!(a.journal_corruptions, b.journal_corruptions);
        assert_eq!(a.server_faults_absorbed, b.server_faults_absorbed);
    }
}

mod flight {
    use super::*;

    /// The acceptance gate of the flight recorder: a chaos-seeded run
    /// writes a post-mortem dump, and the degraded bookkeeping inside it
    /// (per-sample `degraded_lookups` deltas) sums to exactly the
    /// `degraded_lookups` telemetry counter — three observation paths
    /// (server atomics, telemetry counter, flight record) that may never
    /// drift apart.
    #[test]
    fn chaos_run_dumps_flight_record_consistent_with_degraded_counter() {
        let tel = perseus_telemetry::Telemetry::enabled();
        let mut emu = Emulator::with_telemetry(small_config(), tel.clone()).unwrap();
        let dir = unique_test_dir("flight-dump");
        let dump = dir.join("postmortem.json");
        let cfg = ChaosConfig {
            seed: 1337,
            iterations: 40,
            flight_dump: Some(dump.clone()),
            ..Default::default()
        };
        let report = run_chaos(&mut emu, &cfg).unwrap();
        assert!(report.faults_injected > 0);

        // The dump exists and is the snapshot's own JSON rendering.
        let written = std::fs::read_to_string(&dump).expect("post-mortem dump written");
        assert!(written.contains("\"samples\": ["));
        assert_eq!(written, report.flight.to_json());

        // One sample per iteration, in order, none evicted at this size.
        assert_eq!(report.flight.samples.len(), 40);
        assert_eq!(report.flight.dropped, 0);
        assert!(report
            .flight
            .samples
            .iter()
            .enumerate()
            .all(|(i, s)| s.iteration == i as u64));

        // Degraded bookkeeping: flight record == server atomics ==
        // telemetry counter; every recorded fault is accounted for.
        assert_eq!(report.flight.degraded_lookups(), report.degraded_lookups);
        let counted = tel
            .snapshot()
            .value_of("perseus_server_degraded_lookups_total", &[("job", "chaos")])
            .unwrap_or(0.0);
        assert_eq!(report.flight.degraded_lookups() as f64, counted);
        assert_eq!(report.flight.faults(), report.faults_injected);

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Ledger conservation end to end under seeded chaos (straggler
    /// spikes, frequency caps, clock skew, worker faults): the recorded
    /// useful + intrinsic + extrinsic joules re-sum to the run's energy
    /// accumulator, which was computed by the independent report path.
    #[test]
    fn flight_samples_conserve_run_energy_under_faults() {
        for seed in [7u64, 1337] {
            let mut emu = Emulator::new(small_config()).unwrap();
            let cfg = ChaosConfig {
                seed,
                iterations: 24,
                ..Default::default()
            };
            let report = run_chaos(&mut emu, &cfg).unwrap();
            assert_eq!(report.flight.samples.len(), 24);
            let recorded: f64 = report.flight.samples.iter().map(|s| s.total_j()).sum();
            assert!(
                (recorded - report.total_energy_j).abs() <= 1e-9 * report.total_energy_j,
                "seed {seed}: flight record sums to {recorded} J, run accumulated {} J",
                report.total_energy_j
            );
            for s in &report.flight.samples {
                assert!(s.useful_j.is_finite() && s.useful_j >= 0.0);
                assert!(s.intrinsic_j.is_finite() && s.intrinsic_j >= 0.0);
                assert!(s.extrinsic_j.is_finite() && s.extrinsic_j >= 0.0);
                assert!(s.freq_min_mhz <= s.freq_max_mhz);
                assert!(s.freq_max_mhz > 0, "schedule assigns real frequencies");
                assert!(s.sync_time_s > 0.0);
            }
        }
    }

    /// A fault-free run records its time series but writes no post-mortem:
    /// dumping is an incident artifact, not a steady-state side effect.
    #[test]
    fn fault_free_run_records_but_never_dumps() {
        let mut emu = Emulator::new(small_config()).unwrap();
        let dir = unique_test_dir("no-dump");
        let dump = dir.join("never-written.json");
        let cfg = ChaosConfig {
            seed: 0,
            iterations: 10,
            flight_dump: Some(dump.clone()),
            ..Default::default()
        };
        let report = run_chaos(&mut emu, &cfg).unwrap();
        assert_eq!(report.faults_injected, 0);
        assert_eq!(report.flight.samples.len(), 10);
        assert!(report.flight.samples.iter().all(|s| !s.degraded));
        assert_eq!(report.flight.faults(), 0);
        assert!(!dump.exists(), "fault-free runs leave no post-mortem");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Frequency caps interact with Kareus sleep: a cap re-clamps every
/// cached plan and the kareus plan's sleep windows are recomputed against
/// the capped (stretched) timeline. Under an identical fault plan that
/// includes a cap and a straggler spike, the kareus run survives every
/// fault and never spends more energy than frequency-only Perseus — the
/// sleep lane only ever subtracts from idle draw.
#[test]
fn kareus_policy_rides_out_freq_caps_and_never_exceeds_perseus() {
    let iterations = 40;
    let seed = seed_with_cap_and_straggler(iterations);
    let run = |policy: Policy| {
        let mut emu = Emulator::new(small_config()).unwrap();
        let cfg = ChaosConfig {
            seed,
            iterations,
            policy,
            ..Default::default()
        };
        let report = run_chaos(&mut emu, &cfg).unwrap();
        (emu, report)
    };
    let (emu_kareus, kareus) = run(Policy::Kareus);
    let (_, perseus) = run(Policy::Perseus);
    assert!(kareus.faults_injected > 0, "seed {seed} must inject faults");
    assert_eq!(kareus.faults_injected, perseus.faults_injected);
    assert_eq!(kareus.notifications_answered, kareus.notifications_sent);
    assert!(kareus.total_energy_j.is_finite());
    assert!(
        kareus.total_energy_j <= perseus.total_energy_j + 1e-6,
        "kareus {} > perseus {}",
        kareus.total_energy_j,
        perseus.total_energy_j
    );
    // Iteration *time* is untouched: sleep fills bubbles, never the
    // critical path, so both policies ride the same frontier.
    assert_eq!(
        kareus.total_time_s.to_bits(),
        perseus.total_time_s.to_bits()
    );
    // The capped kareus plan still emits sleep, recomputed for the capped
    // schedules rather than carried over stale.
    let plan = emu_kareus.plan_of(Policy::Kareus).unwrap();
    let sleep = plan.sleep_plan(None).expect("kareus emits a sleep plan");
    assert!(
        sleep.window_count() > 0,
        "capped pipeline keeps its bubbles"
    );
}

/// The drift-detection contract end to end: a scripted
/// [`FaultKind::DriftBurst`] must be flagged by the streaming detectors
/// within a bounded number of iterations of onset, and the fault-free
/// seed-0 run must stay silent (zero false positives).
#[test]
fn drift_burst_is_caught_within_bound_and_seed_zero_is_silent() {
    use crate::plan::FaultEvent;

    // Seed 0: no faults, and the detectors must emit nothing.
    let mut emu = Emulator::new(small_config()).unwrap();
    let quiet = run_chaos(
        &mut emu,
        &ChaosConfig {
            seed: 0,
            iterations: 120,
            ..ChaosConfig::default()
        },
    )
    .unwrap();
    assert_eq!(quiet.faults_injected, 0);
    assert!(
        quiet.alerts.is_empty(),
        "fault-free run raised alerts: {:?}",
        quiet.alerts
    );

    // Scripted drift burst at iteration 60 of 120: a sustained 1.5×
    // slowdown the detectors must flag within 10 iterations.
    const ONSET: usize = 60;
    const BOUND: u64 = 10;
    let plan = FaultPlan::from_events(
        0,
        vec![FaultEvent {
            at_iteration: ONSET,
            kind: FaultKind::DriftBurst {
                pipeline: 1,
                degree: 1.5,
            },
        }],
    );
    let mut emu = Emulator::new(small_config()).unwrap();
    let report = run_chaos(
        &mut emu,
        &ChaosConfig {
            seed: 0,
            iterations: 120,
            plan: Some(plan),
            ..ChaosConfig::default()
        },
    )
    .unwrap();
    assert_eq!(report.faults_injected, 1);
    assert!(report.alerts_fired >= 1, "drift burst raised no alert");
    let first = report
        .alerts
        .iter()
        .find(|a| a.state == perseus_telemetry::AlertState::Firing)
        .unwrap();
    assert!(
        first.iteration >= ONSET as u64 && first.iteration <= ONSET as u64 + BOUND,
        "first alert at iteration {} — outside [{ONSET}, {}]",
        first.iteration,
        ONSET as u64 + BOUND
    );
    // No alert precedes the fault: zero false positives before onset.
    assert!(report.alerts.iter().all(|a| a.iteration >= ONSET as u64));
}

/// Scripted plans replay deterministically: the same events yield
/// byte-identical alert streams across runs.
#[test]
fn scripted_chaos_alert_stream_replays_identically() {
    use crate::plan::FaultEvent;

    let run = || {
        let plan = FaultPlan::from_events(
            7,
            vec![FaultEvent {
                at_iteration: 40,
                kind: FaultKind::DriftBurst {
                    pipeline: 0,
                    degree: 1.4,
                },
            }],
        );
        let mut emu = Emulator::new(small_config()).unwrap();
        run_chaos(
            &mut emu,
            &ChaosConfig {
                seed: 7,
                iterations: 90,
                plan: Some(plan),
                ..ChaosConfig::default()
            },
        )
        .unwrap()
    };
    let a = run();
    let b = run();
    let render = |r: &crate::ChaosReport| {
        r.alerts
            .iter()
            .map(perseus_telemetry::Alert::render)
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert!(!a.alerts.is_empty());
    assert_eq!(render(&a), render(&b), "alert streams must replay exactly");
}
