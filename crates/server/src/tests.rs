use std::sync::Arc;

use parking_lot::Mutex;

use perseus_core::FrontierOptions;
use perseus_gpu::{FreqMHz, GpuSpec, NoiseModel, SimGpu, Workload};
use perseus_models::StageWorkloads;
use perseus_pipeline::{CompKind, OpKey, PipelineBuilder, PipelineDag, ScheduleKind};
use perseus_profiler::{OnlineProfiler, ProfileDb};

use crate::client::{AsyncFrequencyController, ClientSession};
use crate::server::{JobSpec, PerseusServer, ServerConfig, ServerError};

/// A fault injector that hands out queued faults in order, then none.
struct Script(Mutex<std::collections::VecDeque<crate::SubmissionFault>>);

impl crate::FaultInjector for Script {
    fn submission_fault(&self, _job: &str, _epoch: u64) -> crate::SubmissionFault {
        self.0
            .lock()
            .pop_front()
            .unwrap_or(crate::SubmissionFault::None)
    }
}

/// A single-worker server config; everything else at its default.
fn one_worker() -> ServerConfig {
    ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    }
}

/// A unique scratch directory per call: tag + pid + a process-wide
/// counter, so concurrently running tests never share (or clobber) a
/// directory. Callers clean up with `remove_dir_all` at the end; a
/// leaked directory from an aborted test never collides with a rerun.
fn unique_test_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("perseus-server-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

/// SplitMix64: a tiny deterministic generator for the randomized
/// replay and mutation tests, so they need no RNG dependency.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn stages() -> Vec<StageWorkloads> {
    [1.0, 1.15, 0.9]
        .iter()
        .map(|&k| StageWorkloads {
            fwd: Workload::new(40.0 * k, 0.004, 0.85),
            bwd: Workload::new(80.0 * k, 0.008, 0.92),
        })
        .collect()
}

fn pipe() -> PipelineDag {
    PipelineBuilder::new(ScheduleKind::OneFOneB, 3, 4)
        .build()
        .unwrap()
}

fn model_profiles(gpu: &GpuSpec) -> ProfileDb<OpKey> {
    perseus_core::model_profiles(&pipe(), gpu, &stages())
}

fn server_with_job() -> (PerseusServer, &'static str) {
    server_with_job_from(ServerConfig::default())
}

/// [`server_with_job`] on a server built from `cfg`.
fn server_with_job_from(cfg: ServerConfig) -> (PerseusServer, &'static str) {
    let server = PerseusServer::new(cfg);
    server
        .register_job(JobSpec {
            name: "gpt".into(),
            pipe: pipe(),
            gpu: GpuSpec::a100_pcie(),
            power_states: None,
        })
        .unwrap();
    (server, "gpt")
}

#[test]
fn register_and_duplicate() {
    let (server, _) = server_with_job();
    let err = server
        .register_job(JobSpec {
            name: "gpt".into(),
            pipe: pipe(),
            gpu: GpuSpec::a100_pcie(),
            power_states: None,
        })
        .unwrap_err();
    assert!(matches!(err, ServerError::DuplicateJob(_)));
    assert_eq!(server.job_names(), vec!["gpt"]);
}

#[test]
fn characterize_deploys_fastest_schedule() {
    let (server, job) = server_with_job();
    let gpu = GpuSpec::a100_pcie();
    let d = server
        .submit_profiles(job, model_profiles(&gpu), &FrontierOptions::default())
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(d.version, 1);
    let frontier = server.frontier(job).unwrap();
    assert_eq!(d.planned_time_s, frontier.t_min());
    // Workflow step ③: the deployment is cached as current.
    let status = server.job_status(job).unwrap();
    assert_eq!(status.deployment.unwrap().version, 1);
    assert_eq!(status.epoch, 1);
}

#[test]
fn batch_submission_characterizes_all_jobs_in_parallel() {
    let gpu = GpuSpec::a100_pcie();
    let server = PerseusServer::new(ServerConfig::default());
    let names = ["gpt-a", "gpt-b", "gpt-c"];
    for name in names {
        server
            .register_job(JobSpec {
                name: (*name).into(),
                pipe: pipe(),
                gpu: gpu.clone(),
                power_states: None,
            })
            .unwrap();
    }
    let batch = names
        .iter()
        .map(|n| {
            (
                (*n).to_string(),
                model_profiles(&gpu),
                FrontierOptions::default(),
            )
        })
        .collect();
    let tickets = server.submit_profiles_batch(batch).unwrap();
    assert_eq!(tickets.len(), names.len());
    for (ticket, name) in tickets.into_iter().zip(names) {
        assert_eq!(ticket.job(), name);
        let d = ticket.wait().unwrap();
        assert_eq!(d.version, 1);
        assert_eq!(d.planned_time_s, server.frontier(name).unwrap().t_min());
    }
    // Identical pipelines + profiles characterize to identical frontiers
    // regardless of which pool worker ran them.
    let (fa, fb) = (
        server.frontier("gpt-a").unwrap(),
        server.frontier("gpt-b").unwrap(),
    );
    assert_eq!(fa.points().len(), fb.points().len());
    for (pa, pb) in fa.points().iter().zip(fb.points().iter()) {
        assert_eq!(pa.planned_time_s.to_bits(), pb.planned_time_s.to_bits());
        assert_eq!(pa.planned_energy_j.to_bits(), pb.planned_energy_j.to_bits());
    }
}

#[test]
fn batch_submission_is_all_or_nothing() {
    let (server, job) = server_with_job();
    let gpu = GpuSpec::a100_pcie();
    let batch = vec![
        (
            job.to_string(),
            model_profiles(&gpu),
            FrontierOptions::default(),
        ),
        (
            "no-such-job".to_string(),
            model_profiles(&gpu),
            FrontierOptions::default(),
        ),
    ];
    let err = server.submit_profiles_batch(batch).unwrap_err();
    assert!(matches!(err, ServerError::UnknownJob(_)));
    // The valid entry was not scheduled either: the job is untouched.
    assert_eq!(server.job_status(job).unwrap().epoch, 0);
}

#[test]
fn straggler_lookup_is_instant_and_correct() {
    let (server, job) = server_with_job();
    let gpu = GpuSpec::a100_pcie();
    server
        .submit_profiles(job, model_profiles(&gpu), &FrontierOptions::default())
        .unwrap()
        .wait()
        .unwrap();
    let (t_min, _) = {
        let f = server.frontier(job).unwrap();
        (f.t_min(), f.t_star())
    };
    // Immediate straggler with 1.2x slowdown.
    let d = server.set_straggler(job, 0, 0.0, 1.2).unwrap().unwrap();
    assert_eq!(d.version, 2);
    assert!((d.t_prime - t_min * 1.2).abs() < 1e-9);
    assert!(d.planned_time_s <= d.t_prime + 1e-9);
    assert!(d.planned_time_s > t_min);
    // Return to normal: deployment goes back to the fastest point.
    let d = server.set_straggler(job, 0, 0.0, 1.0).unwrap().unwrap();
    assert_eq!(d.planned_time_s, t_min);
}

#[test]
fn extreme_straggler_clamps_to_t_star() {
    let (server, job) = server_with_job();
    let gpu = GpuSpec::a100_pcie();
    server
        .submit_profiles(job, model_profiles(&gpu), &FrontierOptions::default())
        .unwrap()
        .wait()
        .unwrap();
    let d = server.set_straggler(job, 0, 0.0, 100.0).unwrap().unwrap();
    let frontier = server.frontier(job).unwrap();
    assert_eq!(d.planned_time_s, frontier.t_star());
}

#[test]
fn worst_straggler_wins() {
    let (server, job) = server_with_job();
    let gpu = GpuSpec::a100_pcie();
    server
        .submit_profiles(job, model_profiles(&gpu), &FrontierOptions::default())
        .unwrap()
        .wait()
        .unwrap();
    server.set_straggler(job, 0, 0.0, 1.1).unwrap();
    let d = server.set_straggler(job, 1, 0.0, 1.3).unwrap().unwrap();
    let t_min = server.frontier(job).unwrap().t_min();
    assert!((d.t_prime - t_min * 1.3).abs() < 1e-9);
    // GPU 1 recovers: GPU 0's 1.1x remains the binding straggler.
    let d = server.set_straggler(job, 1, 0.0, 1.0).unwrap().unwrap();
    assert!((d.t_prime - t_min * 1.1).abs() < 1e-9);
}

#[test]
fn delayed_straggler_fires_on_time_advance() {
    let (server, job) = server_with_job();
    let gpu = GpuSpec::a100_pcie();
    server
        .submit_profiles(job, model_profiles(&gpu), &FrontierOptions::default())
        .unwrap()
        .wait()
        .unwrap();
    // Announce a straggler 30 s ahead (e.g. the rack manager anticipating
    // thermal throttling).
    assert!(server.set_straggler(job, 2, 30.0, 1.25).unwrap().is_none());
    // Nothing yet at t = 10 s.
    assert!(server.advance_time(job, 10.0).unwrap().is_empty());
    // Fires between 10 s and 40 s.
    let deployments = server.advance_time(job, 30.0).unwrap();
    assert_eq!(deployments.len(), 1);
    let t_min = server.frontier(job).unwrap().t_min();
    assert!((deployments[0].t_prime - t_min * 1.25).abs() < 1e-9);
}

#[test]
fn errors_are_reported() {
    let (server, job) = server_with_job();
    // Registered but never characterized: a valid status, nothing deployed.
    let status = server.job_status(job).unwrap();
    assert!(status.deployment.is_none());
    assert_eq!(status.epoch, 0);
    assert!(matches!(
        server.job_status("nope"),
        Err(ServerError::UnknownJob(_))
    ));
    assert!(matches!(
        server.set_straggler(job, 0, 0.0, 1.2),
        Err(ServerError::NotCharacterized(_))
    ));
    assert!(matches!(
        server.advance_time("nope", 1.0),
        Err(ServerError::UnknownJob(_))
    ));
    let gpu = GpuSpec::a100_pcie();
    server
        .submit_profiles(job, model_profiles(&gpu), &FrontierOptions::default())
        .unwrap()
        .wait()
        .unwrap();
    assert!(matches!(
        server.set_straggler(job, 0, 0.0, 0.5),
        Err(ServerError::InvalidDegree(_))
    ));
}

#[test]
fn async_controller_applies_frequencies() {
    let gpu = Arc::new(Mutex::new(SimGpu::new(GpuSpec::a100_pcie())));
    let ctl = AsyncFrequencyController::spawn(Arc::clone(&gpu));
    ctl.set_speed(FreqMHz(900));
    ctl.set_speed(FreqMHz(705));
    ctl.flush();
    assert_eq!(gpu.lock().locked_freq(), FreqMHz(705));
    assert_eq!(gpu.lock().freq_set_count(), 2);
}

#[test]
fn async_controller_is_nonblocking_for_redundant_sets() {
    let gpu = Arc::new(Mutex::new(SimGpu::new(GpuSpec::a100_pcie())));
    let ctl = AsyncFrequencyController::spawn(Arc::clone(&gpu));
    for _ in 0..100 {
        ctl.set_speed(FreqMHz(900));
    }
    ctl.flush();
    // Redundant sets are free on the device (§5's controller relies on it).
    assert_eq!(gpu.lock().freq_set_count(), 1);
}

#[test]
fn client_profile_begin_end_measures_work() {
    let mut client = ClientSession::new(0, SimGpu::new(GpuSpec::a100_pcie()));
    let w = Workload::new(40.0, 0.004, 0.85);
    client.begin_profile(CompKind::Forward);
    {
        let gpu = client.gpu();
        let mut g = gpu.lock();
        g.run(&w);
    }
    let (t, e) = client.end_profile(CompKind::Forward);
    assert!(t > 0.0 && e > 0.0);
}

#[test]
fn client_sweep_produces_profile() {
    let mut client = ClientSession::new(1, SimGpu::new(GpuSpec::a100_pcie()));
    let w = Workload::new(40.0, 0.004, 0.85);
    let profile = client.profile_sweep(&w, &OnlineProfiler::default());
    assert!(profile.pareto().len() > 3);
}

/// Under realistic measurement noise a frequency sweep now and then ends
/// with a single Pareto point: one noisy fast measurement dominates every
/// later one until the sweep's patience runs out. The server admits such
/// a profile, so it must also plan it. Every job swept over the seeds
/// characterizes, and a one-point computation, having nothing to trade,
/// runs at its one measured frequency on every frontier point.
#[test]
fn every_swept_profile_plans_with_one_point_computations_pinned() {
    const SEEDS: u64 = 1_000;
    let gpu = GpuSpec::a100_pcie();
    let pipe = pipe();
    let profiler = OnlineProfiler::default();
    let (server, job) = server_with_job();
    // Coarse steps keep each characterization short; pinning does not
    // depend on the step size.
    let opts = FrontierOptions {
        tau_s: Some(5e-3),
        ..FrontierOptions::default()
    };
    let mut pinned_jobs = 0;
    for seed in 0..SEEDS {
        let mut profiles = ProfileDb::new();
        for (stage, sw) in stages().iter().enumerate() {
            let noise = NoiseModel::realistic(seed * 8 + stage as u64);
            let mut device = SimGpu::new(gpu.clone()).with_noise(noise);
            let fwd = profiler.profile(&mut device, &sw.fwd);
            let bwd = profiler.profile(&mut device, &sw.bwd);
            let key = |kind| OpKey {
                stage,
                chunk: 0,
                kind,
            };
            profiles.insert(key(CompKind::Recompute), fwd.clone());
            profiles.insert(key(CompKind::Forward), fwd);
            profiles.insert(key(CompKind::Backward), bwd);
        }
        let pinned: Vec<(OpKey, FreqMHz)> = profiles
            .iter()
            .filter_map(|(key, p)| match p.pareto() {
                [only] => Some((*key, only.freq)),
                _ => None,
            })
            .collect();
        server
            .submit_profiles(job, profiles, &opts)
            .unwrap()
            .wait()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        if pinned.is_empty() {
            continue;
        }
        pinned_jobs += 1;
        let frontier = server.frontier(job).unwrap();
        for (node, comp) in pipe.computations() {
            let Some(&(_, freq)) = pinned.iter().find(|(key, _)| *key == comp.op_key()) else {
                continue;
            };
            for point in frontier.points() {
                assert_eq!(point.schedule.freq_of(node), Some(freq), "seed {seed}");
            }
        }
    }
    assert!(pinned_jobs > 0, "some seed must sweep a one-point profile");
}

#[test]
fn client_realizes_deployed_schedule_in_program_order() {
    let (server, job) = server_with_job();
    let gpu_spec = GpuSpec::a100_pcie();
    let d = server
        .submit_profiles(job, model_profiles(&gpu_spec), &FrontierOptions::default())
        .unwrap()
        .wait()
        .unwrap();
    let p = pipe();
    let mut client = ClientSession::new(1, SimGpu::new(gpu_spec.clone()));
    client.load_schedule(&p, &d.schedule);
    // Drive one iteration: stage 1's program is F F (warmup) F B F B B B...
    // just follow the recorded plan kinds.
    let program: Vec<CompKind> = p
        .computations()
        .filter(|(_, c)| c.stage == 1)
        .map(|(_, c)| c.kind)
        .collect();
    for &k in &program {
        client.set_speed(k);
    }
    client.sync();
    // The device ends locked at the last computation's planned frequency.
    let last_freq = {
        let (id, _) = p
            .computations()
            .filter(|(_, c)| c.stage == 1)
            .last()
            .unwrap();
        d.schedule.freq_of(id).unwrap()
    };
    assert_eq!(client.gpu().lock().locked_freq(), last_freq);
}

#[test]
#[should_panic(expected = "set_speed out of program order")]
fn client_detects_out_of_order_calls() {
    let (server, job) = server_with_job();
    let gpu_spec = GpuSpec::a100_pcie();
    let d = server
        .submit_profiles(job, model_profiles(&gpu_spec), &FrontierOptions::default())
        .unwrap()
        .wait()
        .unwrap();
    let p = pipe();
    let mut client = ClientSession::new(0, SimGpu::new(gpu_spec));
    client.load_schedule(&p, &d.schedule);
    // Stage 0 of a 3-stage 1F1B starts with forwards; a backward is wrong.
    client.set_speed(CompKind::Backward);
}

#[test]
fn multiple_pending_stragglers_fire_in_order() {
    let (server, job) = server_with_job();
    let gpu = GpuSpec::a100_pcie();
    server
        .submit_profiles(job, model_profiles(&gpu), &FrontierOptions::default())
        .unwrap()
        .wait()
        .unwrap();
    server.set_straggler(job, 0, 10.0, 1.4).unwrap();
    server.set_straggler(job, 0, 20.0, 1.0).unwrap(); // later recovery
    let deployments = server.advance_time(job, 25.0).unwrap();
    assert_eq!(deployments.len(), 2);
    assert!(
        deployments[0].t_prime > deployments[1].t_prime,
        "slowdown then recovery"
    );
    let t_min = server.frontier(job).unwrap().t_min();
    assert!((deployments[1].t_prime - t_min).abs() < 1e-9);
}

#[test]
fn reannouncing_same_gpu_overrides_degree() {
    let (server, job) = server_with_job();
    let gpu = GpuSpec::a100_pcie();
    server
        .submit_profiles(job, model_profiles(&gpu), &FrontierOptions::default())
        .unwrap()
        .wait()
        .unwrap();
    server.set_straggler(job, 3, 0.0, 1.4).unwrap();
    let d = server.set_straggler(job, 3, 0.0, 1.1).unwrap().unwrap();
    let t_min = server.frontier(job).unwrap().t_min();
    assert!(
        (d.t_prime - t_min * 1.1).abs() < 1e-9,
        "new degree replaces the old"
    );
}

#[test]
fn versions_are_strictly_monotonic() {
    let (server, job) = server_with_job();
    let gpu = GpuSpec::a100_pcie();
    let d0 = server
        .submit_profiles(job, model_profiles(&gpu), &FrontierOptions::default())
        .unwrap()
        .wait()
        .unwrap();
    let d1 = server.set_straggler(job, 0, 0.0, 1.2).unwrap().unwrap();
    let d2 = server.set_straggler(job, 0, 0.0, 1.3).unwrap().unwrap();
    assert!(d0.version < d1.version && d1.version < d2.version);
}

#[test]
fn resubmitting_profiles_reuses_solver_artifacts() {
    let (server, job) = server_with_job();
    let gpu = GpuSpec::a100_pcie();
    let solver_of = |job: &str| server.job_status(job).unwrap().solver;
    assert_eq!(
        (solver_of(job).runs, solver_of(job).artifact_reuses),
        (0, 0)
    );
    server
        .submit_profiles(job, model_profiles(&gpu), &FrontierOptions::default())
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(
        (solver_of(job).runs, solver_of(job).artifact_reuses),
        (1, 0)
    );
    // Re-characterization (fresh profiles mid-training) reuses the job's
    // cached edge-centric DAG / topological order.
    let d = server
        .submit_profiles(job, model_profiles(&gpu), &FrontierOptions::default())
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(
        (solver_of(job).runs, solver_of(job).artifact_reuses),
        (2, 1)
    );
    assert_eq!(d.version, 2);
}

#[test]
fn straggler_lookup_does_not_wait_for_inflight_characterization() {
    // While a (slow) re-characterization is in flight, set_straggler and
    // current_deployment answer from the previous frontier.
    let (server, job) = server_with_job();
    let gpu = GpuSpec::a100_pcie();
    server
        .submit_profiles(job, model_profiles(&gpu), &FrontierOptions::default())
        .unwrap()
        .wait()
        .unwrap();
    let v1 = server.job_status(job).unwrap().deployment.unwrap().version;

    // A deliberately fine-grained re-characterization to keep workers busy.
    let slow = FrontierOptions {
        tau_s: Some(1e-5),
        ..Default::default()
    };
    let ticket = server
        .submit_profiles(job, model_profiles(&gpu), &slow)
        .unwrap();

    // Immediately visible reaction from the cached frontier.
    let d = server.set_straggler(job, 0, 0.0, 1.2).unwrap().unwrap();
    assert!(d.version > v1);
    let cached = server.job_status(job).unwrap().deployment.unwrap();
    assert!(cached.version >= d.version);

    // The characterization still lands and re-deploys with the straggler
    // state applied.
    let after = ticket.wait().unwrap();
    assert!(after.version > d.version);
    let t_min = server.frontier(job).unwrap().t_min();
    assert!((after.t_prime - t_min * 1.2).abs() < 1e-9);
}

#[test]
fn concurrent_jobs_from_many_threads() {
    // Satellite smoke test: N threads × (register, submit, straggle, read).
    // Per-job versions must be monotonic and every observed frontier
    // complete (lookup(t_min) == fastest point).
    let server = Arc::new(PerseusServer::new(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    }));
    let n_threads = 4;
    let iters = 3;
    let handles: Vec<_> = (0..n_threads)
        .map(|t| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let gpu = GpuSpec::a100_pcie();
                let name = format!("job-{t}");
                server
                    .register_job(JobSpec {
                        name: name.clone(),
                        pipe: pipe(),
                        gpu: gpu.clone(),
                        power_states: None,
                    })
                    .unwrap();
                let mut last_version = 0;
                for i in 0..iters {
                    let d = server
                        .submit_profiles(&name, model_profiles(&gpu), &FrontierOptions::default())
                        .unwrap()
                        .wait();
                    // A later submission may supersede this one under
                    // contention; both outcomes are legal.
                    if let Ok(d) = d {
                        assert!(d.version > last_version, "deploy versions monotonic");
                        last_version = d.version;
                    }
                    let degree = 1.0 + 0.1 * (i as f64 + 1.0);
                    let d = server
                        .set_straggler(&name, 0, 0.0, degree)
                        .unwrap()
                        .unwrap();
                    assert!(d.version > last_version, "straggler versions monotonic");
                    last_version = d.version;

                    // No half-built frontier: lookup works across the range.
                    let f = server.frontier(&name).unwrap();
                    assert!(f.lookup(f.t_min()).planned_time_s <= f.t_min() + 1e-9);
                    assert_eq!(f.lookup(f.t_star() * 2.0).planned_time_s, f.t_star());
                    let cur = server.job_status(&name).unwrap().deployment.unwrap();
                    assert!(cur.version >= last_version);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(server.job_names().len(), n_threads);
    for t in 0..n_threads {
        let solver = server.job_status(&format!("job-{t}")).unwrap().solver;
        assert_eq!(solver.runs, iters);
        assert_eq!(solver.artifact_reuses, iters - 1);
    }
}

#[test]
fn faults_degrade_gracefully_and_are_counted() {
    use std::collections::VecDeque;
    use std::sync::Arc;
    use std::time::Duration;

    use crate::{ClientConfig, FaultInjector, JobClient, SubmissionFault};

    let script = Arc::new(Script(Mutex::new(VecDeque::new())));
    let server = Arc::new(PerseusServer::new(ServerConfig {
        fault_injector: Some(Arc::clone(&script) as Arc<dyn FaultInjector>),
        ..ServerConfig::default()
    }));
    server
        .register_job(JobSpec {
            name: "gpt".into(),
            pipe: pipe(),
            gpu: GpuSpec::a100_pcie(),
            power_states: None,
        })
        .unwrap();
    let gpu = GpuSpec::a100_pcie();
    let profiles = model_profiles(&gpu);
    let opts = FrontierOptions::default();

    // Healthy first characterization.
    server
        .submit_profiles("gpt", profiles.clone(), &opts)
        .unwrap()
        .wait()
        .unwrap();
    assert!(!server.job_status("gpt").unwrap().degraded);

    // A lost re-submission degrades the job; the old frontier keeps
    // serving and every lookup while degraded is counted.
    script.0.lock().push_back(SubmissionFault::Drop);
    let err = server
        .submit_profiles("gpt", profiles.clone(), &opts)
        .unwrap()
        .wait()
        .unwrap_err();
    assert!(matches!(err, ServerError::SubmissionLost(_)));
    assert!(server.job_status("gpt").unwrap().degraded);
    let d = server.set_straggler("gpt", 0, 0.0, 1.2).unwrap().unwrap();
    assert!(d.t_prime > 0.0, "stale frontier still answers lookups");
    let stats = server.job_status("gpt").unwrap().chaos;
    assert_eq!(stats.degraded_lookups, 1);
    assert_eq!(stats.faults_injected, 1);

    // A panicked worker is contained (the pool survives) and counted too.
    script.0.lock().push_back(SubmissionFault::Panic);
    let err = server
        .submit_profiles("gpt", profiles.clone(), &opts)
        .unwrap()
        .wait()
        .unwrap_err();
    assert!(matches!(err, ServerError::CharacterizationPanicked(_)));
    assert!(server.job_status("gpt").unwrap().degraded);
    assert_eq!(server.job_status("gpt").unwrap().chaos.faults_injected, 2);

    // The retrying client rides out a drop + panic in a row and clears
    // the degraded flag with a fresh deployment.
    script.0.lock().push_back(SubmissionFault::Drop);
    script.0.lock().push_back(SubmissionFault::Panic);
    let client = JobClient::new(Arc::clone(&server), "gpt");
    let d = client.submit_profiles_with_retry(&profiles, &opts).unwrap();
    assert!(d.version > 0);
    assert!(!server.job_status("gpt").unwrap().degraded);
    assert_eq!(client.retries(), 2);
    assert_eq!(server.job_status("gpt").unwrap().chaos.faults_injected, 4);

    // Delayed characterization: slower than the client's timeout, so the
    // client resubmits; supersession resolves the race either way.
    script
        .0
        .lock()
        .push_back(SubmissionFault::Delay(Duration::from_millis(300)));
    let fast = ClientConfig::default().timeout(Duration::from_millis(100));
    let client = JobClient::with_config(Arc::clone(&server), "gpt", fast);
    client.submit_profiles_with_retry(&profiles, &opts).unwrap();
    assert!(!server.job_status("gpt").unwrap().degraded);

    // Clock skew: backwards skew floors at zero and never un-fires
    // pending stragglers; forward skew fires them like advance_time.
    server.set_straggler("gpt", 1, 10.0, 1.3).unwrap();
    assert!(server.skew_clock("gpt", -1e9).unwrap().is_empty());
    let fired = server.skew_clock("gpt", 15.0).unwrap();
    assert_eq!(fired.len(), 1);

    // Frequency cap: the frontier is re-clamped, not invalidated.
    let t_star_before = server.frontier("gpt").unwrap().t_star();
    let cap = FreqMHz((gpu.min_freq_mhz + gpu.max_freq_mhz) / 2);
    let d = server.apply_freq_cap("gpt", cap).unwrap();
    assert!(d
        .schedule
        .freqs
        .iter()
        .flatten()
        .all(|f| *f <= gpu.clamp_freq(cap)));
    assert!(server.frontier("gpt").unwrap().t_star() >= t_star_before - 1e-9);

    // An empty script takes the fault-free path.
    server
        .submit_profiles("gpt", profiles, &opts)
        .unwrap()
        .wait()
        .unwrap();
    assert!(!server.job_status("gpt").unwrap().degraded);
}

#[test]
fn server_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PerseusServer>();
    assert_send_sync::<crate::server::Deployment>();
}

#[test]
fn job_status_is_the_single_status_surface() {
    // job_status answers everything the retired piecemeal getters
    // (current_deployment / solver_stats / chaos_stats / is_degraded)
    // used to, in one consistent read.
    let (server, job) = server_with_job();
    let gpu = GpuSpec::a100_pcie();
    let before = server.job_status(job).unwrap();
    assert!(before.deployment.is_none());
    assert_eq!(before.epoch, 0);
    server
        .submit_profiles(job, model_profiles(&gpu), &FrontierOptions::default())
        .unwrap()
        .wait()
        .unwrap();
    let status = server.job_status(job).unwrap();
    let deployment = status.deployment.as_ref().unwrap();
    assert!(deployment.version >= 1);
    assert_eq!(status.solver.runs, 1);
    assert_eq!(status.chaos.faults_injected, 0);
    assert!(!status.degraded);
    assert!(status.epoch >= 1);
}

#[test]
fn client_status_surfaces_job_status() {
    use std::sync::Arc;

    use crate::{ClientConfig, JobClient};

    let server = Arc::new(PerseusServer::new(one_worker()));
    server
        .register_job(JobSpec {
            name: "gpt".into(),
            pipe: pipe(),
            gpu: GpuSpec::a100_pcie(),
            power_states: None,
        })
        .unwrap();
    let config = ClientConfig::default().retries(3);
    assert_eq!(config.max_attempts(), 3);
    let client = JobClient::with_config(Arc::clone(&server), "gpt", config);
    let status = client.status().unwrap();
    assert!(status.deployment.is_none());
    assert_eq!(status.epoch, 0);

    let gpu = GpuSpec::a100_pcie();
    server
        .submit_profiles("gpt", model_profiles(&gpu), &FrontierOptions::default())
        .unwrap()
        .wait()
        .unwrap();
    let status = client.status().unwrap();
    assert!(status.deployment.is_some());
    assert_eq!(status.epoch, 1);
    assert!(!status.degraded);
}

mod durability {
    use std::path::Path;
    use std::sync::Arc;

    use perseus_core::{FrontierOptions, PlanCache};
    use perseus_gpu::{FreqMHz, GpuSpec};
    use perseus_pipeline::{CompKind, OpKey};
    use perseus_profiler::ProfileDelta;
    use perseus_store::{Journal, Persist};

    use super::{model_profiles, one_worker, pipe, unique_test_dir, SplitMix64};
    use crate::server::{JobSpec, PerseusServer, ServerConfig, ServerError};

    fn register(server: &PerseusServer) {
        register_named(server, "gpt");
    }

    fn register_named(server: &PerseusServer, name: &str) {
        server
            .register_job(JobSpec {
                name: name.into(),
                pipe: pipe(),
                gpu: GpuSpec::a100_pcie(),
                power_states: None,
            })
            .unwrap();
    }

    /// One worker and no automatic snapshots: the test decides when one
    /// is written.
    fn no_auto_snapshots() -> ServerConfig {
        ServerConfig {
            snapshot_every: u64::MAX,
            ..one_worker()
        }
    }

    /// A durable server holding job "gpt" with a deployed frontier, and
    /// automatic snapshots off: the test decides when one is written.
    fn characterized_server(dir: &Path) -> PerseusServer {
        let server = PerseusServer::open(dir, no_auto_snapshots()).unwrap();
        register(&server);
        server
            .submit_profiles(
                "gpt",
                model_profiles(&GpuSpec::a100_pcie()),
                &FrontierOptions::default(),
            )
            .unwrap()
            .wait()
            .unwrap();
        server
    }

    /// Drifts job "gpt" past the re-plan threshold and waits for the
    /// re-characterization.
    fn drift_replan(server: &PerseusServer) {
        let delta = ProfileDelta {
            key: OpKey {
                stage: 0,
                chunk: 0,
                kind: CompKind::Forward,
            },
            time_factor: 1.10,
            energy_factor: 1.08,
        };
        server
            .ingest_drift("gpt", &[delta])
            .unwrap()
            .expect("threshold crossed")
            .wait()
            .unwrap();
    }

    /// The segment files of a store directory, sorted by name.
    fn segment_files(dir: &Path) -> Vec<String> {
        files_named(dir, "frontier-")
    }

    /// The `<prefix><key>.seg` files of a store directory, sorted by name.
    fn files_named(dir: &Path, prefix: &str) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with(prefix) && n.ends_with(".seg"))
            .collect();
        names.sort();
        names
    }

    /// Copies every file of `src` into `dst`.
    fn copy_dir(src: &Path, dst: &Path) {
        std::fs::create_dir_all(dst).unwrap();
        for entry in std::fs::read_dir(src).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
        }
    }

    /// Drives a durable server through one scripted history covering every
    /// journaled event kind, capturing the state fingerprint after each
    /// mutation. Returns the per-step fingerprints, in order; step `i`
    /// completes journal sequence `i + 1`.
    fn scripted_history(server: &PerseusServer) -> Vec<Vec<u8>> {
        let gpu = GpuSpec::a100_pcie();
        let mut fps = Vec::new();
        register(server);
        fps.push(server.state_fingerprint());
        server
            .submit_profiles("gpt", model_profiles(&gpu), &FrontierOptions::default())
            .unwrap()
            .wait()
            .unwrap();
        fps.push(server.state_fingerprint());
        server.set_straggler("gpt", 0, 0.0, 1.2).unwrap();
        fps.push(server.state_fingerprint());
        server.set_straggler("gpt", 2, 30.0, 1.4).unwrap();
        fps.push(server.state_fingerprint());
        server.advance_time("gpt", 10.0).unwrap();
        fps.push(server.state_fingerprint());
        server.skew_clock("gpt", 25.0).unwrap();
        fps.push(server.state_fingerprint());
        let cap = FreqMHz((gpu.min_freq_mhz + gpu.max_freq_mhz) / 2);
        server.apply_freq_cap("gpt", cap).unwrap();
        fps.push(server.state_fingerprint());
        fps
    }

    /// Reads the raw journal bytes and the byte offset at which each
    /// record ends (the crash points at clean record boundaries).
    fn record_boundaries(journal: &std::path::Path) -> (Vec<u8>, Vec<usize>) {
        let bytes = std::fs::read(journal).unwrap();
        let mut ends = Vec::new();
        let mut pos = 8usize; // header: magic + version
        while pos + 8 <= bytes.len() {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            let end = pos + 8 + len;
            if end > bytes.len() {
                break;
            }
            ends.push(end);
            pos = end;
        }
        (bytes, ends)
    }

    /// Writes `bytes[..cut]` as the journal of a fresh directory and
    /// recovers a server from it.
    fn recover_from_prefix(
        bytes: &[u8],
        cut: usize,
        tag: &str,
    ) -> (PerseusServer, std::path::PathBuf) {
        let dir = unique_test_dir(tag);
        std::fs::write(dir.join("server.journal"), &bytes[..cut]).unwrap();
        let server = PerseusServer::open(&dir, one_worker()).unwrap();
        (server, dir)
    }

    #[test]
    fn reopen_restores_bit_identical_state() {
        let dir = unique_test_dir("reopen");
        let server = PerseusServer::open(&dir, ServerConfig::default()).unwrap();
        assert!(server.is_durable());
        let fps = scripted_history(&server);
        let before = server.state_fingerprint();
        assert_eq!(&before, fps.last().unwrap());
        // Freeze the state into a snapshot so recovery restores the
        // solved frontier instead of re-deriving it from the journal.
        server.snapshot_now().unwrap();
        drop(server);

        let recovered = PerseusServer::open(&dir, ServerConfig::default()).unwrap();
        assert_eq!(recovered.state_fingerprint(), before);
        let stats = recovered.durability();
        assert_eq!(stats.recoveries, 1);
        assert_eq!(stats.truncated_records, 0);
        // The snapshot carried the solved frontier: recovery paid zero
        // re-characterization work.
        assert_eq!(stats.recharacterizations_avoided, 1);
        assert_eq!(stats.recharacterizations_replayed, 0);

        // The recovered server is live, not a museum piece: the pending
        // straggler timers and deployment pipeline still work.
        let d = recovered
            .set_straggler("gpt", 1, 0.0, 1.3)
            .unwrap()
            .unwrap();
        assert!(d.version > 0);
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The acceptance gate: kill the server at *every byte offset* of the
    /// write-ahead journal and recover. A cut at a record boundary must
    /// reconstruct exactly the state after that many events; a cut inside
    /// a record is a torn write — recovery truncates to the last complete
    /// record and reconstructs that state, without panicking.
    #[test]
    fn crash_at_every_journal_offset_recovers_a_prefix_state() {
        let dir = unique_test_dir("crashpoint");
        // Keep the whole history in the journal: no snapshot compaction.
        let server = PerseusServer::open(&dir, no_auto_snapshots()).unwrap();
        let fps = scripted_history(&server);
        let journal = server.journal_path().unwrap();
        drop(server);

        let (bytes, ends) = record_boundaries(&journal);
        assert_eq!(ends.len(), fps.len(), "one journal record per mutation");
        let empty_fp = PerseusServer::new(ServerConfig::default()).state_fingerprint();

        // Interior offsets are sampled (~16 per record) plus every
        // boundary±1; boundaries themselves are all checked exactly.
        let mut cuts: Vec<usize> = Vec::new();
        let mut start = 8usize;
        for &end in &ends {
            let span = end - start;
            let stride = (span / 16).max(1);
            cuts.extend((start..end).step_by(stride));
            cuts.extend([start + 1, end - 1, end]);
            start = end;
        }
        cuts.sort_unstable();
        cuts.dedup();

        for cut in cuts {
            let (recovered, rdir) = recover_from_prefix(&bytes, cut, "cut");
            // State equals the last fully journaled mutation before the cut.
            let n_complete = ends.iter().filter(|&&e| e <= cut).count();
            let expect = if n_complete == 0 {
                &empty_fp
            } else {
                &fps[n_complete - 1]
            };
            assert_eq!(
                &recovered.state_fingerprint(),
                expect,
                "cut at byte {cut}: recovered state must equal the \
                 {n_complete}-event prefix"
            );
            let stats = recovered.durability();
            let torn = ends.binary_search(&cut).is_err();
            assert_eq!(
                stats.truncated_records,
                u64::from(torn && cut > 8),
                "cut at byte {cut}: torn tails are truncated, clean cuts are not"
            );
            drop(recovered);
            let _ = std::fs::remove_dir_all(&rdir);
        }
        let _ = std::fs::remove_dir_all(journal.parent().unwrap());
    }

    /// A scribbled journal tail (bit rot, torn multi-block write) makes
    /// every later append unreachable: recovery truncates to the last
    /// valid record, reports the loss, and a second recovery is clean —
    /// the poison does not survive compaction.
    #[test]
    fn corrupted_tail_recovers_by_truncation() {
        let dir = unique_test_dir("scribble");
        let server = PerseusServer::open(&dir, no_auto_snapshots()).unwrap();
        let gpu = GpuSpec::a100_pcie();
        register(&server);
        server
            .submit_profiles("gpt", model_profiles(&gpu), &FrontierOptions::default())
            .unwrap()
            .wait()
            .unwrap();
        let at_scribble = server.state_fingerprint();
        assert!(server.corrupt_journal_tail(&[0xFF; 32]));
        // Mutations after the scribble journal fine in this process but
        // are unreachable behind the garbage at the next open.
        server.set_straggler("gpt", 0, 0.0, 1.5).unwrap();
        assert_ne!(server.state_fingerprint(), at_scribble);
        drop(server);

        let recovered = PerseusServer::open(&dir, ServerConfig::default()).unwrap();
        assert_eq!(recovered.state_fingerprint(), at_scribble);
        let stats = recovered.durability();
        assert_eq!(stats.recoveries, 1);
        assert_eq!(stats.truncated_records, 1);
        assert!(stats.truncated_bytes >= 32);
        drop(recovered);

        // Recovery folded the surviving tail into a snapshot, so the
        // second open sees a clean store.
        let again = PerseusServer::open(&dir, ServerConfig::default()).unwrap();
        assert_eq!(again.state_fingerprint(), at_scribble);
        assert_eq!(again.durability().truncated_records, 0);
        drop(again);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An all-garbage prefix (the header itself is destroyed) is refused
    /// loudly rather than silently truncated to an empty journal: the
    /// operator pointed the server at something that is not a journal.
    #[test]
    fn destroyed_header_is_an_error_not_data_loss() {
        let dir = unique_test_dir("badheader");
        std::fs::write(dir.join("server.journal"), b"not a journal at all").unwrap();
        let Err(err) = PerseusServer::open(&dir, ServerConfig::default()) else {
            panic!("opening a non-journal file must fail")
        };
        assert!(matches!(err, ServerError::Store(_)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Randomized replay idempotence: recovering from a snapshot at step
    /// `j` plus a journal tail that *overlaps* the snapshot (records
    /// `j - d ..= k`, re-appended with their original sequence numbers)
    /// must converge to exactly the step-`k` state. Overlapping records
    /// are skipped by the sequence watermark and duplicate
    /// characterizations by the epoch check — nothing is applied twice,
    /// so no deployment version is ever double-bumped.
    #[test]
    fn replay_is_idempotent_under_snapshot_journal_overlap() {
        let dir = unique_test_dir("idem");
        let server = PerseusServer::open(&dir, no_auto_snapshots()).unwrap();
        let fps = scripted_history(&server);
        let journal = server.journal_path().unwrap();
        drop(server);
        let (bytes, ends) = record_boundaries(&journal);
        let n = ends.len() as u64;

        let mut rng = SplitMix64(0xC0FF_EE00_5EED);
        for round in 0..8 {
            // Snapshot point j, replay target k >= j, overlap depth d <= j.
            let j = rng.below(n + 1); // 0..=n events snapshotted
            let k = j + rng.below(n - j + 1); // j..=n
            let d = rng.below(j + 1); // re-append d already-snapshotted records

            // Recover a server from the j-event journal prefix; its
            // post-recovery snapshot now covers sequences 1..=j.
            let cut = if j == 0 { 8 } else { ends[j as usize - 1] };
            let (snapped, sdir) = recover_from_prefix(&bytes, cut, "idem-snap");
            drop(snapped);

            // Splice records (j - d, k] into its (compacted) journal with
            // their original sequence numbers.
            let (mut tail_journal, left) = Journal::open(sdir.join("server.journal")).unwrap();
            assert!(left.is_empty(), "recovery compacted the journal");
            let (full_journal, records) = Journal::open(&journal).unwrap();
            drop(full_journal);
            for rec in &records {
                if rec.seq > j - d && rec.seq <= k {
                    tail_journal.append_with_seq(rec.seq, &rec.payload).unwrap();
                }
            }
            drop(tail_journal);

            let recovered = PerseusServer::open(&sdir, ServerConfig::default()).unwrap();
            let expect = if k == 0 {
                PerseusServer::new(ServerConfig::default()).state_fingerprint()
            } else {
                fps[k as usize - 1].clone()
            };
            assert_eq!(
                recovered.state_fingerprint(),
                expect,
                "round {round}: snapshot at {j} + records ({}, {k}] must \
                 converge to the {k}-event state",
                j - d
            );
            // The overlapped characterization (if any) was deduplicated,
            // not re-solved: replayed + avoided never exceeds one for the
            // single characterization in the script.
            let stats = recovered.durability();
            assert!(
                stats.recharacterizations_replayed + stats.recharacterizations_avoided <= 1,
                "round {round}: characterization applied at most once"
            );
            drop(recovered);
            let _ = std::fs::remove_dir_all(&sdir);
        }
        let _ = std::fs::remove_dir_all(journal.parent().unwrap());
    }

    /// Snapshot cadence: with `snapshot_every(1)` every mutation folds
    /// into the snapshot and the journal stays compact; recovery then
    /// replays nothing and still lands on the identical state.
    #[test]
    fn aggressive_snapshot_cadence_keeps_journal_compact_and_state_exact() {
        let dir = unique_test_dir("cadence");
        let server = PerseusServer::open(
            &dir,
            ServerConfig {
                snapshot_every: 1,
                ..one_worker()
            },
        )
        .unwrap();
        let fps = scripted_history(&server);
        let stats = server.durability();
        // Every synchronous mutator folds a snapshot; the asynchronous
        // characterization append is folded by the next mutator.
        assert!(stats.snapshots_written >= fps.len() as u64 - 1);
        let journal = server.journal_path().unwrap();
        drop(server);

        let (_, ends) = record_boundaries(&journal);
        assert!(
            ends.len() <= 1,
            "per-mutation snapshots keep at most the in-flight record journaled"
        );
        let recovered = PerseusServer::open(&dir, ServerConfig::default()).unwrap();
        assert_eq!(&recovered.state_fingerprint(), fps.last().unwrap());
        assert_eq!(recovered.durability().replayed_events, 0);
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The fingerprint covers the frontier's bytes themselves, not just
    /// the segment key a snapshot stores.
    #[test]
    fn fingerprint_covers_every_frontier_byte() {
        let server = PerseusServer::new(one_worker());
        register(&server);
        server
            .submit_profiles(
                "gpt",
                model_profiles(&GpuSpec::a100_pcie()),
                &FrontierOptions::default(),
            )
            .unwrap()
            .wait()
            .unwrap();
        let frontier = server.frontier("gpt").unwrap().to_bytes();
        let fp = server.state_fingerprint();
        assert!(fp.windows(frontier.len()).any(|w| w == frontier));
    }

    /// Writes `journal` as the journal of a fresh copy of `dir` and opens
    /// a server over the copy.
    fn open_with_journal(dir: &Path, journal: &[u8], tag: &str) -> PerseusServer {
        let copy = unique_test_dir(tag);
        copy_dir(dir, &copy);
        std::fs::write(copy.join("server.journal"), journal).unwrap();
        PerseusServer::open(&copy, no_auto_snapshots()).unwrap()
    }

    /// A snapshot truncates the journal in place without a sync, so a
    /// crash can lose the truncation. Both shapes it leaves — the covered
    /// records alone, and the covered records behind records appended
    /// after the snapshot (where the truncation left them, and whole at a
    /// frame boundary) — recover the uninterrupted state, and so do the
    /// covered records reappearing after a restart snapshotted the
    /// emptied journal: the restart's snapshot still owns their numbers.
    #[test]
    fn lost_journal_truncations_recover_the_uninterrupted_state() {
        let dir = unique_test_dir("lost-trunc");
        let server = PerseusServer::open(&dir, no_auto_snapshots()).unwrap();
        let fps = scripted_history(&server);
        let journal = server.journal_path().unwrap();
        let covered = std::fs::read(&journal).unwrap();
        server.snapshot_now().unwrap();
        assert_eq!(std::fs::metadata(&journal).unwrap().len(), 8, "header only");
        let snapped = unique_test_dir("lost-trunc-snapped");
        copy_dir(&dir, &snapped);
        server.set_straggler("gpt", 1, 0.0, 1.25).unwrap();
        server.advance_time("gpt", 40.0).unwrap();
        let after = server.state_fingerprint();
        drop(server);
        let appended = std::fs::read(&journal).unwrap();
        assert!(appended.len() < covered.len());

        let stale = open_with_journal(&snapped, &covered, "lost-trunc-stale");
        assert_eq!(&stale.state_fingerprint(), fps.last().unwrap());
        assert_eq!(stale.durability().replayed_events, 0);
        assert_eq!(stale.durability().corrupt_snapshots, 0);
        drop(PerseusServer::open(&snapped, no_auto_snapshots()).unwrap());
        let restarted = open_with_journal(&snapped, &covered, "lost-trunc-restarted");
        assert_eq!(&restarted.state_fingerprint(), fps.last().unwrap());
        assert_eq!(restarted.durability().replayed_events, 0);

        let mut overlaid = appended.clone();
        overlaid.extend_from_slice(&covered[appended.len()..]);
        let mut aligned = appended.clone();
        aligned.extend_from_slice(&covered[8..]);
        for (shape, bytes) in [("overlaid", overlaid), ("aligned", aligned)] {
            let behind = open_with_journal(&dir, &bytes, "lost-trunc-behind");
            assert_eq!(behind.state_fingerprint(), after, "{shape}");
            assert_eq!(behind.durability().replayed_events, 2, "{shape}");
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&snapped);
    }

    /// `server.snap` holds only each job's small mutable state and the
    /// keys of its segments: for `durable-train`'s four jobs (GPT-3 1.3B
    /// on A100, 4 stages × 32 microbatches, stragglers active and
    /// pending) it stays under 2 KiB, and the four jobs share one
    /// `job-<key>.seg`.
    #[test]
    fn server_snap_of_four_durable_train_jobs_is_under_2_kib() {
        use perseus_models::{min_imbalance_partition, zoo};
        use perseus_pipeline::{PipelineBuilder, ScheduleKind};

        let gpu = GpuSpec::a100_pcie();
        let model = zoo::gpt3_xl(4);
        let partition = min_imbalance_partition(&model.fwd_latency_weights(&gpu), 4).unwrap();
        let stages = model.stage_workloads(&partition, &gpu).unwrap();
        let pipe = PipelineBuilder::new(ScheduleKind::OneFOneB, 4, 32)
            .build()
            .unwrap();
        let profiles = perseus_core::model_profiles(&pipe, &gpu, &stages);
        let dir = unique_test_dir("small-snap");
        // One plan cache: the jobs share one solve.
        let server = PerseusServer::open(
            &dir,
            ServerConfig {
                plan_cache: Some(Arc::new(PlanCache::new())),
                ..no_auto_snapshots()
            },
        )
        .unwrap();
        for j in 0..4 {
            let name = format!("train-{j}");
            server
                .register_job(JobSpec {
                    name: name.clone(),
                    pipe: pipe.clone(),
                    gpu: gpu.clone(),
                    power_states: None,
                })
                .unwrap();
            server
                .submit_profiles(&name, profiles.clone(), &FrontierOptions::default())
                .unwrap()
                .wait()
                .unwrap();
            server.set_straggler(&name, j, 0.0, 1.2).unwrap();
            server.set_straggler(&name, 7, 30.0, 1.1).unwrap();
        }
        server.snapshot_now().unwrap();
        let bytes = std::fs::metadata(dir.join("server.snap")).unwrap().len();
        assert!(bytes < 2048, "server.snap holds {bytes} B");
        assert_eq!(files_named(&dir, "job-").len(), 1);
        assert_eq!(files_named(&dir, "profiles-").len(), 1);
        assert_eq!(segment_files(&dir).len(), 1);

        let want = server.state_fingerprint();
        drop(server);
        let reopened = PerseusServer::open(&dir, no_auto_snapshots()).unwrap();
        assert_eq!(reopened.state_fingerprint(), want);
        assert_eq!(reopened.durability().corrupt_snapshots, 0);
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A snapshot round trip restores every kind of job bit for bit — one
    /// never characterized, a Kareus job with a straggler, a capped job
    /// with a pending notification, a degraded job — and the reopened
    /// server goes on exactly as the original does.
    #[test]
    fn reopen_round_trips_every_kind_of_job() {
        use std::collections::VecDeque;

        use perseus_gpu::PowerStateModel;

        use crate::{FaultInjector, SubmissionFault};

        let gpu = GpuSpec::a100_pcie();
        let script = Arc::new(super::Script(parking_lot::Mutex::new(VecDeque::new())));
        let cfg = ServerConfig {
            fault_injector: Some(Arc::clone(&script) as Arc<dyn FaultInjector>),
            ..no_auto_snapshots()
        };
        let dir = unique_test_dir("round-trip");
        let server = PerseusServer::open(&dir, cfg.clone()).unwrap();
        let submit = |name: &str| {
            server
                .submit_profiles(name, model_profiles(&gpu), &FrontierOptions::default())
                .unwrap()
                .wait()
        };
        register_named(&server, "bare");
        server
            .register_job(JobSpec {
                name: "kareus".into(),
                pipe: pipe(),
                gpu: gpu.clone(),
                power_states: Some(PowerStateModel::default_for(&gpu)),
            })
            .unwrap();
        submit("kareus").unwrap();
        server.set_straggler("kareus", 1, 0.0, 1.3).unwrap();
        register_named(&server, "capped");
        submit("capped").unwrap();
        let cap = FreqMHz((gpu.min_freq_mhz + gpu.max_freq_mhz) / 2);
        server.apply_freq_cap("capped", cap).unwrap();
        server.set_straggler("capped", 2, 30.0, 1.4).unwrap();
        register_named(&server, "degraded");
        submit("degraded").unwrap();
        script.0.lock().push_back(SubmissionFault::Drop);
        assert!(matches!(
            submit("degraded"),
            Err(ServerError::SubmissionLost(_))
        ));
        assert!(server.job_status("degraded").unwrap().degraded);
        server.snapshot_now().unwrap();
        let copy = unique_test_dir("round-trip-copy");
        copy_dir(&dir, &copy);

        let reopened = PerseusServer::open(&copy, cfg).unwrap();
        assert_eq!(reopened.state_fingerprint(), server.state_fingerprint());
        let stats = reopened.durability();
        assert_eq!(stats.corrupt_snapshots, 0);
        assert_eq!(stats.replayed_events, 0);
        assert_eq!(stats.recharacterizations_avoided, 3);
        assert!(reopened.job_status("degraded").unwrap().degraded);
        assert!(reopened.job_status("bare").unwrap().deployment.is_none());
        let sleep = |s: &PerseusServer| s.job_status("kareus").unwrap().deployment.unwrap().sleep;
        assert!(sleep(&reopened).is_some());

        // The pending notification fires alike on both.
        let fired = server.advance_time("capped", 40.0).unwrap();
        let refired = reopened.advance_time("capped", 40.0).unwrap();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].to_bytes(), refired[0].to_bytes());
        assert_eq!(reopened.state_fingerprint(), server.state_fingerprint());
        drop(server);
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&copy);
    }

    /// Seeded mutations of a journal that alone holds the scripted
    /// history — bit flips, truncations, and frame-aligned removals,
    /// duplicates and swaps — never panic a leader's or a follower's
    /// open. Each either fails with a typed store error or recovers the
    /// state after some prefix of the history: a record is never replayed
    /// without every record before it.
    #[test]
    fn mutated_journals_recover_a_prefix_without_panicking() {
        use crate::replica::FollowerServer;

        let dir = unique_test_dir("wal-fuzz");
        let server = PerseusServer::open(&dir, no_auto_snapshots()).unwrap();
        let mut prefixes = vec![PerseusServer::new(one_worker()).state_fingerprint()];
        prefixes.extend(scripted_history(&server));
        let journal = server.journal_path().unwrap();
        drop(server);
        let (pristine, ends) = record_boundaries(&journal);
        let mut starts = vec![8];
        starts.extend_from_slice(&ends[..ends.len() - 1]);
        let frame = |k: usize| pristine[starts[k]..ends[k]].to_vec();
        // One plan cache: every intact characterization replays as a hit.
        let cfg = ServerConfig {
            plan_cache: Some(Arc::new(PlanCache::new())),
            ..no_auto_snapshots()
        };

        let mut rng = SplitMix64(0x0A11_F00D);
        let n = ends.len() as u64;
        let mut shortened = 0;
        for run in 0..200 {
            let kind = rng.below(5);
            let bytes = match kind {
                0 => {
                    let mut bytes = pristine.clone();
                    for _ in 0..=rng.below(3) {
                        let bit = rng.below(bytes.len() as u64 * 8) as usize;
                        bytes[bit / 8] ^= 1 << (bit % 8);
                    }
                    bytes
                }
                1 => pristine[..rng.below(pristine.len() as u64) as usize].to_vec(),
                _ => {
                    let i = rng.below(n) as usize;
                    let j = rng.below(n) as usize;
                    let mut frames: Vec<Vec<u8>> = (0..ends.len()).map(frame).collect();
                    match kind {
                        2 => {
                            frames.remove(i);
                        }
                        3 => frames.insert(i, frame(j)),
                        _ => frames.swap(i, j),
                    }
                    let mut bytes = pristine[..8].to_vec();
                    frames.iter().for_each(|f| bytes.extend_from_slice(f));
                    bytes
                }
            };
            let leader_dir = unique_test_dir("wal-fuzz-leader");
            std::fs::write(leader_dir.join("server.journal"), &bytes).unwrap();
            let follower_dir = unique_test_dir("wal-fuzz-follower");
            std::fs::write(follower_dir.join("server.journal"), &bytes).unwrap();
            let leader = PerseusServer::open(&leader_dir, cfg.clone());
            let follower = FollowerServer::open(&follower_dir, cfg.clone());
            let states = [
                leader.map(|s| s.state_fingerprint()),
                follower.map(|f| f.server().state_fingerprint()),
            ];
            for state in states {
                match state {
                    Ok(fp) => {
                        let k = prefixes.iter().position(|p| *p == fp);
                        assert!(
                            k.is_some(),
                            "run {run} (kind {kind}): recovered a state no prefix of the history reaches"
                        );
                        shortened += u64::from(k != Some(prefixes.len() - 1));
                    }
                    Err(ServerError::Store(_)) => {}
                    Err(e) => panic!("run {run} (kind {kind}): untyped failure {e}"),
                }
            }
            let _ = std::fs::remove_dir_all(&leader_dir);
            let _ = std::fs::remove_dir_all(&follower_dir);
        }
        assert!(shortened > 0, "some mutation must cut the history short");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Write-once: a snapshot of unchanged frontiers writes no segment;
    /// a drift re-plan writes exactly one, and the segment it replaced
    /// is deleted once the next snapshot lands.
    #[test]
    fn snapshots_write_each_frontier_segment_once() {
        let dir = unique_test_dir("write-once");
        let server = characterized_server(&dir);
        server.snapshot_now().unwrap();
        let first = segment_files(&dir);
        assert_eq!(first.len(), 1);
        assert_eq!(server.durability().segments_written, 1);

        // Straggler and clock changes leave the frontier alone: the next
        // snapshot rewrites only `server.snap`.
        server.set_straggler("gpt", 0, 0.0, 1.2).unwrap();
        server.advance_time("gpt", 5.0).unwrap();
        server.snapshot_now().unwrap();
        let stats = server.durability();
        assert_eq!(stats.snapshots_written, 2);
        assert_eq!(stats.segments_written, 1);
        assert_eq!(segment_files(&dir), first);

        drift_replan(&server);
        assert_eq!(server.drift_replans(), 1);
        assert_eq!(
            segment_files(&dir),
            first,
            "segments are written by snapshots, not by re-plans"
        );
        server.snapshot_now().unwrap();
        assert_eq!(server.durability().segments_written, 2);
        let second = segment_files(&dir);
        assert_eq!(second.len(), 1, "the replaced segment is deleted");
        assert_ne!(second, first);

        let want = server.state_fingerprint();
        drop(server);
        let recovered = PerseusServer::open(&dir, ServerConfig::default()).unwrap();
        assert_eq!(recovered.state_fingerprint(), want);
        let stats = recovered.durability();
        assert_eq!(stats.corrupt_snapshots, 0);
        assert_eq!(stats.recharacterizations_avoided, 1);
        // The recovery snapshot found the loaded segment on disk.
        assert_eq!(stats.segments_written, 0);
        assert_eq!(segment_files(&dir), second);
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two jobs sharing one frontier through a plan-cache hit share one
    /// segment file, on disk and again after recovery.
    #[test]
    fn jobs_sharing_a_cached_frontier_share_one_segment() {
        let dir = unique_test_dir("shared-segment");
        let server = PerseusServer::open(
            &dir,
            ServerConfig {
                plan_cache: Some(Arc::new(PlanCache::new())),
                ..no_auto_snapshots()
            },
        )
        .unwrap();
        let gpu = GpuSpec::a100_pcie();
        for name in ["a", "b"] {
            register_named(&server, name);
            server
                .submit_profiles(name, model_profiles(&gpu), &FrontierOptions::default())
                .unwrap()
                .wait()
                .unwrap();
        }
        assert!(Arc::ptr_eq(
            &server.frontier("a").unwrap(),
            &server.frontier("b").unwrap()
        ));
        server.snapshot_now().unwrap();
        assert_eq!(server.durability().segments_written, 1);
        assert_eq!(segment_files(&dir).len(), 1);

        let want = server.state_fingerprint();
        drop(server);
        let recovered = PerseusServer::open(&dir, ServerConfig::default()).unwrap();
        assert_eq!(recovered.state_fingerprint(), want);
        assert_eq!(recovered.durability().recharacterizations_avoided, 2);
        assert!(Arc::ptr_eq(
            &recovered.frontier("a").unwrap(),
            &recovered.frontier("b").unwrap()
        ));
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A crash after a snapshot's new segment is on disk but before
    /// `server.snap` is renamed leaves an orphan segment and a torn temp
    /// file. Recovery ignores both, lands on the journaled state, and its
    /// own snapshot adopts the orphan and removes the temp files and any
    /// segment nothing references.
    #[test]
    fn orphan_segments_and_stale_temp_files_do_not_change_recovery() {
        let dir = unique_test_dir("orphan");
        let crashed = unique_test_dir("orphan-crashed");
        let server = characterized_server(&dir);
        server.snapshot_now().unwrap();
        let old = segment_files(&dir);
        drift_replan(&server);
        let want = server.state_fingerprint();
        // The crash point: the re-plan is journaled, no snapshot has
        // started yet.
        copy_dir(&dir, &crashed);

        // The uninterrupted snapshot writes the new segment first.
        server.snapshot_now().unwrap();
        let new = segment_files(&dir);
        assert_ne!(new, old);
        drop(server);
        std::fs::copy(dir.join(&new[0]), crashed.join(&new[0])).unwrap();
        std::fs::write(crashed.join("server.snap.tmp"), b"torn snapshot").unwrap();
        let unreferenced = format!("frontier-{:032x}.seg", 0xDEAD_BEEF_u128);
        std::fs::write(crashed.join(&unreferenced), b"no snapshot names this").unwrap();
        std::fs::write(
            crashed.join(new[0].replace(".seg", ".snap.tmp")),
            b"torn segment",
        )
        .unwrap();

        let recovered = PerseusServer::open(&crashed, ServerConfig::default()).unwrap();
        assert_eq!(recovered.state_fingerprint(), want);
        let stats = recovered.durability();
        assert_eq!(stats.corrupt_snapshots, 0);
        assert_eq!(stats.recharacterizations_replayed, 1);
        assert_eq!(stats.segments_written, 0, "the orphan holds these bytes");
        assert_eq!(segment_files(&crashed), new);
        let tmp = std::fs::read_dir(&crashed)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .ends_with(".tmp")
            })
            .count();
        assert_eq!(tmp, 0, "recovery's snapshot removes stale temp files");
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&crashed);
    }

    /// Seeded corruption of the snapshot's files: bit flips, truncations
    /// and deletions of `server.snap` and of each segment it references —
    /// the frontier, the job's inputs and its profiles. Opening never
    /// panics; it either counts a corrupt snapshot and replays the journal
    /// alone, or fails with a typed store error.
    #[test]
    fn corrupt_snapshot_files_fall_back_without_panicking() {
        let pristine = unique_test_dir("corrupt-src");
        let server = characterized_server(&pristine);
        server.set_straggler("gpt", 0, 0.0, 1.3).unwrap();
        server.snapshot_now().unwrap();
        drop(server);
        let segment = segment_files(&pristine).remove(0);
        let targets = [
            "server.snap".to_string(),
            segment,
            files_named(&pristine, "job-").remove(0),
            files_named(&pristine, "profiles-").remove(0),
        ];

        let mut rng = SplitMix64(0x5E6_C0DE);
        for round in 0..48u64 {
            let dir = unique_test_dir("corrupt");
            copy_dir(&pristine, &dir);
            let target = &targets[(round % 4) as usize];
            let path = dir.join(target);
            let mut bytes = std::fs::read(&path).unwrap();
            let mutation = (round / 4) % 3;
            match mutation {
                0 => {
                    let at = rng.below(bytes.len() as u64) as usize;
                    bytes[at] ^= 1 << rng.below(8);
                    std::fs::write(&path, &bytes).unwrap();
                }
                1 => {
                    bytes.truncate(rng.below(bytes.len() as u64) as usize);
                    std::fs::write(&path, &bytes).unwrap();
                }
                _ => std::fs::remove_file(&path).unwrap(),
            }
            match PerseusServer::open(&dir, one_worker()) {
                Ok(server) => {
                    assert_eq!(
                        server.durability().corrupt_snapshots,
                        1,
                        "round {round}: mutation {mutation} of {target}"
                    );
                    let _ = server.state_fingerprint();
                }
                Err(ServerError::Store(_)) => {}
                Err(e) => panic!("round {round}: untyped failure {e}"),
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
        let _ = std::fs::remove_dir_all(&pristine);
    }

    /// A `server.snap` of the previous format (`PSEGSNAP`) fails `open`
    /// with a typed error, as leader and as follower, and leaves every
    /// file as it was: opening it as a corrupt snapshot would keep only
    /// what the journal holds and sweep the frontier segment.
    #[test]
    fn previous_snapshot_format_fails_open_and_keeps_every_file() {
        use perseus_store::{write_snapshot, StoreError};

        use crate::replica::FollowerServer;

        let dir = unique_test_dir("previous-format");
        let server = characterized_server(&dir);
        server.snapshot_now().unwrap();
        drop(server);
        let mut payload = b"PSEGSNAP".to_vec();
        payload.extend_from_slice(&[0; 16]);
        write_snapshot(&dir.join("server.snap"), &payload).unwrap();
        let files = || {
            let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| {
                    let e = e.unwrap();
                    let bytes = std::fs::read(e.path()).unwrap();
                    (e.file_name().to_string_lossy().into_owned(), bytes)
                })
                .collect();
            files.sort();
            files
        };
        let before = files();
        assert_eq!(segment_files(&dir).len(), 1);

        let unsupported =
            |e: &ServerError| matches!(e, ServerError::Store(StoreError::Unsupported { .. }));
        let err = PerseusServer::open(&dir, one_worker())
            .err()
            .expect("refused");
        assert!(unsupported(&err), "leader: {err}");
        assert_eq!(files(), before, "leader open changed the directory");
        let err = FollowerServer::open(&dir, one_worker())
            .err()
            .expect("refused");
        assert!(unsupported(&err), "follower: {err}");
        assert_eq!(files(), before, "follower open changed the directory");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A segment whose sleep plans do not pair one for one with its
    /// frontier's points is refused at load, so the snapshot referencing
    /// it counts as corrupt; the same segment rewritten intact loads.
    #[test]
    fn segment_with_a_sleep_plan_count_unlike_its_frontier_is_refused() {
        use perseus_core::{ParetoFrontier, SleepPlan};
        use perseus_gpu::PowerStateModel;
        use perseus_store::{load_snapshot, write_snapshot, ByteReader, ByteWriter};

        let gpu = GpuSpec::a100_pcie();
        let dir = unique_test_dir("segment-sleep");
        let server = PerseusServer::open(&dir, no_auto_snapshots()).unwrap();
        server
            .register_job(JobSpec {
                name: "gpt-kareus".into(),
                pipe: pipe(),
                gpu: gpu.clone(),
                power_states: Some(PowerStateModel::default_for(&gpu)),
            })
            .unwrap();
        server
            .submit_profiles(
                "gpt-kareus",
                model_profiles(&gpu),
                &FrontierOptions::default(),
            )
            .unwrap()
            .wait()
            .unwrap();
        server.snapshot_now().unwrap();
        let fingerprint = server.state_fingerprint();
        drop(server);

        let path = dir.join(segment_files(&dir).remove(0));
        let payload = load_snapshot(&path).unwrap().unwrap();
        let mut r = ByteReader::new(&payload);
        let frontier = ParetoFrontier::decode(&mut r).unwrap();
        let sleep: Vec<SleepPlan> = Option::decode(&mut r).unwrap().expect("a Kareus segment");
        assert_eq!(sleep.len(), frontier.len());
        let reopen_with = |sleep: Vec<SleepPlan>| {
            // The segment payload: the frontier, then the sleep plans.
            let mut w = ByteWriter::new();
            frontier.encode(&mut w);
            Some(sleep).encode(&mut w);
            write_snapshot(&path, &w.into_bytes()).unwrap();
            PerseusServer::open(&dir, no_auto_snapshots()).unwrap()
        };

        let intact = reopen_with(sleep.clone());
        assert_eq!(intact.durability().corrupt_snapshots, 0);
        assert_eq!(intact.state_fingerprint(), fingerprint);
        drop(intact);

        let short = reopen_with(sleep[..sleep.len() - 1].to_vec());
        assert_eq!(short.durability().corrupt_snapshots, 1);
        drop(short);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

mod flight {
    use std::collections::VecDeque;
    use std::sync::Arc;

    use parking_lot::Mutex;
    use perseus_core::FrontierOptions;
    use perseus_gpu::GpuSpec;
    use perseus_telemetry::pipeline::FLIGHT_CAPACITY;
    use perseus_telemetry::IterationSample;

    use super::{model_profiles, one_worker, pipe, unique_test_dir, Script};
    use crate::server::{JobSpec, PerseusServer, ServerConfig, ServerError};
    use crate::{FaultInjector, SubmissionFault};

    fn sample(iteration: u64) -> IterationSample {
        IterationSample {
            iteration,
            sync_time_s: 0.42,
            useful_j: 900.0,
            intrinsic_j: 40.0,
            extrinsic_j: 10.0,
            freq_min_mhz: 1100,
            freq_max_mhz: 1410,
            degraded: false,
            degraded_lookups: 0,
            faults: 0,
        }
    }

    #[test]
    fn flight_record_snapshots_and_appears_in_job_status() {
        let gpu = GpuSpec::a100_pcie();
        let server = PerseusServer::new(one_worker());
        server
            .register_job(JobSpec {
                name: "job".into(),
                pipe: pipe(),
                gpu: gpu.clone(),
                power_states: None,
            })
            .unwrap();
        for i in 0..5 {
            server.observe_iteration("job", sample(i));
        }
        let snap = server.flight_record();
        assert_eq!(snap.samples.len(), 5);
        assert_eq!(snap.samples[4].iteration, 4);
        let status = server.job_status("job").unwrap();
        assert_eq!(status.flight.samples, 5);
        assert_eq!(status.flight.last_iteration, Some(4));
    }

    /// `observe_iteration` writes one structure: the pipeline's ring
    /// holds exactly the newest ingested samples, and the pipeline's
    /// ingest count is what the ring retained plus what it evicted.
    #[test]
    fn observed_samples_are_the_flight_record() {
        let server = PerseusServer::new(one_worker());
        let n = FLIGHT_CAPACITY as u64 + 44;
        let samples: Vec<IterationSample> = (0..n)
            .map(|i| IterationSample {
                sync_time_s: 0.42 + i as f64 * 1e-3,
                degraded: i % 7 == 0,
                faults: i % 5,
                ..sample(i)
            })
            .collect();
        for (i, s) in samples.iter().enumerate() {
            server.observe_iteration("job", *s);
            let record = server.flight_record();
            let kept = (i + 1).min(FLIGHT_CAPACITY);
            assert_eq!(record.samples, samples[i + 1 - kept..=i]);
            assert_eq!(
                server.obs().ingested(),
                record.samples.len() as u64 + record.dropped
            );
        }
        let record = server.flight_record();
        assert_eq!(record.capacity, FLIGHT_CAPACITY);
        assert_eq!(record.dropped, 44);
        assert_eq!(server.obs().ingested(), n);
        assert_eq!(server.obs().flight().summary(), record.summary());
    }

    #[test]
    fn containment_auto_dumps_the_flight_record() {
        let gpu = GpuSpec::a100_pcie();
        let script = Arc::new(Script(Mutex::new(VecDeque::from([
            SubmissionFault::None,
            SubmissionFault::Panic,
        ]))));
        let dir = unique_test_dir("flight");
        let dump = dir.join("postmortem.json");
        let server = PerseusServer::new(ServerConfig {
            fault_injector: Some(script as Arc<dyn FaultInjector>),
            flight_dump: Some(dump.clone()),
            ..one_worker()
        });
        server
            .register_job(JobSpec {
                name: "job".into(),
                pipe: pipe(),
                gpu: gpu.clone(),
                power_states: None,
            })
            .unwrap();

        let opts = FrontierOptions::default();
        // Healthy submission: no dump.
        server
            .submit_profiles("job", model_profiles(&gpu), &opts)
            .unwrap()
            .wait()
            .unwrap();
        server.observe_iteration("job", sample(0));
        assert!(!dump.exists(), "healthy path must not dump");

        // Contained panic: the post-mortem lands at the armed path.
        let result = server
            .submit_profiles("job", model_profiles(&gpu), &opts)
            .unwrap()
            .wait();
        assert!(matches!(
            result,
            Err(ServerError::CharacterizationPanicked(_))
        ));
        let text = std::fs::read_to_string(&dump).expect("containment wrote the post-mortem");
        assert!(text.contains("\"samples\": ["));
        assert!(text.contains("\"iteration\": 0"));
        assert_eq!(server.obs().flight().dumps(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

mod fleet {
    use super::*;
    use std::time::Duration;

    use perseus_store::Persist;

    use crate::client::{ClientConfig, DecorrelatedJitter, JobClient};
    use crate::fleet::{FleetConfig, FleetServer, TenantId};
    use crate::server::{FaultInjector, SubmissionFault};

    fn spec(name: &str) -> JobSpec {
        JobSpec {
            name: name.into(),
            pipe: pipe(),
            gpu: GpuSpec::a100_pcie(),
            power_states: None,
        }
    }

    fn opts() -> FrontierOptions {
        FrontierOptions {
            tau_s: Some(5e-3),
            max_iters: 50_000,
            ..FrontierOptions::default()
        }
    }

    #[test]
    fn decorrelated_jitter_is_seed_deterministic_and_bounded() {
        let base = Duration::from_millis(1);
        let cap = Duration::from_millis(10);
        let mut a = DecorrelatedJitter::new(base, cap, 42);
        let mut b = DecorrelatedJitter::new(base, cap, 42);
        let mut c = DecorrelatedJitter::new(base, cap, 43);
        let mut diverged = false;
        let mut prev = base;
        for _ in 0..200 {
            let da = a.next_delay();
            // Same seed ⇒ the exact same delay sequence.
            assert_eq!(da, b.next_delay());
            diverged |= da != c.next_delay();
            // Every draw honors the decorrelated-jitter envelope:
            // uniform in [base, min(cap, 3 × previous draw)].
            assert!(da >= base && da <= cap, "delay {da:?} out of [base, cap]");
            assert!(
                da <= (prev * 3).min(cap),
                "delay {da:?} exceeds 3x previous {prev:?}"
            );
            prev = da;
        }
        assert!(diverged, "different seeds never diverged in 200 draws");

        a.reset();
        assert!(a.next_delay() <= (base * 3).min(cap));
    }

    #[test]
    fn job_client_backoff_is_seeded_per_job() {
        let (server, job) = server_with_job();
        let server = std::sync::Arc::new(server);
        let (base, cap) = (Duration::from_micros(100), Duration::from_millis(5));
        let cfg = ClientConfig::default().backoff(base).max_backoff(cap);
        // Jitter seeds from the job name: deterministic per job, and two
        // *different* jobs draw different sequences.
        let c1 = JobClient::with_config(std::sync::Arc::clone(&server), job, cfg);
        let c2 = JobClient::with_config(std::sync::Arc::clone(&server), job, cfg);
        let other = JobClient::with_config(std::sync::Arc::clone(&server), "other-job", cfg);
        let mut job_diverged = false;
        for _ in 0..32 {
            let d = c1.next_backoff_delay();
            assert_eq!(
                d,
                c2.next_backoff_delay(),
                "same job must replay the same delays"
            );
            assert!(d >= base && d <= cap, "delay {d:?} out of [base, cap]");
            job_diverged |= d != other.next_backoff_delay();
        }
        assert!(job_diverged, "distinct jobs should be decorrelated");
    }

    /// Holds the single admission slot with a real (delayed) task, then
    /// verifies `Overloaded` both surfaces as a typed rejection and is
    /// ridden out transparently by the retrying client.
    #[test]
    fn admission_control_rejects_then_client_retries_through() {
        struct DelayFirst;
        impl FaultInjector for DelayFirst {
            fn submission_fault(&self, _job: &str, epoch: u64) -> SubmissionFault {
                if epoch == 1 {
                    SubmissionFault::Delay(Duration::from_millis(250))
                } else {
                    SubmissionFault::None
                }
            }
        }

        let (server, job) = server_with_job_from(ServerConfig {
            max_inflight: 1,
            fault_injector: Some(std::sync::Arc::new(DelayFirst)),
            ..ServerConfig::default()
        });
        let server = std::sync::Arc::new(server);
        let gpu = GpuSpec::a100_pcie();

        // Claims the only slot and stalls in the worker for 250 ms.
        let _slow = server
            .submit_profiles(job, model_profiles(&gpu), &opts())
            .unwrap();
        // A bare resubmission is refused with the typed error...
        match server.submit_profiles(job, model_profiles(&gpu), &opts()) {
            Err(ServerError::Overloaded {
                inflight, limit, ..
            }) => {
                assert_eq!((inflight, limit), (1, 1));
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        // ...while the retrying client backs off until the slot frees.
        let client = JobClient::with_config(
            std::sync::Arc::clone(&server),
            job,
            ClientConfig::default()
                .retries(40)
                .backoff(Duration::from_millis(10))
                .max_backoff(Duration::from_millis(50))
                .timeout(Duration::from_millis(500)),
        );
        let deployment = client
            .submit_profiles_with_retry(&model_profiles(&gpu), &opts())
            .expect("client must ride out Overloaded");
        assert!(deployment.schedule.time_s > 0.0);
        assert!(client.retries() > 0, "the client should have backed off");
        assert!(server.peak_inflight_characterizations() <= 1);
        assert_eq!(server.inflight_characterizations(), 0);
    }

    /// A batch needs one free slot per entry: past the bound it is
    /// rejected whole, before any entry claims a slot or an epoch.
    #[test]
    fn batch_admission_is_all_or_nothing() {
        let gpu = GpuSpec::a100_pcie();
        let server = PerseusServer::new(ServerConfig {
            max_inflight: 1,
            ..ServerConfig::default()
        });
        for name in ["a", "b"] {
            server.register_job(spec(name)).unwrap();
        }
        let batch = ["a", "b"]
            .map(|name| (name.to_string(), model_profiles(&gpu), opts()))
            .to_vec();
        match server.submit_profiles_batch(batch) {
            Err(ServerError::Overloaded {
                job,
                inflight,
                limit,
            }) => assert_eq!((job.as_str(), inflight, limit), ("a", 0, 1)),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(server.peak_inflight_characterizations(), 0);
        assert_eq!(server.inflight_characterizations(), 0);
        // Neither job took an epoch: each one's first submission that
        // does get in deploys as epoch 1.
        for name in ["a", "b"] {
            server
                .submit_profiles(name, model_profiles(&gpu), &opts())
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(server.job_status(name).unwrap().epoch, 1);
        }
        assert_eq!(server.peak_inflight_characterizations(), 1);
    }

    /// A pipeline whose DAG has a cycle is refused at registration with a
    /// typed error, on a server and through a fleet: no panic, nothing
    /// registered, and both go on serving other jobs.
    #[test]
    fn cyclic_pipelines_are_rejected_at_registration() {
        let gpu = GpuSpec::a100_pcie();
        let cyclic = || {
            let mut spec = spec("loop");
            let (sink, source) = (spec.pipe.sink, spec.pipe.source);
            spec.pipe
                .dag
                .add_edge_unchecked(sink, source, perseus_pipeline::DepKind::Boundary);
            spec
        };
        let rejected = |err: ServerError| {
            assert!(
                matches!(&err, ServerError::InvalidPipeline { job, .. } if job == "loop"),
                "got {err:?}"
            );
            assert!(err.to_string().contains("cycle"), "{err}");
        };

        let server = PerseusServer::new(one_worker());
        rejected(server.register_job(cyclic()).unwrap_err());
        assert!(server.job_names().is_empty());
        server.register_job(spec("ok")).unwrap();
        server
            .submit_profiles("ok", model_profiles(&gpu), &opts())
            .unwrap()
            .wait()
            .unwrap();

        let fleet = FleetServer::new(FleetConfig::default().shards(2).workers_per_shard(1));
        rejected(fleet.register_job(cyclic()).unwrap_err());
        assert!((0..2).all(|i| fleet.shard(i).job_names().is_empty()));
        fleet.register_job(spec("ok")).unwrap();
        fleet
            .submit_profiles(&TenantId::from("t"), "ok", model_profiles(&gpu), &opts())
            .unwrap()
            .wait()
            .unwrap();
    }

    #[test]
    fn fleet_shares_one_plan_cache_across_shards_and_jobs() {
        let fleet = FleetServer::new(FleetConfig::default().shards(4).workers_per_shard(1));
        let tenant = TenantId::from("ml-platform");
        let gpu = GpuSpec::a100_pcie();
        let names: Vec<String> = (0..12).map(|i| format!("fleet-job-{i}")).collect();
        for n in &names {
            fleet.register_job(spec(n)).unwrap();
        }
        // Jobs actually spread across shards.
        let mut shards_used: Vec<usize> = names.iter().map(|n| fleet.shard_of(n)).collect();
        shards_used.sort_unstable();
        shards_used.dedup();
        assert!(shards_used.len() > 1, "12 jobs all hashed to one shard");

        // First job solves and fills the cache...
        fleet
            .submit_profiles(&tenant, &names[0], model_profiles(&gpu), &opts())
            .unwrap()
            .wait()
            .unwrap();
        // ...every structurally identical job after it hits, regardless
        // of shard.
        for n in &names[1..] {
            fleet
                .submit_profiles(&tenant, n, model_profiles(&gpu), &opts())
                .unwrap()
                .wait()
                .unwrap();
        }
        let stats = fleet.stats();
        assert_eq!(stats.submitted, 12);
        assert_eq!(stats.admitted, 12);
        assert_eq!(stats.cache.inserts, 1, "one structure, one solve");
        assert_eq!(stats.cache.hits, 11, "all later jobs reuse the plan");
        // The deployed schedules are identical across jobs: selection on
        // a shared plan.
        let d0 = fleet
            .job_status(&tenant, &names[0])
            .unwrap()
            .deployment
            .unwrap();
        for n in &names[1..] {
            let d = fleet.job_status(&tenant, n).unwrap().deployment.unwrap();
            assert_eq!(
                d.schedule.to_bytes(),
                d0.schedule.to_bytes(),
                "{n}: cached deployment differs from the solved one"
            );
        }
        // Straggler notifications route through the fleet too.
        assert!(fleet
            .set_straggler(&names[3], 0, 0.0, 1.3)
            .unwrap()
            .is_some());
    }

    #[test]
    fn tenant_quota_rejects_when_dry_and_refills_with_the_clock() {
        let fleet = FleetServer::new(
            FleetConfig::default().shards(2).tenant_quota(2.0, 1.0), // burst 2, +1 token per second
        );
        let tenant = TenantId::from("greedy");
        let gpu = GpuSpec::a100_pcie();
        for i in 0..3 {
            fleet.register_job(spec(&format!("quota-{i}"))).unwrap();
        }
        fleet
            .submit_profiles(&tenant, "quota-0", model_profiles(&gpu), &opts())
            .unwrap()
            .wait()
            .unwrap();
        fleet
            .submit_profiles(&tenant, "quota-1", model_profiles(&gpu), &opts())
            .unwrap()
            .wait()
            .unwrap();
        match fleet.submit_profiles(&tenant, "quota-2", model_profiles(&gpu), &opts()) {
            Err(ServerError::QuotaExhausted { tenant: t }) => assert_eq!(t, "greedy"),
            other => panic!("expected QuotaExhausted, got {other:?}"),
        }
        assert_eq!(fleet.tenant_tokens(&tenant), Some(0.0));

        // One fleet-clock second refills one token.
        fleet.advance_clock(1.0);
        assert_eq!(fleet.tenant_tokens(&tenant), Some(1.0));
        fleet
            .submit_profiles(&tenant, "quota-2", model_profiles(&gpu), &opts())
            .unwrap()
            .wait()
            .unwrap();

        let stats = fleet.stats();
        assert_eq!(stats.submitted, 4);
        assert_eq!(stats.admitted, 3);
        assert_eq!(stats.rejected_quota, 1);
        // An unquota'd tenant is never charged.
        assert_eq!(fleet.tenant_tokens(&TenantId::from("idle")), None);
    }

    /// The tentpole stress test: many threads, many tenants, bounded
    /// shards, finite quotas — and at the end, exact accounting plus
    /// per-shard state equal to a sequential replay of the admitted work.
    #[test]
    fn concurrent_fleet_accounting_is_exact_and_replayable() {
        const TENANTS: usize = 4;
        const PER_TENANT: usize = 30;
        const BURST: f64 = 20.0;

        let cfg = FleetConfig::default()
            .shards(3)
            .workers_per_shard(1)
            .max_inflight_per_shard(2)
            .tenant_quota(BURST, 0.0);
        let fleet = FleetServer::new(cfg);
        let gpu = GpuSpec::a100_pcie();

        let mut names = Vec::new();
        for t in 0..TENANTS {
            for i in 0..PER_TENANT {
                let name = format!("stress-t{t}-job{i}");
                fleet.register_job(spec(&name)).unwrap();
                names.push(name);
            }
        }

        // Each tenant submits from its own thread; outcomes are recorded
        // locally so totals can be cross-checked against FleetStats.
        let admitted: parking_lot::Mutex<Vec<String>> = parking_lot::Mutex::new(Vec::new());
        let counts: parking_lot::Mutex<(u64, u64, u64)> = parking_lot::Mutex::new((0, 0, 0));
        std::thread::scope(|s| {
            for t in 0..TENANTS {
                let fleet = &fleet;
                let gpu = &gpu;
                let admitted = &admitted;
                let counts = &counts;
                s.spawn(move || {
                    let tenant = TenantId(format!("tenant-{t}"));
                    let mut tickets = Vec::new();
                    let (mut ok, mut quota, mut over) = (0u64, 0u64, 0u64);
                    for i in 0..PER_TENANT {
                        let name = format!("stress-t{t}-job{i}");
                        match fleet.submit_profiles(&tenant, &name, model_profiles(gpu), &opts()) {
                            Ok(ticket) => {
                                ok += 1;
                                admitted.lock().push(name);
                                tickets.push(ticket);
                            }
                            Err(ServerError::QuotaExhausted { .. }) => quota += 1,
                            Err(ServerError::Overloaded { .. }) => over += 1,
                            Err(e) => panic!("unexpected error: {e:?}"),
                        }
                    }
                    for ticket in tickets {
                        ticket.wait().unwrap();
                    }
                    let mut c = counts.lock();
                    c.0 += ok;
                    c.1 += quota;
                    c.2 += over;
                });
            }
        });

        let (ok, quota, over) = *counts.lock();
        let stats = fleet.stats();
        // Exact accounting: every submission landed in exactly one bucket,
        // and the fleet's counters agree with the per-thread tallies.
        assert_eq!(stats.submitted, (TENANTS * PER_TENANT) as u64);
        assert_eq!(
            stats.submitted,
            stats.admitted
                + stats.rejected_quota
                + stats.rejected_overloaded
                + stats.rejected_other
        );
        assert_eq!(stats.admitted, ok);
        assert_eq!(stats.rejected_quota, quota);
        assert_eq!(stats.rejected_overloaded, over);
        assert_eq!(stats.rejected_other, 0);
        // Quota math is deterministic per tenant (one thread each, zero
        // refill): exactly burst-many submissions pass the bucket.
        assert_eq!(
            stats.rejected_quota,
            (TENANTS * PER_TENANT) as u64 - TENANTS as u64 * BURST as u64
        );
        // No shard ever exceeded its in-flight bound.
        for (i, shard) in fleet.shards().iter().enumerate() {
            assert!(
                shard.peak_inflight_characterizations() <= 2,
                "shard {i} exceeded its admission bound: {}",
                shard.peak_inflight_characterizations()
            );
            assert_eq!(shard.inflight_characterizations(), 0);
        }

        // Replay: a fresh single server per shard, fed the same
        // registrations and only the admitted submissions, sequentially.
        // Its state fingerprint must equal the concurrent shard's — the
        // shared cache and the thread interleaving are both invisible in
        // final state.
        let admitted = admitted.lock();
        for (i, shard) in fleet.shards().iter().enumerate() {
            let replay = PerseusServer::new(one_worker());
            for name in &names {
                if fleet.shard_of(name) == i {
                    replay.register_job(spec(name)).unwrap();
                }
            }
            for name in admitted.iter() {
                if fleet.shard_of(name) == i {
                    replay
                        .submit_profiles(name, model_profiles(&gpu), &opts())
                        .unwrap()
                        .wait()
                        .unwrap();
                }
            }
            assert_eq!(
                shard.state_fingerprint(),
                replay.state_fingerprint(),
                "shard {i} diverged from its sequential replay"
            );
        }
    }

    /// Crash mid-fill, reopen, and the fleet cache keeps serving: replayed
    /// characterizations hit recovered entries instead of re-solving.
    #[test]
    fn durable_fleet_cache_survives_crash_and_skips_resolves() {
        let root = unique_test_dir("fleet-durable");
        let cfg = FleetConfig::default().shards(2).workers_per_shard(1);
        let gpu = GpuSpec::a100_pcie();

        let (pre_frontier, pre_fps) = {
            let fleet = FleetServer::open(&root, cfg.clone()).unwrap();
            for n in ["crash-a", "crash-b"] {
                fleet.register_job(spec(n)).unwrap();
            }
            let tenant = TenantId::from("acme");
            fleet
                .submit_profiles(&tenant, "crash-a", model_profiles(&gpu), &opts())
                .unwrap()
                .wait()
                .unwrap();
            fleet
                .submit_profiles(&tenant, "crash-b", model_profiles(&gpu), &opts())
                .unwrap()
                .wait()
                .unwrap();
            let stats = fleet.stats();
            assert_eq!(stats.cache.inserts, 1);
            assert_eq!(stats.cache.hits, 1);
            let frontier = fleet
                .shard(fleet.shard_of("crash-a"))
                .frontier("crash-a")
                .unwrap()
                .to_bytes();
            (frontier, fleet.plan_cache().fingerprints())
            // Dropped here without any graceful shutdown: the crash.
        };

        let fleet = FleetServer::open(&root, cfg).unwrap();
        // The cache came back from its own WAL...
        let stats = fleet.plan_cache().stats();
        assert_eq!(stats.recovered_entries, 1, "cache entry lost in crash");
        assert_eq!(fleet.plan_cache().fingerprints(), pre_fps);
        // ...and journal replay answered re-characterizations from it:
        // at least one replayed Characterized event became a lookup.
        let avoided: u64 = fleet
            .shards()
            .iter()
            .map(|s| s.durability().recharacterizations_avoided)
            .sum();
        assert!(avoided >= 1, "recovery re-solved despite a warm cache");
        // Recovered state is bit-identical to the pre-crash state.
        let post_frontier = fleet
            .shard(fleet.shard_of("crash-a"))
            .frontier("crash-a")
            .unwrap()
            .to_bytes();
        assert_eq!(post_frontier, pre_frontier);
        // New structurally identical work still hits without solving.
        fleet.register_job(spec("crash-c")).unwrap();
        fleet
            .submit_profiles(
                &TenantId::from("acme"),
                "crash-c",
                model_profiles(&gpu),
                &opts(),
            )
            .unwrap()
            .wait()
            .unwrap();
        let after = fleet.plan_cache().stats();
        assert_eq!(
            after.inserts, 0,
            "a recovered entry should satisfy new jobs"
        );
        assert!(after.hits >= 1);
        std::fs::remove_dir_all(&root).ok();
    }
}

mod kareus {
    use perseus_gpu::PowerStateModel;

    use super::*;

    fn kareus_server() -> (PerseusServer, &'static str) {
        let gpu = GpuSpec::a100_pcie();
        let server = PerseusServer::new(ServerConfig::default());
        server
            .register_job(JobSpec {
                name: "gpt-kareus".into(),
                pipe: pipe(),
                gpu: gpu.clone(),
                power_states: Some(PowerStateModel::default_for(&gpu)),
            })
            .unwrap();
        (server, "gpt-kareus")
    }

    #[test]
    fn kareus_jobs_deploy_sleep_plans_and_perseus_jobs_do_not() {
        let gpu = GpuSpec::a100_pcie();
        let (server, job) = kareus_server();
        let deployment = server
            .submit_profiles(job, model_profiles(&gpu), &FrontierOptions::default())
            .unwrap()
            .wait()
            .unwrap();
        let sleep = deployment.sleep.as_ref().expect("kareus job carries sleep");
        // Every window fits inside the deployed point's iteration.
        for stage in 0..3 {
            for w in sleep.stage_windows(stage) {
                assert!(w.start_s >= -1e-9);
                assert!(w.end_s <= deployment.planned_time_s + 1e-9);
            }
        }

        // A straggler lookup re-indexes the per-point sleep plans.
        let slow = server
            .set_straggler(job, 1, 0.0, 1.4)
            .unwrap()
            .expect("immediate deployment");
        assert!(slow.sleep.is_some());

        // A frequency-only job keeps the classic Perseus surface.
        let (server, job) = server_with_job();
        let deployment = server
            .submit_profiles(job, model_profiles(&gpu), &FrontierOptions::default())
            .unwrap()
            .wait()
            .unwrap();
        assert!(deployment.sleep.is_none());
    }

    /// The plan cache keys a frontier by what the frontier depends on,
    /// and a Kareus job's frontier is the Perseus one: a Kareus job and a
    /// Perseus job of one structure share one solve and one `Arc`, and
    /// only the Kareus deployment carries sleep plans.
    #[test]
    fn kareus_and_perseus_jobs_share_one_cached_frontier() {
        let gpu = GpuSpec::a100_pcie();
        let cache = Arc::new(perseus_core::PlanCache::new());
        let server = PerseusServer::new(ServerConfig {
            plan_cache: Some(Arc::clone(&cache)),
            ..ServerConfig::default()
        });
        let jobs = [
            ("kareus", Some(PowerStateModel::default_for(&gpu))),
            ("perseus", None),
        ];
        let mut deployed = Vec::new();
        for (name, power_states) in jobs {
            server
                .register_job(JobSpec {
                    name: name.into(),
                    pipe: pipe(),
                    gpu: gpu.clone(),
                    power_states,
                })
                .unwrap();
            let ticket = server
                .submit_profiles(name, model_profiles(&gpu), &FrontierOptions::default())
                .unwrap();
            deployed.push(ticket.wait().unwrap());
        }
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits, stats.entries), (1, 1, 1));
        let (kareus, perseus) = (server.frontier("kareus"), server.frontier("perseus"));
        assert!(Arc::ptr_eq(&kareus.unwrap(), &perseus.unwrap()));
        assert!(deployed[0].sleep.is_some(), "the kareus job sleeps");
        assert!(deployed[1].sleep.is_none(), "the perseus job does not");
    }

    #[test]
    fn invalid_power_states_are_rejected_at_registration() {
        let gpu = GpuSpec::a100_pcie();
        let hot = PowerStateModel {
            states: vec![perseus_gpu::PowerState {
                name: "hot",
                power_w: gpu.blocking_w * 2.0,
                entry_s: 0.001,
                exit_s: 0.001,
            }],
        };
        let server = PerseusServer::new(ServerConfig::default());
        let err = server
            .register_job(JobSpec {
                name: "bad".into(),
                pipe: pipe(),
                gpu,
                power_states: Some(hot),
            })
            .unwrap_err();
        assert!(matches!(err, ServerError::Core(_)), "got {err:?}");
        // The rejected job was never registered.
        assert!(server.job_names().is_empty());
    }

    #[test]
    fn freq_cap_recomputes_sleep_against_the_capped_timeline() {
        let gpu = GpuSpec::a100_pcie();
        let (server, job) = kareus_server();
        server
            .submit_profiles(job, model_profiles(&gpu), &FrontierOptions::default())
            .unwrap()
            .wait()
            .unwrap();
        let capped = server.apply_freq_cap(job, FreqMHz(800)).unwrap();
        let sleep = capped.sleep.as_ref().expect("sleep survives the cap");
        for stage in 0..3 {
            for w in sleep.stage_windows(stage) {
                assert!(w.end_s <= capped.planned_time_s + 1e-9);
            }
        }
    }

    #[test]
    fn kareus_state_survives_crash_recovery() {
        let gpu = GpuSpec::a100_pcie();
        let dir = unique_test_dir("kareus");
        let fingerprint = {
            let server = PerseusServer::open(&dir, ServerConfig::default()).unwrap();
            server
                .register_job(JobSpec {
                    name: "gpt-kareus".into(),
                    pipe: pipe(),
                    gpu: gpu.clone(),
                    power_states: Some(PowerStateModel::default_for(&gpu)),
                })
                .unwrap();
            server
                .submit_profiles(
                    "gpt-kareus",
                    model_profiles(&gpu),
                    &FrontierOptions::default(),
                )
                .unwrap()
                .wait()
                .unwrap();
            server.state_fingerprint()
        };
        let recovered = PerseusServer::open(&dir, ServerConfig::default()).unwrap();
        assert_eq!(recovered.state_fingerprint(), fingerprint);
        let status = recovered.job_status("gpt-kareus").unwrap();
        assert!(status.deployment.unwrap().sleep.is_some());
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Streaming-observability integration: the server-side pipeline, the
/// fleet rollup, and the fleet HTTP endpoint.
mod obs {
    use super::*;

    use std::io::{Read as _, Write as _};

    use perseus_telemetry::{IterationSample, Telemetry};

    use crate::fleet::{FleetConfig, FleetServer, TenantId};
    use crate::server::JobSpec;

    fn sample(iteration: u64, sync_time_s: f64) -> IterationSample {
        IterationSample {
            iteration,
            sync_time_s,
            useful_j: 900.0,
            intrinsic_j: 60.0,
            extrinsic_j: 40.0,
            freq_min_mhz: 900,
            freq_max_mhz: 1400,
            degraded: false,
            degraded_lookups: 0,
            faults: 0,
        }
    }

    fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes())
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        (head.to_string(), body.to_string())
    }

    #[test]
    fn observe_iteration_populates_job_status_slo() {
        let gpu = GpuSpec::a100_pcie();
        let server = PerseusServer::new(ServerConfig {
            telemetry: Telemetry::enabled(),
            ..one_worker()
        });
        server
            .register_job(JobSpec {
                name: "gpt".into(),
                pipe: pipe(),
                gpu: gpu.clone(),
                power_states: None,
            })
            .unwrap();
        server
            .submit_profiles("gpt", model_profiles(&gpu), &FrontierOptions::default())
            .unwrap()
            .wait()
            .unwrap();
        for i in 0..64 {
            let alerts = server.observe_iteration("gpt", sample(i, 1.0));
            assert!(alerts.is_empty(), "steady state must not alert: {alerts:?}");
        }
        let status = server.job_status("gpt").unwrap();
        assert!(!status.slo.is_empty(), "JobStatus must surface SLO state");
        assert!(
            status.slo.iter().all(|s| s.healthy),
            "steady state must be healthy: {:?}",
            status.slo
        );
        // The pipeline saw every sample, and its flight recorder kept them.
        assert_eq!(server.obs().ingested(), 64);
        assert_eq!(server.obs().flight().summary().samples, 64);
    }

    #[test]
    fn server_observe_flags_drift_burst() {
        let server = PerseusServer::new(ServerConfig::default());
        let mut firing = Vec::new();
        for i in 0..200 {
            // Straggler onset at iteration 100: sync time jumps 40%.
            let t = if i < 100 { 1.0 } else { 1.4 };
            firing.extend(server.observe_iteration("gpt", sample(i, t)));
        }
        assert!(
            firing
                .iter()
                .any(|a| a.iteration >= 100 && a.iteration <= 110),
            "drift must be caught within 10 iterations of onset: {firing:?}"
        );
    }

    #[test]
    fn fleet_rollup_dedups_shared_registry() {
        let tel = Telemetry::enabled();
        let fleet = FleetServer::new(
            FleetConfig::default()
                .shards(4)
                .workers_per_shard(1)
                .telemetry(tel.clone()),
        );
        let tenant = TenantId::from("search");
        let gpu = GpuSpec::a100_pcie();
        for name in ["a", "b", "c"] {
            fleet
                .register_job(JobSpec {
                    name: name.into(),
                    pipe: pipe(),
                    gpu: gpu.clone(),
                    power_states: None,
                })
                .unwrap();
            fleet
                .submit_profiles(
                    &tenant,
                    name,
                    model_profiles(&gpu),
                    &FrontierOptions::default(),
                )
                .unwrap()
                .wait()
                .unwrap();
        }
        let rollup = fleet.metrics_rollup();
        // All shards share one registry: shard-emitted counters appear
        // exactly once, not once per shard.
        let shared = tel.snapshot();
        for (name, labels, value) in shared.iter() {
            let labels: Vec<(&str, &str)> = labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            assert_eq!(
                rollup.value_of(name, &labels),
                Some(value),
                "{name} must not be double-counted"
            );
        }
        // Fleet-level counters ride along.
        assert_eq!(
            rollup.value_of("perseus_fleet_submitted_total", &[]),
            Some(3.0)
        );
        assert_eq!(
            rollup.value_of("perseus_fleet_admitted_total", &[]),
            Some(3.0)
        );
        assert_eq!(
            rollup.value_of(
                "perseus_fleet_tenant_submitted_total",
                &[("tenant", "search")]
            ),
            Some(3.0)
        );
    }

    #[test]
    fn fleet_rollup_is_exact_sum_under_sharded_telemetry() {
        let fleet_tel = Telemetry::enabled();
        let fleet = FleetServer::new(
            FleetConfig::default()
                .shards(3)
                .workers_per_shard(1)
                .sharded_telemetry(true)
                .telemetry(fleet_tel.clone()),
        );
        let tenant = TenantId::from("ads");
        let gpu = GpuSpec::a100_pcie();
        for name in ["a", "b", "c", "d", "e", "f"] {
            fleet
                .register_job(JobSpec {
                    name: name.into(),
                    pipe: pipe(),
                    gpu: gpu.clone(),
                    power_states: None,
                })
                .unwrap();
            fleet
                .submit_profiles(
                    &tenant,
                    name,
                    model_profiles(&gpu),
                    &FrontierOptions::default(),
                )
                .unwrap()
                .wait()
                .unwrap();
        }
        // Registries are disjoint, so every rolled-up sample equals the
        // sum of that sample across the shard snapshots plus the fleet's
        // own registry (the shared plan cache emits there).
        let mut shard_snaps: Vec<_> = fleet
            .shards()
            .iter()
            .map(|s| s.telemetry().snapshot())
            .collect();
        shard_snaps.push(fleet_tel.snapshot());
        let rollup = fleet.metrics_rollup();
        let mut checked = 0;
        for (name, labels, value) in rollup.iter() {
            if name.starts_with("perseus_fleet_") {
                continue;
            }
            if name.ends_with("_p50") || name.ends_with("_p90") || name.ends_with("_p99") {
                continue; // quantiles are derived, not summable
            }
            let labels: Vec<(&str, &str)> = labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            let sum: f64 = shard_snaps
                .iter()
                .filter_map(|s| s.value_of(name, &labels))
                .sum();
            assert!(
                (value - sum).abs() < 1e-9,
                "{name}{labels:?}: rollup {value} != shard sum {sum}"
            );
            checked += 1;
        }
        assert!(checked > 0, "rollup had nothing to check");
    }

    #[test]
    fn fleet_serves_rollup_over_http() {
        let fleet = Arc::new(FleetServer::new(
            FleetConfig::default()
                .shards(2)
                .workers_per_shard(1)
                .telemetry(Telemetry::enabled()),
        ));
        let tenant = TenantId::from("search");
        let gpu = GpuSpec::a100_pcie();
        fleet
            .register_job(JobSpec {
                name: "gpt".into(),
                pipe: pipe(),
                gpu: gpu.clone(),
                power_states: None,
            })
            .unwrap();
        fleet
            .submit_profiles(
                &tenant,
                "gpt",
                model_profiles(&gpu),
                &FrontierOptions::default(),
            )
            .unwrap()
            .wait()
            .unwrap();
        for i in 0..32 {
            fleet
                .shard(fleet.shard_of("gpt"))
                .observe_iteration("gpt", sample(i, 1.0));
        }
        let http = fleet.serve_telemetry("127.0.0.1:0").unwrap();
        let addr = http.addr();

        let (head, body) = http_get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert_eq!(body, fleet.metrics_rollup().render());
        assert!(body.contains("perseus_fleet_submitted_total 1"));
        assert!(body.contains("perseus_fleet_tenant_submitted_total{tenant=\"search\"} 1"));

        let (head, body) = http_get(addr, "/slo");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(body.starts_with('[') && body.ends_with(']'), "{body}");
        assert!(body.contains("lookup_latency_p99"), "{body}");

        let (head, body) = http_get(addr, "/alerts");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert_eq!(body, "[]", "steady state serves an empty alert list");

        let (head, _) = http_get(addr, "/health");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        http.shutdown();
    }

    #[test]
    fn tenant_stats_are_sorted_and_exact() {
        let fleet = FleetServer::new(FleetConfig::default().shards(2));
        let gpu = GpuSpec::a100_pcie();
        fleet
            .register_job(JobSpec {
                name: "gpt".into(),
                pipe: pipe(),
                gpu: gpu.clone(),
                power_states: None,
            })
            .unwrap();
        for tenant in ["zeta", "alpha"] {
            let tenant = TenantId::from(tenant);
            fleet
                .submit_profiles(
                    &tenant,
                    "gpt",
                    model_profiles(&gpu),
                    &FrontierOptions::default(),
                )
                .unwrap()
                .wait()
                .unwrap();
            fleet.job_status(&tenant, "gpt").unwrap();
            // Unknown job: rejected, still charged to the tenant.
            let _ = fleet.submit_profiles(
                &tenant,
                "nope",
                model_profiles(&gpu),
                &FrontierOptions::default(),
            );
        }
        let stats = fleet.tenant_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].0.as_str(), "alpha");
        assert_eq!(stats[1].0.as_str(), "zeta");
        for (_, s) in &stats {
            assert_eq!(s.submitted, 2);
            assert_eq!(s.admitted, 1);
            assert_eq!(s.rejected, 1);
            assert_eq!(s.lookups, 1);
        }
    }
}

mod replication {
    use std::sync::Arc;

    use perseus_core::{FrontierOptions, PlanCache};
    use perseus_gpu::{FreqMHz, GpuSpec};
    use perseus_pipeline::{CompKind, OpKey, PipelineBuilder, ScheduleKind};
    use perseus_profiler::ProfileDelta;

    use perseus_store::StoreError;

    use super::{model_profiles, one_worker, pipe, unique_test_dir, Script, SplitMix64};
    use crate::replica::{FollowerServer, Replicator};
    use crate::server::{JobSpec, PerseusServer, Role, ServerConfig, ServerError};
    use crate::JobClient;
    use crate::{FaultInjector, SubmissionFault};

    fn register(server: &PerseusServer) {
        server
            .register_job(JobSpec {
                name: "gpt".into(),
                pipe: pipe(),
                gpu: GpuSpec::a100_pcie(),
                power_states: None,
            })
            .unwrap();
    }

    /// Drives a durable leader through a short journaled history (one
    /// record per mutation) ending in a solved, deployed frontier.
    fn drive_leader(server: &PerseusServer) {
        let gpu = GpuSpec::a100_pcie();
        register(server);
        server
            .submit_profiles("gpt", model_profiles(&gpu), &FrontierOptions::default())
            .unwrap()
            .wait()
            .unwrap();
        server.set_straggler("gpt", 0, 0.0, 1.2).unwrap();
        server.set_straggler("gpt", 2, 30.0, 1.4).unwrap();
        server.advance_time("gpt", 10.0).unwrap();
        let cap = FreqMHz((gpu.min_freq_mhz + gpu.max_freq_mhz) / 2);
        server.apply_freq_cap("gpt", cap).unwrap();
    }

    #[test]
    fn follower_rejects_mutations_with_not_leader() {
        let (server, job) = super::server_with_job();
        let gpu = GpuSpec::a100_pcie();
        server
            .submit_profiles(job, model_profiles(&gpu), &FrontierOptions::default())
            .unwrap()
            .wait()
            .unwrap();

        server.set_role(Role::Follower, "leader-1".into());
        assert_eq!(server.role(), Role::Follower);

        // Every public mutator bounces with the configured hint.
        let err = server
            .submit_profiles(job, model_profiles(&gpu), &FrontierOptions::default())
            .unwrap_err();
        assert!(matches!(&err, ServerError::NotLeader { hint } if hint == "leader-1"));
        let err = server.set_straggler(job, 0, 0.0, 1.2).unwrap_err();
        assert!(matches!(&err, ServerError::NotLeader { hint } if hint == "leader-1"));
        let err = server
            .register_job(JobSpec {
                name: "other".into(),
                pipe: pipe(),
                gpu: GpuSpec::a100_pcie(),
                power_states: None,
            })
            .unwrap_err();
        assert!(matches!(err, ServerError::NotLeader { .. }));
        let err = server
            .ingest_drift(
                job,
                &[ProfileDelta {
                    key: OpKey {
                        stage: 0,
                        chunk: 0,
                        kind: CompKind::Forward,
                    },
                    time_factor: 1.5,
                    energy_factor: 1.5,
                }],
            )
            .unwrap_err();
        assert!(matches!(err, ServerError::NotLeader { .. }));

        // Reads still serve: a follower answers status (reporting its
        // role) and frontier lookups from replicated state.
        let status = server.job_status(job).unwrap();
        assert_eq!(status.role, Role::Follower);
        assert!(server.frontier(job).is_some());

        // Promotion flips the same switch back.
        server.set_role(Role::Leader, String::new());
        assert!(server.set_straggler(job, 0, 0.0, 1.2).is_ok());
    }

    #[test]
    fn client_fails_over_to_resolved_leader() {
        let gpu = GpuSpec::a100_pcie();
        let leader = Arc::new(PerseusServer::new(ServerConfig::default()));
        register(&leader);

        // A follower with the same job replicated; the client starts here.
        let follower = Arc::new(PerseusServer::new(ServerConfig::default()));
        register(&follower);
        follower.set_role(Role::Follower, "leader-1".into());

        let client = JobClient::new(Arc::clone(&follower), "gpt");
        let resolved_leader = Arc::clone(&leader);
        client.set_resolver(move |hint| {
            assert_eq!(hint, "leader-1");
            Some(Arc::clone(&resolved_leader))
        });

        // NotLeader is retryable: the client re-resolves mid-call and the
        // submission lands on the leader without surfacing an error.
        let d = client
            .submit_profiles_with_retry(&model_profiles(&gpu), &FrontierOptions::default())
            .unwrap();
        assert!(d.version > 0);
        assert_eq!(client.failovers(), 1);
        assert!(Arc::ptr_eq(&client.server(), &leader));
        assert_eq!(leader.job_status("gpt").unwrap().role, Role::Leader);
        assert!(follower.job_status("gpt").unwrap().deployment.is_none());

        // Without a resolver the error surfaces instead of burning the
        // retry budget against a server whose role won't change.
        let stuck = JobClient::new(Arc::clone(&follower), "gpt");
        let err = stuck.notify_straggler_with_retry(0, 0.0, 1.2).unwrap_err();
        assert!(matches!(&err, ServerError::NotLeader { hint } if hint == "leader-1"));
    }

    #[test]
    fn replication_round_trip_promotes_bit_identical() {
        let leader_dir = unique_test_dir("repl-leader");
        let follower_dir = unique_test_dir("repl-follower");
        let leader = PerseusServer::open(&leader_dir, one_worker()).unwrap();
        drive_leader(&leader);
        let watermark = leader.replication_watermark().unwrap();

        let leader = Arc::new(leader);
        let mut follower = FollowerServer::open(&follower_dir, one_worker()).unwrap();
        follower.set_max_lag(2);
        let replicator = Replicator::new(Arc::clone(&leader));
        let shipped = replicator.sync(&mut follower).unwrap();
        assert_eq!(shipped, watermark);
        let lag = follower.stats();
        assert_eq!(lag.shipped, watermark);
        assert!(lag.lag_records <= 2, "lag bounded by max_lag");
        assert!(lag.lag_bytes > 0);
        assert_eq!(follower.segments_written(), 0, "records carry no segment");

        // Leader snapshots compact past the follower, so each sync bridges
        // with a checkpoint. The first writes the segment the follower's
        // directory lacks; the second, after a snapshot of the unchanged
        // frontier, writes none.
        for round in 0..2u32 {
            leader
                .set_straggler("gpt", 3, 0.0, 1.1 + 0.1 * f64::from(round))
                .unwrap();
            leader.snapshot_now().unwrap();
            replicator.sync(&mut follower).unwrap();
            assert_eq!(follower.shipped_seq(), watermark + 1 + u64::from(round));
            assert_eq!(follower.segments_written(), 1, "round {round}");
        }
        assert_eq!(leader.durability().segments_written, 1);
        assert_eq!(
            follower.server().state_fingerprint(),
            leader.state_fingerprint()
        );

        // A plain tail after the checkpoints leaves records pending at the
        // lag bound for promotion to replay.
        for k in 0..3u32 {
            leader
                .set_straggler("gpt", 0, 0.0, 1.2 + 0.05 * f64::from(k))
                .unwrap();
        }
        replicator.sync(&mut follower).unwrap();
        assert_eq!(follower.stats().lag_records, 2);
        let want = leader.state_fingerprint();
        let watermark = leader.replication_watermark().unwrap();

        // Promotion replays only the bounded unapplied tail — never the
        // journal from genesis — and lands bit-identical to the leader.
        let (promoted, report) = follower.promote().unwrap();
        assert_eq!(report.replayed_records, 2);
        assert!(
            report.replayed_records < watermark,
            "promotion must not replay from genesis"
        );
        assert_eq!(promoted.state_fingerprint(), want);
        assert_eq!(promoted.role(), Role::Leader);
        // Its post-promotion snapshot found the segment already on disk.
        assert_eq!(promoted.durability().segments_written, 0);
        // The promoted server is live: it accepts mutations and journals
        // them into its own (now-leading) durable lineage.
        promoted.set_straggler("gpt", 1, 0.0, 1.3).unwrap();
        assert!(promoted.replication_watermark().unwrap() > watermark);

        drop(promoted);
        drop(leader);
        let _ = std::fs::remove_dir_all(&leader_dir);
        let _ = std::fs::remove_dir_all(&follower_dir);
    }

    /// The follower's config is the promoted leader's: a checkpoint
    /// install rebuilds the server from it, and promotion hands it on —
    /// the injector still decides faults, and the snapshot cadence still
    /// holds.
    #[test]
    fn follower_config_survives_checkpoint_and_promotion() {
        let leader_dir = unique_test_dir("cfg-leader");
        let follower_dir = unique_test_dir("cfg-follower");
        // Snapshotting after every append compacts the leader's journal
        // past the fresh follower, so the first sync installs a
        // checkpoint.
        let leader = Arc::new(
            PerseusServer::open(
                &leader_dir,
                ServerConfig {
                    snapshot_every: 1,
                    ..one_worker()
                },
            )
            .unwrap(),
        );
        drive_leader(&leader);
        let script = Arc::new(Script(parking_lot::Mutex::new(Default::default())));
        let mut follower = FollowerServer::open(
            &follower_dir,
            ServerConfig {
                fault_injector: Some(Arc::clone(&script) as Arc<dyn FaultInjector>),
                snapshot_every: 1,
                ..one_worker()
            },
        )
        .unwrap();
        Replicator::new(Arc::clone(&leader))
            .sync(&mut follower)
            .unwrap();
        assert_eq!(follower.segments_written(), 1, "a checkpoint was installed");
        drop(leader);
        let (promoted, _) = follower.promote().unwrap();

        // Snapshot after every append: each mutation adds one of each.
        let before = promoted.durability();
        promoted.set_straggler("gpt", 1, 0.0, 1.1).unwrap();
        promoted.advance_time("gpt", 1.0).unwrap();
        let after = promoted.durability();
        assert_eq!(after.journal_appends, before.journal_appends + 2);
        assert_eq!(after.snapshots_written, before.snapshots_written + 2);

        // The injector is consulted: a scripted drop degrades the job.
        script.0.lock().push_back(SubmissionFault::Drop);
        let err = promoted
            .submit_profiles(
                "gpt",
                model_profiles(&GpuSpec::a100_pcie()),
                &FrontierOptions::default(),
            )
            .unwrap()
            .wait()
            .unwrap_err();
        assert!(matches!(err, ServerError::SubmissionLost(_)));
        let status = promoted.job_status("gpt").unwrap();
        assert!(status.degraded);
        assert_eq!(status.chaos.faults_injected, 1);

        drop(promoted);
        let _ = std::fs::remove_dir_all(&leader_dir);
        let _ = std::fs::remove_dir_all(&follower_dir);
    }

    /// A checkpoint installs into the follower's running server: the
    /// server and everything it holds besides its jobs — here the
    /// observability pipeline and its flight record — outlive every
    /// install.
    #[test]
    fn checkpoints_install_into_the_running_follower() {
        use perseus_telemetry::IterationSample;

        let leader_dir = unique_test_dir("inplace-leader");
        let follower_dir = unique_test_dir("inplace-follower");
        // Snapshotting after every append compacts the leader's journal
        // past the follower before every sync.
        let leader = Arc::new(
            PerseusServer::open(
                &leader_dir,
                ServerConfig {
                    snapshot_every: 1,
                    ..one_worker()
                },
            )
            .unwrap(),
        );
        drive_leader(&leader);
        let replicator = Replicator::new(Arc::clone(&leader));
        let mut follower = FollowerServer::open(&follower_dir, one_worker()).unwrap();
        let server: *const PerseusServer = follower.server();
        let obs = Arc::clone(follower.server().obs());
        follower.server().observe_iteration(
            "gpt",
            IterationSample {
                iteration: 7,
                sync_time_s: 0.5,
                useful_j: 900.0,
                intrinsic_j: 40.0,
                extrinsic_j: 10.0,
                freq_min_mhz: 1100,
                freq_max_mhz: 1410,
                degraded: false,
                degraded_lookups: 0,
                faults: 0,
            },
        );
        for round in 0..3u32 {
            if round > 0 {
                leader
                    .set_straggler("gpt", 3, 0.0, 1.1 + 0.1 * f64::from(round))
                    .unwrap();
            }
            assert_eq!(replicator.sync(&mut follower).unwrap(), 0, "round {round}");
            assert_eq!(
                follower.shipped_seq(),
                leader.replication_watermark().unwrap()
            );
            assert!(std::ptr::eq(server, follower.server()), "round {round}");
            assert!(Arc::ptr_eq(&obs, follower.server().obs()), "round {round}");
            assert_eq!(follower.server().flight_record().samples.len(), 1);
            assert_eq!(follower.server().role(), Role::Follower);
            assert_eq!(
                follower.server().state_fingerprint(),
                leader.state_fingerprint(),
                "round {round}"
            );
        }
        drop(follower);
        drop(replicator);
        drop(leader);
        let _ = std::fs::remove_dir_all(&leader_dir);
        let _ = std::fs::remove_dir_all(&follower_dir);
    }

    /// A checkpoint install truncates the follower's journal in place
    /// without a sync. Both shapes a lost truncation leaves — the covered
    /// records alone, and the covered records behind records shipped
    /// after the install (where the truncation left them, and whole at a
    /// frame boundary) — reopen to the uninterrupted follower's state and
    /// position. A follower reopened over the covered records alone keeps
    /// what it ships next across a further reopen: the open drops the
    /// covered records before the shipped ones could land behind them.
    #[test]
    fn follower_lost_journal_truncations_recover_the_uninterrupted_state() {
        let leader_dir = unique_test_dir("lost-trunc-leader");
        let follower_dir = unique_test_dir("lost-trunc-follower");
        let leader = Arc::new(PerseusServer::open(&leader_dir, one_worker()).unwrap());
        drive_leader(&leader);
        let replicator = Replicator::new(Arc::clone(&leader));
        let mut follower = FollowerServer::open(&follower_dir, one_worker()).unwrap();
        follower.set_max_lag(0);
        replicator.sync(&mut follower).unwrap();
        let journal = follower_dir.join("server.journal");
        let covered = std::fs::read(&journal).unwrap();

        // The leader compacts past the follower: the next sync installs a
        // checkpoint, which truncates the follower's journal.
        leader.set_straggler("gpt", 3, 0.0, 1.1).unwrap();
        leader.snapshot_now().unwrap();
        replicator.sync(&mut follower).unwrap();
        assert_eq!(std::fs::metadata(&journal).unwrap().len(), 8, "header only");
        let installed = (
            follower.shipped_seq(),
            follower.server().state_fingerprint(),
        );
        let snapped = unique_test_dir("lost-trunc-snapped");
        for entry in std::fs::read_dir(&follower_dir).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), snapped.join(entry.file_name())).unwrap();
        }
        leader.set_straggler("gpt", 1, 0.0, 1.3).unwrap();
        leader.advance_time("gpt", 5.0).unwrap();
        replicator.sync(&mut follower).unwrap();
        let after = (
            follower.shipped_seq(),
            follower.server().state_fingerprint(),
        );
        assert_eq!(after.1, leader.state_fingerprint());
        drop(follower);
        let appended = std::fs::read(&journal).unwrap();
        assert!(appended.len() < covered.len());

        let copy_with_journal = |dir: &std::path::Path, bytes: &[u8]| {
            let copy = unique_test_dir("lost-trunc-copy");
            for entry in std::fs::read_dir(dir).unwrap() {
                let entry = entry.unwrap();
                std::fs::copy(entry.path(), copy.join(entry.file_name())).unwrap();
            }
            std::fs::write(copy.join("server.journal"), bytes).unwrap();
            copy
        };
        let position = |f: &FollowerServer| (f.shipped_seq(), f.server().state_fingerprint());
        let reopen = |dir: &std::path::Path, bytes: &[u8]| {
            let copy = copy_with_journal(dir, bytes);
            let got = position(&FollowerServer::open(&copy, one_worker()).unwrap());
            let _ = std::fs::remove_dir_all(&copy);
            got
        };
        assert_eq!(reopen(&snapped, &covered), installed, "stale records alone");
        let mut overlaid = appended.clone();
        overlaid.extend_from_slice(&covered[appended.len()..]);
        let mut aligned = appended.clone();
        aligned.extend_from_slice(&covered[8..]);
        assert_eq!(reopen(&follower_dir, &overlaid), after, "overlaid");
        assert_eq!(reopen(&follower_dir, &aligned), after, "aligned");

        let stale = copy_with_journal(&snapped, &covered);
        let mut reopened = FollowerServer::open(&stale, one_worker()).unwrap();
        reopened.set_max_lag(0);
        assert_eq!(
            replicator.sync(&mut reopened).unwrap(),
            2,
            "records, not a checkpoint"
        );
        assert_eq!(
            position(&reopened),
            after,
            "shipped behind the stale records"
        );
        drop(reopened);
        let again = FollowerServer::open(&stale, one_worker()).unwrap();
        assert_eq!(position(&again), after, "reopened after shipping");
        drop(again);
        let _ = std::fs::remove_dir_all(&stale);

        drop(replicator);
        drop(leader);
        let _ = std::fs::remove_dir_all(&leader_dir);
        let _ = std::fs::remove_dir_all(&follower_dir);
        let _ = std::fs::remove_dir_all(&snapped);
    }

    /// A leader snapshot and a follower's checkpoint install each emit
    /// one span, with one child per step: the job input and profile
    /// files, the frontier segments, `server.snap` with its directory
    /// syncs, and the journal truncation.
    #[test]
    fn snapshots_and_checkpoints_span_every_step() {
        use perseus_telemetry::Telemetry;

        let leader_tel = Telemetry::enabled();
        let follower_tel = Telemetry::enabled();
        let traced = |telemetry: &Telemetry| ServerConfig {
            telemetry: telemetry.clone(),
            snapshot_every: u64::MAX,
            ..one_worker()
        };
        let leader_dir = unique_test_dir("span-leader");
        let follower_dir = unique_test_dir("span-follower");
        let leader = Arc::new(PerseusServer::open(&leader_dir, traced(&leader_tel)).unwrap());
        drive_leader(&leader);
        leader.snapshot_now().unwrap();
        let mut follower = FollowerServer::open(&follower_dir, traced(&follower_tel)).unwrap();
        Replicator::new(Arc::clone(&leader))
            .sync(&mut follower)
            .unwrap();
        for (tel, root) in [(&leader_tel, "snapshot"), (&follower_tel, "checkpoint")] {
            let snap = tel.snapshot();
            let calls = |path: &str| snap.value_of("perseus_span_calls_total", &[("span", path)]);
            assert_eq!(calls(root), Some(1.0), "{root}");
            for step in ["inputs", "segments", "state", "compact"] {
                assert_eq!(calls(&format!("{root}/{step}")), Some(1.0), "{root}/{step}");
            }
        }
        drop(follower);
        drop(leader);
        let _ = std::fs::remove_dir_all(&leader_dir);
        let _ = std::fs::remove_dir_all(&follower_dir);
    }

    #[test]
    fn follower_truncates_torn_tail_and_resyncs() {
        let leader_dir = unique_test_dir("torn-leader");
        let follower_dir = unique_test_dir("torn-follower");
        let leader = PerseusServer::open(&leader_dir, one_worker()).unwrap();
        drive_leader(&leader);
        let leader = Arc::new(leader);
        let replicator = Replicator::new(Arc::clone(&leader));

        let mut follower = FollowerServer::open(&follower_dir, one_worker()).unwrap();
        replicator.sync(&mut follower).unwrap();
        let synced = follower.shipped_seq();
        drop(follower);

        // Tear the follower's journal tail mid-record (a torn write on
        // the follower's disk), then keep mutating the leader.
        let journal = follower_dir.join("server.journal");
        let len = std::fs::metadata(&journal).unwrap().len();
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&journal)
            .unwrap();
        file.set_len(len - 7).unwrap();
        drop(file);
        leader.set_straggler("gpt", 1, 40.0, 1.3).unwrap();
        leader.advance_time("gpt", 50.0).unwrap();

        // Reopen truncates to the last valid record — the shipped
        // watermark regresses — and resync ships the gap again.
        let mut follower = FollowerServer::open(&follower_dir, one_worker()).unwrap();
        assert!(
            follower.shipped_seq() < synced,
            "torn tail must drop the last shipped record"
        );
        replicator.sync(&mut follower).unwrap();
        follower.apply_all();
        assert_eq!(
            follower.shipped_seq(),
            leader.replication_watermark().unwrap()
        );
        assert_eq!(
            follower.server().state_fingerprint(),
            leader.state_fingerprint(),
            "resynced follower must be bit-identical to the leader"
        );

        drop(follower);
        drop(leader);
        let _ = std::fs::remove_dir_all(&leader_dir);
        let _ = std::fs::remove_dir_all(&follower_dir);
    }

    #[test]
    fn follower_refuses_an_undecodable_record_and_reopens_to_what_it_served() {
        let leader_dir = unique_test_dir("bad-record-leader");
        let leader = PerseusServer::open(&leader_dir, one_worker()).unwrap();
        drive_leader(&leader);
        let pristine = leader.replication_tail(0).unwrap();
        assert_eq!(pristine.len(), 6);

        // Two bad records in one place: a CRC-valid frame whose payload is
        // no journal event, and the next record's event under this
        // record's CRC, which decodes but fails its checksum.
        let bad = pristine[3].seq;
        let mut undecodable = pristine.clone();
        undecodable[3].payload = vec![0xFF; 8];
        let mut body = bad.to_le_bytes().to_vec();
        body.extend_from_slice(&undecodable[3].payload);
        undecodable[3].crc = perseus_store::crc32(&body);
        let mut altered = pristine.clone();
        altered[3].payload = pristine[4].payload.clone();
        for (case, tail) in [("undecodable", undecodable), ("altered", altered)] {
            let follower_dir = unique_test_dir("bad-record-follower");
            let mut follower = FollowerServer::open(&follower_dir, one_worker()).unwrap();
            follower.set_max_lag(0);
            let err = follower.receive(&tail).unwrap_err();
            assert!(
                matches!(err, ServerError::Store(StoreError::Corrupt { .. })),
                "{case}: {err}"
            );
            // Nothing at or after the bad record was shipped or applied.
            assert_eq!(follower.shipped_seq(), bad - 1, "{case}");
            assert_eq!(follower.applied_seq(), bad - 1, "{case}");
            let live = follower.server().state_fingerprint();
            drop(follower);

            // The directory holds exactly what the follower served.
            let mut follower = FollowerServer::open(&follower_dir, one_worker()).unwrap();
            assert_eq!(follower.shipped_seq(), bad - 1, "{case}");
            assert_eq!(follower.server().state_fingerprint(), live, "{case}");

            // The intact record resumes shipping where the bad one stopped it.
            follower.receive(&pristine).unwrap();
            follower.apply_all();
            assert_eq!(
                follower.server().state_fingerprint(),
                leader.state_fingerprint(),
                "{case}"
            );
            drop(follower);
            let _ = std::fs::remove_dir_all(&follower_dir);
        }

        drop(leader);
        let _ = std::fs::remove_dir_all(&leader_dir);
    }

    /// Seeded mutations of a shipped tail — bit flips, truncations and
    /// payloads spliced from two records — never panic `receive`, every
    /// shipment leaves the follower on a state that some unmutated prefix
    /// of the tail produces (a mutated record fails its frame checksum,
    /// even when its payload still decodes), and a reopen of the
    /// follower's directory always recovers the state the live follower
    /// serves.
    #[test]
    fn mutated_shipments_reopen_to_the_live_follower_state() {
        let leader_dir = unique_test_dir("mutate-leader");
        let leader = PerseusServer::open(&leader_dir, one_worker()).unwrap();
        drive_leader(&leader);
        let pristine = leader.replication_tail(0).unwrap();
        drop(leader);
        // One plan cache across runs: a replayed characterization that
        // decodes intact is a cache hit, not a fresh solve.
        let cfg = ServerConfig {
            plan_cache: Some(Arc::new(PlanCache::new())),
            ..one_worker()
        };
        // The state after each unmutated prefix of the tail.
        let prefix_states: Vec<Vec<u8>> = (0..=pristine.len())
            .map(|k| {
                let dir = unique_test_dir("mutate-prefix");
                let mut follower = FollowerServer::open(&dir, cfg.clone()).unwrap();
                follower.receive(&pristine[..k]).unwrap();
                follower.apply_all();
                let state = follower.server().state_fingerprint();
                drop(follower);
                let _ = std::fs::remove_dir_all(&dir);
                state
            })
            .collect();
        let mut rng = SplitMix64(0xF011_0BE5);
        let mut refused = 0;
        for run in 0..200 {
            let mut tail = pristine.clone();
            let n = tail.len() as u64;
            let i = rng.below(n) as usize;
            let kind = rng.below(3);
            match kind {
                0 => {
                    for _ in 0..=rng.below(3) {
                        let payload = &mut tail[i].payload;
                        let bit = rng.below(payload.len() as u64 * 8) as usize;
                        payload[bit / 8] ^= 1 << (bit % 8);
                    }
                }
                1 => {
                    let keep = rng.below(tail[i].payload.len() as u64) as usize;
                    tail[i].payload.truncate(keep);
                }
                _ => {
                    let j = rng.below(n) as usize;
                    let head = rng.below(tail[i].payload.len() as u64 + 1) as usize;
                    let from = rng.below(tail[j].payload.len() as u64 + 1) as usize;
                    let mut spliced = tail[i].payload[..head].to_vec();
                    spliced.extend_from_slice(&pristine[j].payload[from..]);
                    tail[i].payload = spliced;
                }
            }
            let dir = unique_test_dir("mutate-follower");
            let mut follower = FollowerServer::open(&dir, cfg.clone()).unwrap();
            follower.set_max_lag(rng.below(4));
            if follower.receive(&tail).is_err() {
                refused += 1;
            }
            follower.apply_all();
            let live = follower.server().state_fingerprint();
            assert!(
                prefix_states.contains(&live),
                "run {run} (kind {kind}): the follower reached a state no prefix of the tail produces"
            );
            let shipped = follower.shipped_seq();
            drop(follower);
            let reopened = FollowerServer::open(&dir, cfg.clone()).unwrap();
            assert_eq!(reopened.shipped_seq(), shipped, "run {run} (kind {kind})");
            assert_eq!(
                reopened.server().state_fingerprint(),
                live,
                "run {run} (kind {kind}): reopen diverged from the live follower"
            );
            drop(reopened);
            let _ = std::fs::remove_dir_all(&dir);
        }
        assert!(refused > 0, "some mutation must be refused");
        let _ = std::fs::remove_dir_all(&leader_dir);
    }

    #[test]
    fn ingest_drift_trips_only_at_threshold() {
        let (server, job) = super::server_with_job();
        let gpu = GpuSpec::a100_pcie();
        server
            .submit_profiles(job, model_profiles(&gpu), &FrontierOptions::default())
            .unwrap()
            .wait()
            .unwrap();
        let before = server.job_status(job).unwrap();

        let delta = |tf: f64, ef: f64| ProfileDelta {
            key: OpKey {
                stage: 0,
                chunk: 0,
                kind: CompKind::Forward,
            },
            time_factor: tf,
            energy_factor: ef,
        };

        // Below threshold: deltas accumulate silently, nothing re-plans.
        assert!(server
            .ingest_drift(job, &[delta(1.02, 1.01)])
            .unwrap()
            .is_none());
        assert_eq!(server.drift_replans(), 0);
        assert_eq!(server.job_status(job).unwrap().epoch, before.epoch);

        // Crossing it: one re-characterization through the normal epoch
        // machinery, serving the drift-corrected frontier afterwards.
        let ticket = server
            .ingest_drift(job, &[delta(1.10, 1.08)])
            .unwrap()
            .expect("threshold crossed");
        let d = ticket.wait().unwrap();
        assert!(d.version > before.deployment.unwrap().version);
        assert_eq!(server.drift_replans(), 1);
        let after = server.job_status(job).unwrap();
        assert!(after.epoch > before.epoch);

        // The commit absorbed the drift: replaying the same cumulative
        // factors is pending-zero and must not re-plan again.
        assert!(server
            .ingest_drift(job, &[delta(1.10, 1.08)])
            .unwrap()
            .is_none());
        assert_eq!(server.drift_replans(), 1);
    }

    /// A drift re-plan moves only the drifting job to a new fingerprint:
    /// the entry of every other structure keeps serving hits.
    #[test]
    fn drift_replan_leaves_other_structures_cached() {
        let cache = Arc::new(perseus_core::PlanCache::new());
        let server = PerseusServer::new(ServerConfig {
            plan_cache: Some(Arc::clone(&cache)),
            ..one_worker()
        });
        let gpu = GpuSpec::a100_pcie();
        let deeper = PipelineBuilder::new(ScheduleKind::OneFOneB, 3, 6)
            .build()
            .unwrap();
        for (name, pipe) in [("a", pipe()), ("b", deeper.clone()), ("c", deeper)] {
            server
                .register_job(JobSpec {
                    name: name.into(),
                    pipe,
                    gpu: gpu.clone(),
                    power_states: None,
                })
                .unwrap();
        }
        let submit = |name| {
            server
                .submit_profiles(name, model_profiles(&gpu), &FrontierOptions::default())
                .unwrap()
                .wait()
                .unwrap();
        };
        submit("a");
        submit("b");
        let before = cache.fingerprints();
        assert_eq!(before.len(), 2, "two structures, two entries");

        let drift = ProfileDelta {
            key: OpKey {
                stage: 0,
                chunk: 0,
                kind: CompKind::Forward,
            },
            time_factor: 1.10,
            energy_factor: 1.08,
        };
        server
            .ingest_drift("a", &[drift])
            .unwrap()
            .expect("threshold crossed")
            .wait()
            .unwrap();
        let after = cache.fingerprints();
        assert_eq!(after.len(), 2, "a's old entry went, its drifted one came");
        assert_eq!(cache.stats().invalidations, 1);
        let b_fp = before.iter().find(|fp| after.contains(fp));
        assert!(b_fp.is_some(), "b's entry must survive a's drift");

        // A new job of b's structure admits from the cache, unsolved.
        submit("c");
        let c = server.job_status("c").unwrap().solver;
        assert_eq!((c.runs, c.cache_hits, c.cache_misses), (0, 1, 0));
        assert!(Arc::ptr_eq(
            &server.frontier("b").unwrap(),
            &server.frontier("c").unwrap()
        ));
    }
}
