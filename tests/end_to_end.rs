//! End-to-end integration: the full Perseus workflow of paper §3.2, from
//! in-vivo profiling on a (noisy) simulated device through frontier
//! characterization, server deployment, straggler reaction, and client
//! frequency realization.

use perseus::core::{FrontierOptions, PlanContext};
use perseus::gpu::{GpuSpec, NoiseModel, SimGpu};
use perseus::models::{min_imbalance_partition, zoo};
use perseus::pipeline::{CompKind, OpKey, PipelineBuilder, ScheduleKind};
use perseus::profiler::{OnlineProfiler, ProfileDb};
use perseus::server::{ClientSession, JobSpec, PerseusServer, ServerConfig};

#[test]
fn full_workflow_with_online_profiling() {
    let gpu = GpuSpec::a100_pcie();
    let model = zoo::bert_large(8);
    let n_stages = 4;
    let weights = model.fwd_latency_weights(&gpu);
    let partition = min_imbalance_partition(&weights, n_stages).expect("partition");
    let stages = model.stage_workloads(&partition, &gpu).expect("stages");
    let pipe = PipelineBuilder::new(ScheduleKind::OneFOneB, n_stages, 6)
        .build()
        .expect("pipe");

    // Step 1: the client profiles each computation in vivo, with
    // measurement noise, sweeping frequencies per §5.
    let mut profiles: ProfileDb<OpKey> = ProfileDb::new();
    let profiler = OnlineProfiler {
        reps: 4,
        ..Default::default()
    };
    for (s, sw) in stages.iter().enumerate() {
        let mut client = ClientSession::new(
            s,
            SimGpu::new(gpu.clone()).with_noise(NoiseModel::realistic(s as u64)),
        );
        let fwd = client.profile_sweep(&sw.fwd, &profiler);
        let bwd = client.profile_sweep(&sw.bwd, &profiler);
        profiles.insert(
            OpKey {
                stage: s,
                chunk: 0,
                kind: CompKind::Forward,
            },
            fwd.clone(),
        );
        profiles.insert(
            OpKey {
                stage: s,
                chunk: 0,
                kind: CompKind::Backward,
            },
            bwd,
        );
        profiles.insert(
            OpKey {
                stage: s,
                chunk: 0,
                kind: CompKind::Recompute,
            },
            fwd,
        );
    }

    // Steps 2+3: the server characterizes the frontier and deploys.
    let server = PerseusServer::new(ServerConfig::default());
    server
        .register_job(JobSpec {
            name: "bert".into(),
            pipe: pipe.clone(),
            gpu: gpu.clone(),
            power_states: None,
        })
        .expect("register");
    let d0 = server
        .submit_profiles("bert", profiles, &FrontierOptions::default())
        .expect("characterize")
        .wait()
        .expect("deploy");
    let (t_min, t_star) = {
        let f = server.frontier("bert").expect("frontier");
        (f.t_min(), f.t_star())
    };
    assert!(t_min < t_star, "frontier must trade time for energy");
    assert_eq!(
        d0.planned_time_s, t_min,
        "initial deployment is the fastest point"
    );

    // Client realizes the deployed schedule in program order.
    let mut client = ClientSession::new(2, SimGpu::new(gpu.clone()));
    client.load_schedule(&pipe, &d0.schedule);
    let program: Vec<CompKind> = pipe
        .computations()
        .filter(|(_, c)| c.stage == 2)
        .map(|(_, c)| c.kind)
        .collect();
    for &k in &program {
        client.set_speed(k);
    }
    client.sync();
    assert!(client.gpu().lock().freq_set_count() > 0);

    // Steps 4+5: straggler arrives, schedule re-deploys within T'.
    let d1 = server
        .set_straggler("bert", 0, 0.0, 1.3)
        .expect("notify")
        .expect("deploy");
    assert!(d1.version > d0.version);
    assert!(d1.planned_time_s <= t_min * 1.3 + 1e-9);
    assert!(d1.planned_time_s > t_min, "slack should be used");
}

#[test]
fn noisy_profiles_still_produce_valid_schedules() {
    // Measurement noise must not break monotonicity of the realized
    // frontier or the feasibility of frequency assignments.
    let gpu = GpuSpec::a40();
    let model = zoo::t5_base(4);
    let weights = model.fwd_latency_weights(&gpu);
    let partition = min_imbalance_partition(&weights, 4).expect("partition");
    let stages = model.stage_workloads(&partition, &gpu).expect("stages");
    let pipe = PipelineBuilder::new(ScheduleKind::OneFOneB, 4, 4)
        .build()
        .expect("pipe");

    let mut profiles: ProfileDb<OpKey> = ProfileDb::new();
    let profiler = OnlineProfiler {
        reps: 5,
        ..Default::default()
    };
    for (s, sw) in stages.iter().enumerate() {
        let mut gpu_dev =
            SimGpu::new(gpu.clone()).with_noise(NoiseModel::realistic(100 + s as u64));
        profiles.insert(
            OpKey {
                stage: s,
                chunk: 0,
                kind: CompKind::Forward,
            },
            profiler.profile(&mut gpu_dev, &sw.fwd),
        );
        profiles.insert(
            OpKey {
                stage: s,
                chunk: 0,
                kind: CompKind::Backward,
            },
            profiler.profile(&mut gpu_dev, &sw.bwd),
        );
        profiles.insert(
            OpKey {
                stage: s,
                chunk: 0,
                kind: CompKind::Recompute,
            },
            profiler.profile(&mut gpu_dev, &sw.fwd),
        );
    }
    let ctx = PlanContext::new(&pipe, &gpu, profiles).expect("ctx");
    let frontier =
        perseus::core::characterize(&ctx, &FrontierOptions::default()).expect("frontier");
    for pair in frontier.points().windows(2) {
        assert!(pair[0].planned_time_s < pair[1].planned_time_s);
        assert!(pair[0].planned_energy_j >= pair[1].planned_energy_j);
    }
    for p in frontier.points() {
        for id in pipe.dag.node_ids() {
            if let Some(f) = p.schedule.freq_of(id) {
                assert!(gpu.supports(f));
            }
        }
    }
}

#[test]
fn all_schedule_kinds_characterize() {
    let gpu = GpuSpec::a100_pcie();
    let model = zoo::gpt3_xl(4);
    let weights = model.fwd_latency_weights(&gpu);
    let partition = min_imbalance_partition(&weights, 2).expect("partition");
    let stages = model.stage_workloads(&partition, &gpu).expect("stages");
    for kind in [
        ScheduleKind::OneFOneB,
        ScheduleKind::GPipe,
        ScheduleKind::EarlyRecompute1F1B,
    ] {
        let pipe = PipelineBuilder::new(kind, 2, 4).build().expect("pipe");
        let ctx = PlanContext::from_model_profiles(&pipe, &gpu, &stages).expect("ctx");
        let frontier =
            perseus::core::characterize(&ctx, &FrontierOptions::default()).expect("frontier");
        assert!(
            frontier.t_min() < frontier.t_star(),
            "{kind}: any schedule with stage imbalance has intrinsic bloat (§4.4)"
        );
    }
}
