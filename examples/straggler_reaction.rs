//! Straggler reaction through the Perseus server/client workflow (§3.2):
//! register a job, submit profiles, deploy the fastest schedule, then
//! react to a datacenter straggler notification with an instant frontier
//! lookup — and watch a client realize the new schedule asynchronously.
//!
//! Run: `cargo run --release --example straggler_reaction`

use perseus::core::FrontierOptions;
use perseus::gpu::{GpuSpec, SimGpu};
use perseus::models::{min_imbalance_partition, zoo};
use perseus::pipeline::{CompKind, OpKey, PipelineBuilder, ScheduleKind};
use perseus::profiler::{OpProfile, ProfileDb};
use perseus::server::{ClientSession, JobSpec, PerseusServer, ServerConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let gpu = GpuSpec::a40();
    let model = zoo::bloom_3b(4);
    let n_stages = 4;
    let weights = model.fwd_latency_weights(&gpu);
    let partition = min_imbalance_partition(&weights, n_stages)?;
    let stages = model.stage_workloads(&partition, &gpu)?;
    let pipe = PipelineBuilder::new(ScheduleKind::OneFOneB, n_stages, 8).build()?;

    // Server side: register the job (its computation DAG + hardware).
    let server = PerseusServer::new(ServerConfig::default());
    server.register_job(JobSpec {
        name: "bloom-3b".into(),
        pipe: pipe.clone(),
        gpu: gpu.clone(),
        power_states: None,
    })?;

    // Client side: the online profiler measures each computation type.
    // (Here we submit model-grounded profiles; `ClientSession::
    // profile_sweep` runs the in-vivo frequency sweep of §5.)
    let mut profiles: ProfileDb<OpKey> = ProfileDb::new();
    for (s, sw) in stages.iter().enumerate() {
        profiles.insert(
            OpKey {
                stage: s,
                chunk: 0,
                kind: CompKind::Forward,
            },
            OpProfile::from_model(&gpu, &sw.fwd),
        );
        profiles.insert(
            OpKey {
                stage: s,
                chunk: 0,
                kind: CompKind::Backward,
            },
            OpProfile::from_model(&gpu, &sw.bwd),
        );
        profiles.insert(
            OpKey {
                stage: s,
                chunk: 0,
                kind: CompKind::Recompute,
            },
            OpProfile::from_model(&gpu, &sw.fwd),
        );
    }

    // Step 2+3: characterize the frontier (off-thread, on the server's
    // worker pool) and deploy the fastest schedule.
    let d0 = server
        .submit_profiles("bloom-3b", profiles, &FrontierOptions::default())?
        .wait()?;
    println!(
        "deployed v{}: planned iteration {:.3} s (frontier T_min {:.3} s, T* {:.3} s)",
        d0.version,
        d0.planned_time_s,
        server.frontier("bloom-3b").unwrap().t_min(),
        server.frontier("bloom-3b").unwrap().t_star(),
    );

    // A client (one per accelerator) realizes the schedule: set_speed is
    // called before each computation; the async controller applies clocks
    // without blocking training.
    let mut client = ClientSession::new(1, SimGpu::new(gpu.clone()));
    client.load_schedule(&pipe, &d0.schedule);
    let program: Vec<CompKind> = pipe
        .computations()
        .filter(|(_, c)| c.stage == 1)
        .map(|(_, c)| c.kind)
        .collect();
    for &kind in &program {
        client.set_speed(kind);
    }
    client.sync();
    println!(
        "client stage 1 drove one iteration; device ends locked at {}",
        client.gpu().lock().locked_freq()
    );

    // Step 4+5: the rack manager announces thermal throttling on GPU 2 in
    // 30 seconds, inflating the straggler's iteration time by 1.25x.
    server.set_straggler("bloom-3b", 2, 30.0, 1.25)?;
    println!("straggler announced (fires in 30 s)...");
    for step in 0..2 {
        let deployments = server.advance_time("bloom-3b", 20.0)?;
        for d in &deployments {
            println!(
                "t+{}s: redeployed v{} for T' = {:.3} s -> planned {:.3} s",
                20 * (step + 1),
                d.version,
                d.t_prime,
                d.planned_time_s
            );
            client.load_schedule(&pipe, &d.schedule);
        }
    }

    // The straggler recovers: schedules snap back to the fastest point.
    let d = server
        .set_straggler("bloom-3b", 2, 0.0, 1.0)?
        .expect("immediate");
    println!(
        "straggler recovered: v{} back to {:.3} s",
        d.version, d.planned_time_s
    );
    Ok(())
}
