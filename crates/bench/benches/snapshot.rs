//! Criterion bench: durable snapshots on the durable-train shape — four
//! GPT-3 1.3B jobs on A100 (4 stages × 32 microbatches), each with its
//! own profiles and frontier, on a durable leader with one follower.
//! Two costs:
//!
//! * `snapshot_now` with every frontier unchanged — what each periodic
//!   snapshot of a quiet training loop pays;
//! * a `Replicator::sync` that installs a checkpoint, after one leader
//!   append and the leader snapshot that compacts it away — what each
//!   sync of a quiet loop pays, the leader's snapshot included.
//!
//! Both write into a scratch directory under the system temp directory,
//! so they measure that filesystem's fsyncs.

use std::path::PathBuf;
use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use perseus_core::{model_profiles, FrontierOptions};
use perseus_gpu::GpuSpec;
use perseus_models::{min_imbalance_partition, zoo};
use perseus_pipeline::{PipelineBuilder, ScheduleKind};
use perseus_profiler::{scale_profile, ProfileDb};
use perseus_server::{FollowerServer, JobSpec, PerseusServer, Replicator, ServerConfig};

const JOBS: usize = 4;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("perseus-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bench_snapshot(c: &mut Criterion) {
    let gpu = GpuSpec::a100_pcie();
    let model = zoo::gpt3_xl(4);
    let partition =
        min_imbalance_partition(&model.fwd_latency_weights(&gpu), 4).expect("partition");
    let stages = model.stage_workloads(&partition, &gpu).expect("stages");
    let pipe = PipelineBuilder::new(ScheduleKind::OneFOneB, 4, 32)
        .build()
        .expect("pipeline");
    let base = model_profiles(&pipe, &gpu, &stages);

    let (leader_dir, follower_dir) = (scratch("leader"), scratch("follower"));
    let cfg = ServerConfig {
        workers: 1,
        snapshot_every: u64::MAX,
        ..ServerConfig::default()
    };
    let leader = Arc::new(PerseusServer::open(&leader_dir, cfg.clone()).expect("leader"));
    for j in 0..JOBS {
        let name = format!("train-{j}");
        // Each job drifts a little from the base profiles, so each has a
        // frontier of its own.
        let scale = 1.0 + 0.01 * j as f64;
        let mut profiles = ProfileDb::new();
        for (key, profile) in base.iter() {
            profiles.insert(*key, scale_profile(profile, scale, scale));
        }
        leader
            .register_job(JobSpec {
                name: name.clone(),
                pipe: pipe.clone(),
                gpu: gpu.clone(),
                power_states: None,
            })
            .expect("register");
        leader
            .submit_profiles(&name, profiles, &FrontierOptions::default())
            .expect("submit")
            .wait()
            .expect("characterize");
        leader.set_straggler(&name, j, 0.0, 1.2).expect("straggler");
    }
    leader.snapshot_now().expect("first snapshot");

    c.bench_function("snapshot_now/4-jobs-gpt3-xl-a100-4x32", |b| {
        b.iter(|| leader.snapshot_now().expect("snapshot"))
    });

    let replicator = Replicator::new(Arc::clone(&leader));
    let mut follower = FollowerServer::open(&follower_dir, cfg).expect("follower");
    replicator.sync(&mut follower).expect("first install");
    c.bench_function("checkpoint_sync/4-jobs-gpt3-xl-a100-4x32", |b| {
        b.iter(|| {
            leader.advance_time("train-0", 0.5).expect("advance");
            leader.snapshot_now().expect("snapshot");
            replicator.sync(&mut follower).expect("sync");
            black_box(follower.shipped_seq())
        })
    });

    drop(follower);
    drop(replicator);
    drop(leader);
    let _ = std::fs::remove_dir_all(&leader_dir);
    let _ = std::fs::remove_dir_all(&follower_dir);
}

criterion_group!(benches, bench_snapshot);
criterion_main!(benches);
