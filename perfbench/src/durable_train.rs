//! `durable-train`: the training loop against a durable, replicated
//! leader.
//!
//! An emulated GPT-3 1.3B cluster on A100 (4 stages × 32 microbatches,
//! 8 data-parallel pipelines, 1F1B) prices every iteration; four jobs of
//! that shape, each with its own profile noise, live on a durable leader
//! (one worker, default snapshot interval), shipped to one in-process
//! follower every 25 iterations. Each iteration reports and attributes
//! its energy with a one-iteration reaction delay, then reads each job's
//! status, observes the iteration and advances its clock. About 5% of
//! iterations carry a seeded straggler event or recovery for every job;
//! every 10 iterations each job ingests a seeded profile-drift step and
//! any re-plan is waited for. After the loop the follower is promoted and
//! the leader's directory reopened.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use perseus_cluster::{ClusterConfig, Emulator, Policy, StragglerCause};
use perseus_core::FrontierOptions;
use perseus_gpu::{GpuSpec, NoiseModel};
use perseus_models::zoo;
use perseus_pipeline::{OpKey, ScheduleKind};
use perseus_profiler::ProfileDrift;
use perseus_server::{Deployment, FollowerServer, JobSpec, PerseusServer, Replicator};
use perseus_telemetry::{IterationSample, Telemetry};

use crate::check::{deployment_bytes, is_checkpoint_sync, reaction};
use crate::energy::EnergyTally;
use crate::report::{peak_rss_mib, Pass};
use crate::rng::{setup_seed, Stream};
use crate::shapes::{profile, Fallible};
use crate::stats::{median, slice_rate, tail};
use crate::steal::{Slice, Timings, Verdicts};
use crate::trace::Tracer;
use crate::workload::{ms, setup_clock, us, RunConfig};

const JOBS: usize = 4;
const STAGES: usize = 4;
const MICROBATCHES: usize = 32;
const PIPELINES: usize = 8;
const SYNC_EVERY: usize = 25;
const DRIFT_EVERY: usize = 10;
/// One straggler event (a slowdown or the recovery from it) falls at a
/// seeded iteration of every block of this many: 5% of iterations.
const STRAGGLER_BLOCK: usize = 20;
/// Per-step widths of the profile-drift walk (time, energy): small enough
/// that a job crosses the server's 5% re-plan threshold every few hundred
/// iterations, so re-plans stay a minor share of the loop.
const DRIFT_SIGMA: (f64, f64) = (0.0025, 0.0035);
const REACTION_DELAY: usize = 1;
/// Iterations per slice of `ops_per_s`: two syncs and a few snapshots
/// fall in every slice.
const ITERATIONS_PER_SLICE: usize = 50;
/// Reopens and promotions timed after the loop, each on its own copy.
const REPEATS: usize = 5;

/// Work per run.
#[derive(Debug, Clone)]
pub struct Size {
    /// Setups timed for `setup_s`.
    pub setups: usize,
    /// Training iterations.
    pub iterations: usize,
}

impl Size {
    /// The work a run of about `seconds` measures on the reference machine.
    pub fn for_seconds(seconds: u64) -> Size {
        Size {
            setups: 5,
            iterations: seconds as usize * 50,
        }
    }
}

/// A straggler notification: pipeline `pipeline` slows by `degree`
/// (1.0 = recovered).
#[derive(Debug, Clone, Copy)]
struct Event {
    pipeline: usize,
    degree: f64,
}

struct Setup {
    emu: Emulator,
    leader: Arc<PerseusServer>,
    leader_dir: PathBuf,
    follower: FollowerServer,
    follower_dir: PathBuf,
    replicator: Replicator,
    jobs: Vec<String>,
    drift: Vec<ProfileDrift<OpKey>>,
    /// The event sent at each iteration, if any.
    events: Vec<Option<Event>>,
    /// The straggler's iteration time in force at each iteration.
    t_prime: Vec<Option<f64>>,
}

fn setup(tracer: &Tracer, cfg: &RunConfig, k: usize, size: &Size) -> Fallible<Setup> {
    let seed = setup_seed(cfg.seed, k);
    let dir = cfg.work_dir.join(format!("setup-{k}"));
    let _ = std::fs::remove_dir_all(&dir);
    let (leader_dir, follower_dir) = (dir.join("leader"), dir.join("follower"));
    let gpu = GpuSpec::a100_pcie();
    let emu = {
        let _s = tracer.span("cluster.build_ms");
        Emulator::new(ClusterConfig {
            model: zoo::gpt3_xl(4),
            gpu: gpu.clone(),
            n_stages: STAGES,
            n_microbatches: MICROBATCHES,
            n_pipelines: PIPELINES,
            tensor_parallel: 1,
            schedule: ScheduleKind::OneFOneB,
            frontier: FrontierOptions::default(),
        })?
    };
    let leader = Arc::new(PerseusServer::open_with(
        &leader_dir,
        1,
        Telemetry::disabled(),
    )?);
    let mut noise = Stream::new(seed, "durable-train/profiler-noise");
    let mut drift_seeds = Stream::new(seed, "durable-train/drift");
    let mut jobs = Vec::with_capacity(JOBS);
    let mut drift = Vec::with_capacity(JOBS);
    for j in 0..JOBS {
        let name = format!("train-{j}");
        let (profiles, _) = profile(tracer, &gpu, emu.stages(), STAGES, &mut noise);
        {
            let _s = tracer.span("server.register_us");
            leader.register_job(JobSpec {
                name: name.clone(),
                pipe: emu.pipe().clone(),
                gpu: gpu.clone(),
                power_states: None,
            })?;
        }
        let ticket = {
            let _s = tracer.span("server.submit_us");
            leader.submit_profiles(&name, profiles.clone(), &FrontierOptions::default())?
        };
        {
            let _s = tracer.span("server.wait_ms");
            ticket.wait()?;
        }
        drift.push(ProfileDrift::new(
            profiles,
            NoiseModel {
                time_rel_sigma: DRIFT_SIGMA.0,
                energy_rel_sigma: DRIFT_SIGMA.1,
                seed: drift_seeds.next_u64(),
            },
        ));
        jobs.push(name);
    }
    let follower = FollowerServer::open_with(&follower_dir, 1, Telemetry::disabled())?;
    let replicator = Replicator::new(Arc::clone(&leader));

    // One straggler at a time: an event either slows a random pipeline
    // or recovers the slow one.
    let mut trace = Stream::new(seed, "durable-train/stragglers");
    let mut events = Vec::with_capacity(size.iterations);
    let mut t_prime = Vec::with_capacity(size.iterations);
    let mut active: Option<(usize, f64)> = None;
    let mut event_at = 0;
    for i in 0..size.iterations {
        if i % STRAGGLER_BLOCK == 0 {
            event_at = i + trace.below(STRAGGLER_BLOCK);
        }
        let event = (i == event_at).then(|| match active.take() {
            Some((pipeline, _)) => Event {
                pipeline,
                degree: 1.0,
            },
            None => {
                let pipeline = trace.below(PIPELINES);
                let degree = trace.range(1.1, 1.5);
                let t = emu.straggler_iteration_time(StragglerCause::Slowdown { degree });
                active = Some((pipeline, t.unwrap_or(f64::NAN)));
                Event { pipeline, degree }
            }
        });
        events.push(event);
        t_prime.push(active.map(|(_, t)| t));
    }
    Ok(Setup {
        emu,
        leader,
        leader_dir,
        follower,
        follower_dir,
        replicator,
        jobs,
        drift,
        events,
        t_prime,
    })
}

/// Runs `call` as one leader mutation, adding its duration to `stall`
/// when a snapshot was written during it.
fn mutation<T>(leader: &PerseusServer, stall: &mut f64, call: impl FnOnce() -> T) -> T {
    let before = leader.durability().snapshots_written;
    let t0 = Instant::now();
    let out = call();
    if leader.durability().snapshots_written > before {
        *stall += t0.elapsed().as_secs_f64();
    }
    out
}

/// Copies every file of `src` into a fresh `dst`.
fn copy_dir(src: &Path, dst: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), dst.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// Replication counters accumulated over the run's syncs.
#[derive(Default)]
struct SyncTally {
    syncs: u64,
    records: u64,
    checkpoints: u64,
    lag_max: u64,
}

fn sync(
    tracer: &Tracer,
    pass: &mut Pass,
    replicator: &Replicator,
    follower: &mut FollowerServer,
    tally: &mut SyncTally,
) {
    let before = follower.shipped_seq();
    let r = {
        let _s = tracer.span("replica.sync_ms");
        replicator.sync(follower)
    };
    if let Some(shipped) = pass.result(r, "replicator sync") {
        tally.syncs += 1;
        tally.records += shipped;
        if is_checkpoint_sync(before, follower.shipped_seq(), shipped) {
            tally.checkpoints += 1;
        }
        tally.lag_max = tally.lag_max.max(follower.stats().lag_records);
    }
}

/// Runs the workload once.
///
/// # Errors
///
/// Setup failures; failed operations are counted instead.
pub fn run(cfg: &RunConfig, size: &Size, tracer: &Tracer) -> Fallible<Pass> {
    let mut pass = Pass::default();
    // Timed in slices of ITERATIONS_PER_SLICE iterations.
    let (mut iter_s, mut status_s) = (Timings::default(), Timings::default());
    let mut verdicts = Verdicts::default();
    let mut energy = EnergyTally::default();
    let mut actuals = Vec::with_capacity(size.iterations);
    let (mut deployments, mut bytes) = (0u64, 0u64);
    let mut stall_s = 0.0;
    let mut syncs = SyncTally::default();
    let mut count = |d: &Deployment| {
        deployments += 1;
        bytes += deployment_bytes(d);
    };

    let run_span = tracer.span("run");
    // Only the last setup is driven; the earlier ones are timed for
    // `setup_s` and dropped.
    let mut setup_s = Vec::with_capacity(size.setups);
    let mut built = None;
    for k in 0..size.setups.max(1) {
        drop(built.take());
        let t0 = setup_clock(cfg, k);
        let state = {
            let _s = tracer.root("setup", k);
            setup(tracer, cfg, k, size)?
        };
        setup_s.push(t0.elapsed().as_secs_f64());
        built = Some(state);
    }
    let setup_state = built.expect("at least one setup ran");
    let Setup {
        emu,
        leader,
        leader_dir,
        mut follower,
        follower_dir,
        replicator,
        jobs,
        mut drift,
        events,
        t_prime,
    } = setup_state;
    let t_min = emu.frontier().t_min();

    let mut slice = Slice::start();
    for i in 0..size.iterations {
        let t0 = Instant::now();
        let _iteration = tracer.root("iteration", i);
        if let Some(ev) = events[i] {
            for job in &jobs {
                let r = mutation(&leader, &mut stall_s, || {
                    let _s = tracer.span("server.straggler_us");
                    leader.set_straggler(job, ev.pipeline, 0.0, ev.degree)
                });
                let t_min = leader.frontier(job).map(|f| f.t_min());
                if let Some(dep) = reaction(&mut pass, r, t_min, ev.degree, job) {
                    count(&dep);
                }
            }
        }

        let (believed, actual) = (t_prime[i.saturating_sub(REACTION_DELAY)], t_prime[i]);
        let priced = {
            let _s = tracer.span("cluster.report_us");
            emu.report_with_belief(Policy::Perseus, believed, actual)
                .and_then(|r| {
                    emu.attribute_with_belief(Policy::Perseus, believed, actual)
                        .map(|a| (r, a.total()))
                })
        };
        let Some((report, split)) = pass.result(priced, "report") else {
            continue;
        };
        let total = report.total_j();
        pass.check(
            (split.total_j() - total).abs() <= 1e-9 * total.max(1.0),
            || {
                format!(
                    "iteration {i}: attribution {} J vs report {total} J",
                    split.total_j()
                )
            },
        );
        energy.add(total, 0.0, report.sync_time_s, 0.0);
        actuals.push(actual);
        let freqs = &emu
            .frontier()
            .lookup(believed.unwrap_or(t_min))
            .schedule
            .freqs;
        let freq_min = freqs.iter().flatten().map(|f| f.0).min().unwrap_or(0);
        let freq_max = freqs.iter().flatten().map(|f| f.0).max().unwrap_or(0);

        for job in &jobs {
            let t_read = Instant::now();
            let r = {
                let _s = tracer.span("server.status_us");
                leader.job_status(job)
            };
            status_s.push(t_read.elapsed().as_secs_f64());
            let degraded = match pass.result(r, "job_status") {
                Some(status) => {
                    match &status.deployment {
                        Some(d) => count(d),
                        None => {
                            pass.check(false, || format!("{job}: status without a deployment"));
                        }
                    }
                    status.degraded
                }
                None => false,
            };
            {
                let _s = tracer.span("telemetry.observe_us");
                leader.observe_iteration(
                    job,
                    IterationSample {
                        iteration: i as u64,
                        sync_time_s: report.sync_time_s,
                        useful_j: split.useful_j,
                        intrinsic_j: split.intrinsic_j,
                        extrinsic_j: split.extrinsic_j,
                        freq_min_mhz: freq_min,
                        freq_max_mhz: freq_max,
                        degraded,
                        degraded_lookups: 0,
                        faults: u64::from(events[i].is_some()),
                    },
                );
            }
            let r = mutation(&leader, &mut stall_s, || {
                let _s = tracer.span("server.advance_us");
                leader.advance_time(job, report.sync_time_s)
            });
            for d in pass.result(r, "advance_time").unwrap_or_default() {
                count(&d);
            }
        }

        if i % DRIFT_EVERY == DRIFT_EVERY - 1 {
            for (job, walk) in jobs.iter().zip(drift.iter_mut()) {
                let deltas = walk.step();
                let r = mutation(&leader, &mut stall_s, || {
                    let _s = tracer.span("server.ingest_drift_us");
                    leader
                        .ingest_drift(job, &deltas)
                        .and_then(|ticket| ticket.map(|t| t.wait()).transpose())
                });
                if let Some(Some(d)) = pass.result(r, "ingest_drift") {
                    count(&d);
                }
            }
        }

        if i % SYNC_EVERY == 0 {
            sync(tracer, &mut pass, &replicator, &mut follower, &mut syncs);
        }
        iter_s.push(t0.elapsed().as_secs_f64());
        if (i + 1) % ITERATIONS_PER_SLICE == 0 || i + 1 == size.iterations {
            let clean = slice.clean();
            iter_s.close(clean);
            status_s.close(clean);
            verdicts.record(clean);
            slice = Slice::start();
        }
    }

    // After the loop: a final sync, promotion of the live follower, then
    // timed reopens of the leader's directory and promotions of the
    // follower's, each on its own copy.
    let post = tracer.root("post", "end");
    sync(tracer, &mut pass, &replicator, &mut follower, &mut syncs);
    let durability = leader.durability();
    let drift_replans = leader.drift_replans();
    let fingerprint = leader.state_fingerprint();
    let (mut paths, mut points) = (0u64, 0u64);
    for job in &jobs {
        if let Some(status) = pass.result(leader.job_status(job), "job_status") {
            paths += status.solver.augmenting_paths;
        }
        points += leader.frontier(job).map_or(0, |f| f.len() as u64);
    }
    let journal = leader
        .journal_path()
        .ok_or("durable leader has no journal")?;
    let work = follower_dir.with_file_name("copies");
    for k in 0..REPEATS {
        copy_dir(&follower_dir, &work.join(format!("follower-{k}")))?;
    }
    let promoted = {
        let _s = tracer.span("replica.promote_ms");
        follower.promote()
    };
    let promote_replayed = match pass.result(promoted, "promote") {
        Some((server, report)) => {
            pass.check(server.state_fingerprint() == fingerprint, || {
                "promoted follower differs from the leader".into()
            });
            report.replayed_records
        }
        None => 0,
    };
    drop(replicator);
    drop(leader);
    let file_len = |p: &Path| std::fs::metadata(p).map_or(0, |m| m.len());
    let journal_bytes = file_len(&journal);
    let snapshot_bytes: u64 = std::fs::read_dir(&leader_dir)?
        .filter_map(Result::ok)
        .filter(|e| e.path() != journal)
        .map(|e| file_len(&e.path()))
        .sum();

    let (mut recover_s, mut failover_s, mut replayed) = (Vec::new(), Vec::new(), 0);
    for k in 0..REPEATS {
        let copy = work.join(format!("leader-{k}"));
        copy_dir(&leader_dir, &copy)?;
        let t0 = Instant::now();
        let r = {
            let _s = tracer.span("store.recover_ms");
            PerseusServer::open_with(&copy, 1, Telemetry::disabled())
        };
        recover_s.push(t0.elapsed().as_secs_f64());
        if let Some(server) = pass.result(r, "reopen leader") {
            replayed = server.durability().replayed_events;
            pass.check(server.state_fingerprint() == fingerprint, || {
                "reopened leader differs from the leader".into()
            });
        }
        let _ = std::fs::remove_dir_all(&copy);

        let copy = work.join(format!("follower-{k}"));
        if let Some(f) = pass.result(
            FollowerServer::open_with(&copy, 1, Telemetry::disabled()),
            "reopen follower",
        ) {
            let t0 = Instant::now();
            let r = {
                let _s = tracer.span("replica.promote_ms");
                f.promote()
            };
            failover_s.push(t0.elapsed().as_secs_f64());
            if let Some((server, _)) = pass.result(r, "promote copy") {
                pass.check(server.state_fingerprint() == fingerprint, || {
                    "promoted follower copy differs from the leader".into()
                });
            }
        }
        let _ = std::fs::remove_dir_all(&copy);
    }
    drop(post);
    drop(run_span);
    let peak = peak_rss_mib();

    // All-max over the same straggler trace: its cost depends only on the
    // actual T', so price each distinct value once.
    let mut priced: Vec<(Option<u64>, f64, f64)> = Vec::new();
    for actual in &actuals {
        let key = actual.map(f64::to_bits);
        let (j, s) = match priced.iter().find(|(k, _, _)| *k == key) {
            Some(&(_, j, s)) => (j, s),
            None => {
                let r = emu.report_with_belief(Policy::AllMax, *actual, *actual)?;
                priced.push((key, r.total_j(), r.sync_time_s));
                (r.total_j(), r.sync_time_s)
            }
        };
        energy.add(0.0, j, 0.0, s);
    }
    pass.check(energy.is_valid(), || "no iteration priced".into());

    let (iter_s, status_s) = (iter_s.kept(&verdicts), status_s.kept(&verdicts));
    let iters_per_s = slice_rate(iter_s, ITERATIONS_PER_SLICE, 1.0);
    pass.e2e.insert("setup_s", median(&setup_s).unwrap_or(0.0));
    if let Some(rate) = iters_per_s {
        pass.e2e.insert("ops_per_s", rate);
    }
    pass.e2e
        .insert("op_p50_ms", ms(median(iter_s).unwrap_or(0.0)));
    pass.e2e
        .insert("lookup_p50_us", us(median(status_s).unwrap_or(0.0)));
    pass.e2e.insert("energy_saved_pct", energy.saved_pct());
    pass.e2e.insert("iter_time_pct", energy.iter_time_pct());
    if let Some(peak) = peak {
        pass.e2e.insert("peak_rss_mb", peak);
    }

    let layer = &mut pass.layer;
    layer.insert("core.frontier_points", points as f64);
    layer.insert("flow.augmenting_paths", paths as f64);
    layer.insert("server.deployments", deployments as f64);
    layer.insert("server.deploy_bytes", bytes as f64);
    layer.insert("server.drift_replans", drift_replans as f64);
    layer.insert("store.journal_appends", durability.journal_appends as f64);
    layer.insert("store.snapshots", durability.snapshots_written as f64);
    layer.insert("store.snapshot_stall_ms", ms(stall_s));
    layer.insert("store.snapshot_bytes", snapshot_bytes as f64);
    layer.insert("store.journal_bytes", journal_bytes as f64);
    layer.insert("store.replayed_events", replayed as f64);
    layer.insert("replica.syncs", syncs.syncs as f64);
    layer.insert("replica.records_shipped", syncs.records as f64);
    layer.insert("replica.checkpoint_syncs", syncs.checkpoints as f64);
    if syncs.syncs > 0 {
        layer.insert(
            "replica.checkpoint_ratio",
            syncs.checkpoints as f64 / syncs.syncs as f64,
        );
    }
    layer.insert("replica.lag_records_max", syncs.lag_max as f64);
    layer.insert("replica.promote_replayed", promote_replayed as f64);

    let level = |xs: &[f64]| -> String {
        [0.99, 0.95, 0.9]
            .into_iter()
            .find_map(|p| tail(xs, p).map(|v| format!("p{} {:.3} ms", (p * 100.0) as u32, ms(v))))
            .unwrap_or_else(|| "refused".to_string())
    };
    pass.line(format!(
        "durable-train: {} iterations x {JOBS} jobs, GPT-3 1.3B {STAGES}x{MICROBATCHES} x \
         {PIPELINES} pipelines; sync every {SYNC_EVERY}, drift every {DRIFT_EVERY}; {}",
        size.iterations,
        verdicts.describe()
    ));
    pass.line(format!(
        "  iters_per_s = {:.2} (median over slices of {ITERATIONS_PER_SLICE}), iter_p50_ms = {:.3}, \
         tail {} ({} samples)",
        iters_per_s.unwrap_or(0.0),
        ms(median(iter_s).unwrap_or(0.0)),
        level(iter_s),
        iter_s.len()
    ));
    pass.line(format!(
        "  recover_s = {:.4}, failover_s = {:.4} (medians of {REPEATS} copies)",
        median(&recover_s).unwrap_or(0.0),
        median(&failover_s).unwrap_or(0.0)
    ));
    pass.line(format!(
        "  energy_saved_pct = {:.3} %, slowdown_pct = {:.4} % (whole run vs all-max)",
        energy.saved_pct(),
        energy.iter_time_pct() - 100.0
    ));
    pass.line(format!(
        "  journal appends {}, snapshots {} (stall {:.1} ms), drift re-plans {drift_replans}, \
         syncs {} ({} checkpoints, {} records, lag max {})",
        durability.journal_appends,
        durability.snapshots_written,
        ms(stall_s),
        syncs.syncs,
        syncs.checkpoints,
        syncs.records,
        syncs.lag_max
    ));
    Ok(pass)
}
