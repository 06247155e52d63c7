//! The claims registry: every written contract of the reproduction, as one
//! table of groups that one runner checks.
//!
//! [`GROUPS`] lists `(name, run)` pairs. Each `run` drives one subsystem
//! — the warm-started solver, the fleet plan cache, Kareus sleep
//! planning, streaming observability, replication and failover, crash
//! recovery, fault injection — prints deterministic evidence lines (counts,
//! joules, simulated seconds; never wall-clock time), and reports each
//! claim through [`Checker::check`] as `group/name: HOLDS` or
//! `group/name: FAILED`. [`run`] prints a `== name ==` header before each
//! group and returns the number of failed claims.
//!
//! The whole output is deterministic, so `tests/golden.rs` byte-compares
//! it against `tests/golden/claims.txt` on every `cargo test`, and the
//! `claims` binary (`--only <group>` to run one group) prints the same
//! bytes. The few claims about wall time (a cached admission is at least
//! 10x faster than a cold solve) print only their verdict.

use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::Arc;

use perseus_chaos::{model_profiles, run_chaos, ChaosConfig, FaultEvent, FaultKind, FaultPlan};
use perseus_cluster::{
    simulate_run, simulate_run_observed, ClusterConfig, Emulator, Policy, RunConfig,
};
use perseus_core::{
    plan_fingerprint, FrontierOptions, FrontierSolver, ParetoFrontier, PlanCache, PlanContext,
};
use perseus_gpu::{FreqMHz, GpuSpec, NoiseModel};
use perseus_models::{min_imbalance_partition, zoo, ModelSpec, StageWorkloads};
use perseus_pipeline::{OpKey, PipelineBuilder, PipelineDag, ScheduleKind};
use perseus_profiler::{ProfileDb, ProfileDrift};
use perseus_server::{
    FleetConfig, FleetServer, FollowerServer, JobSpec, PerseusServer, Replicator, Role, TenantId,
    DEFAULT_DRIFT_THRESHOLD,
};
use perseus_telemetry::pipeline::series;
use perseus_telemetry::{AlertState, ObsPipeline, PipelineConfig, SloSpec, Telemetry};

use crate::{fig9_report_with, kareus_report_with, table3_report_with};

/// One claim group: its name (the section header and the `--only` key)
/// and the function that checks it, recording into the given telemetry.
pub type Group = (
    &'static str,
    fn(&mut Checker<'_>, &Telemetry) -> io::Result<()>,
);

/// Every claim group, in output order.
pub const GROUPS: &[Group] = &[
    ("solver", solver),
    ("fleet", fleet),
    ("kareus", kareus),
    ("obs", obs),
    ("ha", ha),
    ("recovery", recovery),
    ("chaos", chaos),
];

/// The groups `--only` selects: all of [`GROUPS`] for `None`, else the
/// one group named `only`.
///
/// # Errors
///
/// `only` names no group.
pub fn select(only: Option<&str>) -> Result<&'static [Group], String> {
    let Some(name) = only else {
        return Ok(GROUPS);
    };
    GROUPS
        .iter()
        .position(|&(g, _)| g == name)
        .map(|i| &GROUPS[i..=i])
        .ok_or_else(|| format!("unknown claim group {name:?}"))
}

/// The group names, comma-separated, for usage messages.
pub fn group_names() -> String {
    GROUPS
        .iter()
        .map(|&(g, _)| g)
        .collect::<Vec<_>>()
        .join(", ")
}

/// Runs `groups` in order into `out`, each under a `== name ==` header,
/// recording into `telemetry`. Returns the number of FAILED claims.
///
/// # Errors
///
/// Propagates write failures from `out`.
pub fn run(groups: &[Group], out: &mut dyn Write, telemetry: &Telemetry) -> io::Result<usize> {
    let mut failed = 0;
    for &(group, check_group) in groups {
        writeln!(out, "== {group} ==")?;
        let mut checker = Checker {
            out: &mut *out,
            group,
            failed: 0,
        };
        check_group(&mut checker, telemetry)?;
        failed += checker.failed;
    }
    Ok(failed)
}

/// A group's view of the output: evidence lines go through [`Write`],
/// verdicts through [`Checker::check`].
pub struct Checker<'a> {
    out: &'a mut dyn Write,
    group: &'static str,
    failed: usize,
}

impl Checker<'_> {
    /// Reports one claim as `group/name: HOLDS` or `group/name: FAILED`.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn check(&mut self, name: &str, holds: bool) -> io::Result<()> {
        self.failed += usize::from(!holds);
        let verdict = if holds { "HOLDS" } else { "FAILED" };
        writeln!(self.out, "{}/{name}: {verdict}", self.group)
    }
}

impl Write for Checker<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.out.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

// ---- Shared fixtures ----

const TABLE3_GOLDEN: &[u8] = include_bytes!("../../../tests/golden/table3_intrinsic.txt");
const FIG9_GOLDEN: &[u8] = include_bytes!("../../../tests/golden/fig9_frontier.txt");

/// Whether table 3 and figure 9, rendered recording into `telemetry`, are
/// byte-identical to their golden fixtures.
fn goldens_unchanged(telemetry: &Telemetry) -> bool {
    let mut table3 = Vec::new();
    table3_report_with(&mut table3, telemetry).expect("render table 3");
    let mut fig9 = Vec::new();
    fig9_report_with(&mut fig9, false, telemetry).expect("render figure 9");
    table3 == TABLE3_GOLDEN && fig9 == FIG9_GOLDEN
}

/// The coarser frontier options the obs and ha groups characterize with.
const COARSE: FrontierOptions = FrontierOptions {
    tau_s: Some(2e-3),
    max_iters: 50_000,
    stretch: true,
    warm_start: true,
};

/// The serving groups' cluster: GPT-3 1.3B on four A100 stages, 8
/// microbatches, 4 data-parallel pipelines.
fn cluster_config(frontier: FrontierOptions) -> ClusterConfig {
    ClusterConfig {
        model: zoo::gpt3_xl(4),
        gpu: GpuSpec::a100_pcie(),
        n_stages: 4,
        n_microbatches: 8,
        n_pipelines: 4,
        tensor_parallel: 1,
        schedule: ScheduleKind::OneFOneB,
        frontier,
    }
}

/// The pipeline and per-op profiles of one [`cluster_config`] pipeline.
fn serving_job() -> (PipelineDag, ProfileDb<OpKey>) {
    let config = cluster_config(FrontierOptions::default());
    let emu = Emulator::new(config.clone()).expect("emulator builds");
    let profiles = model_profiles(emu.pipe(), &config.gpu, emu.stages());
    (emu.pipe().clone(), profiles)
}

/// The job every single-server history registers.
const JOB: &str = "job";

fn job_spec(name: &str, pipe: &PipelineDag) -> JobSpec {
    JobSpec {
        name: name.into(),
        pipe: pipe.clone(),
        gpu: GpuSpec::a100_pcie(),
        power_states: None,
    }
}

/// Drives one scripted history covering every journaled event kind:
/// register, characterize, straggler, frequency cap, and a pending
/// straggler timer that recovery must keep armed.
fn drive_history(server: &PerseusServer, pipe: &PipelineDag, profiles: &ProfileDb<OpKey>) {
    let gpu = GpuSpec::a100_pcie();
    server.register_job(job_spec(JOB, pipe)).expect("register");
    server
        .submit_profiles(JOB, profiles.clone(), &FrontierOptions::default())
        .expect("submit")
        .wait()
        .expect("characterize");
    server.set_straggler(JOB, 0, 0.0, 1.25).expect("straggler");
    let cap = FreqMHz((gpu.min_freq_mhz + gpu.max_freq_mhz) / 2);
    server.apply_freq_cap(JOB, cap).expect("freq cap");
    server
        .set_straggler(JOB, 2, 60.0, 1.4)
        .expect("pending straggler");
    server.advance_time(JOB, 10.0).expect("advance");
}

/// A fresh, empty scratch directory unique to this process and `tag`.
fn unique_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("perseus-claims-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A model split into stages with its 1F1B pipeline on one GPU.
struct Shape {
    pipe: PipelineDag,
    stages: Vec<StageWorkloads>,
    gpu: GpuSpec,
}

impl Shape {
    fn build(model: &ModelSpec, gpu: &GpuSpec, n_stages: usize, n_microbatches: usize) -> Shape {
        let weights = model.fwd_latency_weights(gpu);
        let partition = min_imbalance_partition(&weights, n_stages).expect("partition");
        let stages = model.stage_workloads(&partition, gpu).expect("stages");
        let pipe = PipelineBuilder::new(ScheduleKind::OneFOneB, n_stages, n_microbatches)
            .build()
            .expect("pipe");
        Shape {
            pipe,
            stages,
            gpu: gpu.clone(),
        }
    }

    fn ctx(&self) -> PlanContext<'_> {
        PlanContext::from_model_profiles(&self.pipe, &self.gpu, &self.stages).expect("ctx")
    }
}

/// Field-by-field bitwise comparison of two frontiers (`f64::to_bits` on
/// every time, energy, and duration; exact equality on every frequency);
/// describes the first divergence, if any.
fn frontier_divergence(a: &ParetoFrontier, b: &ParetoFrontier) -> Option<String> {
    if a.points().len() != b.points().len() {
        return Some(format!(
            "point counts differ: {} vs {}",
            a.points().len(),
            b.points().len()
        ));
    }
    for (i, (pa, pb)) in a.points().iter().zip(b.points().iter()).enumerate() {
        if pa.planned_time_s.to_bits() != pb.planned_time_s.to_bits()
            || pa.planned_energy_j.to_bits() != pb.planned_energy_j.to_bits()
        {
            return Some(format!("point {i}: planned time/energy bits differ"));
        }
        let (sa, sb) = (&pa.schedule, &pb.schedule);
        if sa.time_s.to_bits() != sb.time_s.to_bits()
            || sa.compute_j.to_bits() != sb.compute_j.to_bits()
            || sa.freqs != sb.freqs
        {
            return Some(format!("point {i}: schedule time/energy/freqs differ"));
        }
        let same = |x: &[f64], y: &[f64]| {
            x.len() == y.len()
                && x.iter()
                    .zip(y.iter())
                    .all(|(u, v)| u.to_bits() == v.to_bits())
        };
        if !same(&sa.planned, &sb.planned)
            || !same(&sa.realized_dur, &sb.realized_dur)
            || !same(&sa.realized_energy, &sb.realized_energy)
        {
            return Some(format!("point {i}: per-node schedule vectors differ"));
        }
    }
    None
}

/// Whether `a` and `b` are bit-identical; the first divergence goes to
/// stderr under `what`.
fn bit_identical(what: &str, a: &ParetoFrontier, b: &ParetoFrontier) -> bool {
    let divergence = frontier_divergence(a, b);
    if let Some(d) = &divergence {
        eprintln!("{what}: {d}");
    }
    divergence.is_none()
}

// ---- solver: the incremental warm-started max-flow solver ----

/// Characterizes GPT-3 6.7B on 32 A40 stages x 32 microbatches at the
/// paper's 1 ms unit time, cold (every cut from scratch) and warm (each
/// cut re-augments the previous flow), then checks the parallel fan-out
/// against sequential solves on shallower shapes.
fn solver(c: &mut Checker<'_>, tel: &Telemetry) -> io::Result<()> {
    // GPT-3 6.7B has exactly 32 decoder layers: one layer per stage is
    // the deepest pipeline the model supports and the regime where
    // repeated min cuts dominate. At a fine unit time consecutive cuts
    // differ by tiny duration drifts, so the critical topology is stable
    // and the previous flow re-augments in a couple of paths.
    let model = zoo::gpt3_6_7b(4);
    let gpu = GpuSpec::a40();
    let deep = Shape::build(&model, &gpu, 32, 32);
    let ctx = deep.ctx();
    let characterize = |warm_start: bool| {
        let solver = FrontierSolver::with_telemetry(&deep.pipe, tel.clone());
        let opts = FrontierOptions {
            warm_start,
            tau_s: Some(1e-3),
            ..FrontierOptions::default()
        };
        let frontier = solver.characterize(&ctx, &opts).expect("characterize");
        (frontier, solver.stats())
    };
    let (cold_frontier, cold) = characterize(false);
    let (warm_frontier, warm) = characterize(true);

    writeln!(c, "GPT-3 6.7B, 32 stages x 32 microbatches, A40, tau 1 ms")?;
    writeln!(
        c,
        "frontier points              {:>12}",
        warm_frontier.points().len()
    )?;
    writeln!(
        c,
        "cold augmenting paths        {:>12}",
        cold.augmenting_paths
    )?;
    writeln!(
        c,
        "warm augmenting paths        {:>12}",
        warm.augmenting_paths
    )?;
    writeln!(
        c,
        "warm-start hits              {:>12}",
        warm.warm_start_hits
    )?;
    writeln!(
        c,
        "augmenting paths saved       {:>12}",
        warm.augmenting_paths_saved
    )?;
    let ratio = cold.augmenting_paths as f64 / warm.augmenting_paths.max(1) as f64;
    writeln!(c, "cold/warm path ratio         {ratio:>12.2}x")?;
    c.check(
        "warm start searches at least 3x fewer augmenting paths",
        cold.augmenting_paths >= 3 * warm.augmenting_paths,
    )?;
    c.check(
        "warm start reuses the previous flow",
        warm.warm_start_hits > 0,
    )?;
    c.check(
        "warm and cold frontiers bit-identical",
        bit_identical("solver warm vs cold", &cold_frontier, &warm_frontier),
    )?;

    // The parallel fan-out (the emulator's and the server worker pool's
    // path) against fresh sequential solves; shallow shapes keep it fast,
    // the deep shape above already covered the 32-stage regime.
    let shapes: Vec<Shape> = [(4, 8), (8, 8), (16, 8)]
        .iter()
        .map(|&(s, m)| Shape::build(&model, &gpu, s, m))
        .collect();
    let ctxs: Vec<PlanContext<'_>> = shapes.iter().map(Shape::ctx).collect();
    let solvers: Vec<FrontierSolver> = shapes
        .iter()
        .map(|s| FrontierSolver::with_telemetry(&s.pipe, tel.clone()))
        .collect();
    let opts = FrontierOptions::default();
    let jobs: Vec<(&FrontierSolver, &PlanContext<'_>, &FrontierOptions)> = solvers
        .iter()
        .zip(ctxs.iter())
        .map(|(s, ctx)| (s, ctx, &opts))
        .collect();
    let parallel = FrontierSolver::characterize_all(&jobs);
    let mut parallel_ok = true;
    for ((shape, ctx), p) in shapes.iter().zip(ctxs.iter()).zip(parallel) {
        let p = p.expect("parallel characterize");
        let q = FrontierSolver::with_telemetry(&shape.pipe, tel.clone())
            .characterize(ctx, &opts)
            .expect("sequential characterize");
        parallel_ok &= bit_identical(
            &format!(
                "solver parallel vs sequential, {} stages",
                shape.pipe.n_stages
            ),
            &p,
            &q,
        );
    }
    c.check(
        "parallel fan-out bit-identical to sequential solves",
        parallel_ok,
    )
}

// ---- fleet: sharded multi-tenant serving and the cross-job plan cache ----

const FLEET_JOBS: usize = 1000;
const FLEET_SHARDS: usize = 4;

/// Serves 1000 jobs drawn from 20 structures (GPT-3 1.3B at 4 depths x 5
/// microbatch counts) on a sharded fleet: one cold solve per structure,
/// then 980 open-loop submissions that should all hit the plan cache.
fn fleet(c: &mut Checker<'_>, tel: &Telemetry) -> io::Result<()> {
    let model = zoo::gpt3_xl(4);
    let gpu = GpuSpec::a100_pcie();
    let structures: Vec<Shape> = [2usize, 3, 4, 6]
        .iter()
        .flat_map(|&d| [4usize, 6, 8, 10, 12].map(|w| (d, w)))
        .map(|(d, w)| Shape::build(&model, &gpu, d, w))
        .collect();
    let n_structures = structures.len();
    let opts = FrontierOptions {
        tau_s: Some(5e-3),
        max_iters: 50_000,
        ..FrontierOptions::default()
    };
    let fleet = FleetServer::with_telemetry(
        FleetConfig::default()
            .shards(FLEET_SHARDS)
            .workers_per_shard(2),
        tel.clone(),
    );
    let tenant_of = |i: usize| TenantId(format!("tenant-{:02}", i % 10));
    let register = |name: &str, s: &Shape| {
        fleet
            .register_job(JobSpec {
                name: name.into(),
                pipe: s.pipe.clone(),
                gpu: s.gpu.clone(),
                power_states: None,
            })
            .expect("register");
    };
    let submit = |i: usize, name: &str, profiles| {
        fleet
            .submit_profiles(&tenant_of(i), name, profiles, &opts)
            .expect("submit")
    };
    // Times submit→deploy only; building the profiles is the client's work.
    let timed_admission = |i: usize, name: &str, s: &Shape| {
        let profiles = s.ctx().profiles;
        let t0 = std::time::Instant::now();
        submit(i, name, profiles).wait().expect("characterize");
        t0.elapsed().as_secs_f64()
    };
    let job_name = |i: usize| format!("fleet-job-{i:04}");
    for i in 0..FLEET_JOBS {
        register(&job_name(i), &structures[i % n_structures]);
    }

    // The first job of each structure solves cold and fills the cache;
    // the rest pour in without waiting, every one a fingerprint hit.
    let cold_s: Vec<f64> = (0..n_structures)
        .map(|i| timed_admission(i, &job_name(i), &structures[i]))
        .collect();
    let tickets: Vec<_> = (n_structures..FLEET_JOBS)
        .map(|i| submit(i, &job_name(i), structures[i % n_structures].ctx().profiles))
        .collect();
    for t in tickets {
        t.wait().expect("open-loop characterize");
    }
    // Cached admission: fresh probe jobs over the cached structures,
    // timed submit→deploy one by one like the cold samples.
    let cached_s: Vec<f64> = structures
        .iter()
        .enumerate()
        .map(|(k, s)| {
            let name = format!("fleet-probe-{k:02}");
            register(&name, s);
            timed_admission(k, &name, s)
        })
        .collect();
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let speedup = mean(&cold_s) / mean(&cached_s).max(1e-12);
    eprintln!(
        "fleet admission: cold {:.3} ms mean, cached {:.3} ms mean ({speedup:.1}x)",
        mean(&cold_s) * 1e3,
        mean(&cached_s) * 1e3
    );

    let stats = fleet.stats();
    let hit_rate = fleet.plan_cache().hit_rate();
    writeln!(
        c,
        "{FLEET_JOBS} jobs from {n_structures} structures, {FLEET_SHARDS} shards"
    )?;
    writeln!(c, "submitted                    {:>12}", stats.submitted)?;
    writeln!(c, "admitted                     {:>12}", stats.admitted)?;
    writeln!(
        c,
        "cache inserts                {:>12}",
        stats.cache.inserts
    )?;
    writeln!(c, "cache hits                   {:>12}", stats.cache.hits)?;
    writeln!(c, "cache misses                 {:>12}", stats.cache.misses)?;
    writeln!(
        c,
        "hit rate                     {:>11.1}%",
        hit_rate * 100.0
    )?;
    c.check("cache hit rate at least 90%", hit_rate >= 0.90)?;
    c.check(
        "cached admission at least 10x faster than a cold solve",
        speedup >= 10.0,
    )?;

    // Caching never changes what deploys: every cached plan equals a
    // fresh solve bit for bit, and the 20 fingerprints are distinct.
    let mut identical = true;
    let mut fps = Vec::with_capacity(n_structures);
    for (k, s) in structures.iter().enumerate() {
        let ctx = s.ctx();
        let fp = plan_fingerprint("perseus", &s.pipe, &s.gpu, &ctx.profiles, &opts);
        fps.push(fp);
        let fresh = FrontierSolver::new(&s.pipe)
            .characterize(&ctx, &opts)
            .expect("fresh solve");
        match fleet
            .plan_cache()
            .get(fp)
            .and_then(|p| p.as_frontier().cloned())
        {
            Some(cached) => {
                identical &= bit_identical(&format!("fleet structure {k}"), &cached, &fresh);
            }
            None => {
                eprintln!("fleet structure {k} missing from the plan cache");
                identical = false;
            }
        }
    }
    fps.sort_unstable();
    fps.dedup();
    c.check(
        "every cache hit bit-identical to a fresh solve, fingerprints distinct",
        identical && fps.len() == n_structures,
    )
}

// ---- kareus: joint frequency + sleep planning ----

/// The Figure 8 strong-scaling sweep, Kareus against frequency-only
/// Perseus.
fn kareus(c: &mut Checker<'_>, tel: &Telemetry) -> io::Result<()> {
    let sweep = kareus_report_with(c, tel)?;
    c.check(
        "kareus cluster joules <= perseus at every cell",
        sweep.never_costlier,
    )?;
    c.check(
        "strictly cheaper wherever bubbles amortize sleep latency",
        sweep.strict_where_amortized,
    )
}

// ---- obs: streaming telemetry, drift detection, fleet rollup ----

/// Iterations the detectors get to flag a drift burst.
const DRIFT_BOUND: u64 = 10;

fn obs(c: &mut Checker<'_>, tel: &Telemetry) -> io::Result<()> {
    // A scripted sustained 1.5x slowdown at iteration 60 of 120. The
    // streaming detectors watch energy/iteration, sync time, and the
    // degraded-lookup rate; any of them catching the step counts.
    const ONSET: usize = 60;
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
    let mut emu = Emulator::with_telemetry(cluster_config(COARSE), tel.clone()).expect("emulator");
    let drifted = run_chaos(
        &mut emu,
        &ChaosConfig {
            seed: 0,
            iterations: 120,
            plan: Some(plan),
            ..ChaosConfig::default()
        },
    )
    .expect("drift chaos run");
    let detection_latency = drifted
        .alerts
        .iter()
        .find(|a| a.state == AlertState::Firing)
        .map(|a| a.iteration.saturating_sub(ONSET as u64));
    c.check(
        "drift burst flagged within 10 iterations of onset",
        matches!(detection_latency, Some(lag) if lag <= DRIFT_BOUND)
            && drifted.alerts.iter().all(|a| a.iteration >= ONSET as u64),
    )?;

    // Seed 0 is the empty plan: a fault-free run must stay silent.
    let mut emu = Emulator::new(cluster_config(COARSE)).expect("emulator");
    let quiet = run_chaos(
        &mut emu,
        &ChaosConfig {
            seed: 0,
            iterations: 200,
            ..ChaosConfig::default()
        },
    )
    .expect("fault-free chaos run");
    c.check(
        "zero false positives over 200 fault-free iterations (seed 0)",
        quiet.faults_injected == 0 && quiet.alerts.is_empty(),
    )?;

    // Disjoint per-shard registries, so every rolled-up sample must equal
    // the sum over the per-registry samples.
    let fleet_tel = Telemetry::enabled();
    let fleet = FleetServer::with_telemetry(
        FleetConfig::default()
            .shards(3)
            .workers_per_shard(1)
            .sharded_telemetry(true),
        fleet_tel.clone(),
    );
    let tenant = TenantId::from("obs");
    let (pipe, profiles) = serving_job();
    for name in ["job-a", "job-b", "job-c", "job-d"] {
        fleet.register_job(job_spec(name, &pipe)).expect("register");
        fleet
            .submit_profiles(&tenant, name, profiles.clone(), &FrontierOptions::default())
            .expect("submit")
            .wait()
            .expect("characterize");
        fleet.job_status(&tenant, name).expect("status");
    }
    let mut registries: Vec<_> = fleet
        .shards()
        .iter()
        .map(|s| s.telemetry().snapshot())
        .collect();
    registries.push(fleet_tel.snapshot());
    let rollup = fleet.metrics_rollup();
    let mut samples_checked = 0usize;
    let mut exact = true;
    for (name, labels, value) in rollup.iter() {
        // `perseus_fleet_*` is synthesized by the rollup itself, and
        // derived quantiles are not summable.
        if name.starts_with("perseus_fleet_")
            || name.ends_with("_p50")
            || name.ends_with("_p90")
            || name.ends_with("_p99")
        {
            continue;
        }
        let labels: Vec<(&str, &str)> = labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        let sum: f64 = registries
            .iter()
            .filter_map(|s| s.value_of(name, &labels))
            .sum();
        if (value - sum).abs() > 1e-9 {
            eprintln!("obs rollup mismatch: {name}{labels:?} rollup={value} sum={sum}");
            exact = false;
        }
        samples_checked += 1;
    }
    c.check(
        "sharded rollup equals per-registry sums exactly",
        exact
            && samples_checked > 0
            && rollup.value_of("perseus_fleet_admitted_total", &[]) == Some(4.0),
    )?;

    // Observation changes nothing: a run fed through a live pipeline is
    // bit-identical to a plain one, and table 3 and figure 9 rendered
    // with live telemetry match the goldens.
    let obs = ObsPipeline::default();
    let active_tel = Telemetry::enabled();
    let emu =
        Emulator::with_telemetry(cluster_config(COARSE), active_tel.clone()).expect("emulator");
    let run_cfg = RunConfig {
        iterations: 16,
        reaction_delay_iters: 1,
    };
    let plain = simulate_run(&emu, Policy::Perseus, &[], &run_cfg).expect("plain run");
    let observed =
        simulate_run_observed(&emu, Policy::Perseus, &[], &run_cfg, &obs).expect("observed run");
    let runs_identical = plain.total_energy_j.to_bits() == observed.total_energy_j.to_bits()
        && plain.total_time_s.to_bits() == observed.total_time_s.to_bits();
    c.check(
        "enabled pipeline leaves table3/fig9 byte-identical to the goldens",
        runs_identical && goldens_unchanged(&active_tel),
    )?;

    writeln!(
        c,
        "alerts: drifted fired={} cleared={}; detection latency {} iters; \
         rollup samples checked {samples_checked}",
        drifted.alerts_fired,
        drifted.alerts_cleared,
        detection_latency.map_or(-1_i64, |l| l as i64),
    )?;
    writeln!(
        c,
        "alerts over the fault-free run: {}; samples the observed run ingested: {}",
        quiet.alerts.len(),
        obs.ingested()
    )
}

// ---- ha: WAL-shipping replication, failover, live re-planning ----

/// Iterations a drift re-plan gets before lookups must come from the
/// re-characterized frontier.
const STALENESS_BOUND_ITERS: f64 = 5.0;

/// Shipped-but-unapplied records the promotion test's follower tolerates.
const MAX_LAG: u64 = 2;

fn ha(c: &mut Checker<'_>, _tel: &Telemetry) -> io::Result<()> {
    let (pipe, profiles) = serving_job();

    // WAL-shipped follower at bounded lag; the leader dies; promote.
    let leader_dir = unique_dir("ha-leader");
    let follower_dir = unique_dir("ha-follower");
    let leader = Arc::new(
        PerseusServer::open_with(&leader_dir, 1, Telemetry::disabled()).expect("open leader"),
    );
    drive_history(&leader, &pipe, &profiles);
    let leader_fp = leader.state_fingerprint();
    let watermark = leader.replication_watermark().expect("watermark");
    let mut follower = FollowerServer::open(&follower_dir).expect("open follower");
    follower.set_max_lag(MAX_LAG);
    let replicator = Replicator::new(Arc::clone(&leader));
    replicator.sync(&mut follower).expect("sync");
    let lag_at_kill = follower.stats();
    drop(replicator);
    drop(leader);
    let (promoted, report) = follower.promote().expect("promote");
    c.check(
        "promoted follower fingerprint bit-identical to leader at shipped watermark",
        promoted.state_fingerprint() == leader_fp && promoted.role() == Role::Leader,
    )?;
    c.check(
        "promotion replays only the bounded pending tail, never from genesis",
        report.replayed_records <= MAX_LAG
            && report.replayed_records == lag_at_kill.lag_records
            && watermark > report.replayed_records,
    )?;
    writeln!(
        c,
        "promotion replayed {} of {watermark} journaled records (lag bound {MAX_LAG})",
        report.replayed_records
    )?;
    // The promoted server keeps serving: a mutation must succeed.
    promoted
        .set_straggler(JOB, 1, 0.0, 1.1)
        .expect("promoted leader serves mutations");
    drop(promoted);

    // Drift accumulation → threshold trip → warm-started re-plan, epoch
    // bump, cache invalidation, and the staleness SLO.
    let server = PerseusServer::with_workers(1);
    let cache = Arc::new(PlanCache::new());
    server.set_plan_cache(Some(Arc::clone(&cache)));
    server.register_job(job_spec(JOB, &pipe)).expect("register");
    server
        .submit_profiles(JOB, profiles.clone(), &COARSE)
        .expect("submit")
        .wait()
        .expect("characterize");
    let before = server.job_status(JOB).expect("status");
    let cache_epoch0 = cache.stats().epoch;
    let mut drift = ProfileDrift::new(
        profiles.clone(),
        NoiseModel {
            time_rel_sigma: 0.0,
            energy_rel_sigma: 0.0,
            seed: 7,
        },
    );
    // Below threshold: 1% drift against the 5% default must be a no-op.
    let small = drift.shift_all(1.01, 1.01);
    let no_replan = server.ingest_drift(JOB, &small).expect("ingest small");
    let untouched = server.job_status(JOB).expect("status");
    // Accumulate past the threshold: cumulative ≈ 7% time drift.
    let big = drift.shift_all(1.06, 1.05);
    let trigger_iter: u64 = 100; // the simulated iteration of the trip
    server
        .ingest_drift(JOB, &big)
        .expect("ingest big")
        .expect("threshold crossed must re-plan")
        .wait()
        .expect("re-characterize");
    // The client-visible poll loop: iterations until a lookup answers
    // from the re-characterized frontier.
    let staleness = (1..=STALENESS_BOUND_ITERS as u64)
        .find(|_| server.job_status(JOB).expect("status").epoch > before.epoch)
        .unwrap_or(0);
    let after = server.job_status(JOB).expect("status");
    c.check(
        "drift past threshold re-plans warm-started; below threshold is a no-op",
        no_replan.is_none()
            && untouched.epoch == before.epoch
            && server.drift_replans() == 1
            && after.epoch > before.epoch
            && after.solver.warm_start_hits > before.solver.warm_start_hits
            && cache.stats().epoch > cache_epoch0
            && cache.stats().invalidations >= 1,
    )?;
    let obs = ObsPipeline::new(PipelineConfig {
        slos: vec![SloSpec::drift_staleness(STALENESS_BOUND_ITERS)],
        ..PipelineConfig::default()
    });
    obs.observe_metric(
        trigger_iter + staleness,
        series::DRIFT_STALENESS_ITERS,
        staleness as f64,
    );
    let slo = obs.slo_status();
    c.check(
        "post-drift lookups served within the staleness SLO",
        staleness >= 1
            && obs.slo_healthy()
            && slo.len() == 1
            && slo[0].ticks == 1
            && slo[0].violations == 0,
    )?;
    writeln!(
        c,
        "drift watcher: threshold {DEFAULT_DRIFT_THRESHOLD:.2}, replans {}, staleness {staleness} \
         iters (bound {STALENESS_BOUND_ITERS}), warm-start hits gained {}",
        server.drift_replans(),
        after.solver.warm_start_hits - before.solver.warm_start_hits
    )?;
    drop(server);

    // Torn follower tail: tear the shipped journal mid-record, reopen
    // (truncates like `Journal::open` always does), resync, converge.
    let leader_dir2 = unique_dir("ha-leader2");
    let follower_dir2 = unique_dir("ha-follower2");
    let leader = Arc::new(
        PerseusServer::open_with(&leader_dir2, 1, Telemetry::disabled()).expect("open leader"),
    );
    leader.register_job(job_spec(JOB, &pipe)).expect("register");
    leader
        .submit_profiles(JOB, profiles.clone(), &FrontierOptions::default())
        .expect("submit")
        .wait()
        .expect("characterize");
    let mut follower = FollowerServer::open(&follower_dir2).expect("open follower");
    let replicator = Replicator::new(Arc::clone(&leader));
    replicator.sync(&mut follower).expect("sync");
    let shipped_before_tear = follower.shipped_seq();
    drop(follower); // the follower process dies mid-ship…
                    // …with the last shipped record torn: the tail loses 7 bytes.
    let journal_path = follower_dir2.join("server.journal");
    let len = std::fs::metadata(&journal_path)
        .expect("journal metadata")
        .len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&journal_path)
        .expect("open follower journal")
        .set_len(len - 7)
        .expect("tear journal tail");
    // Meanwhile the leader keeps mutating.
    leader.set_straggler(JOB, 3, 0.0, 1.2).expect("straggler");
    leader.advance_time(JOB, 5.0).expect("advance");
    let mut follower = FollowerServer::open(&follower_dir2).expect("reopen follower");
    let truncated = follower.shipped_seq() < shipped_before_tear;
    replicator.sync(&mut follower).expect("resync");
    follower.apply_all();
    c.check(
        "torn follower tail truncated at open and resynced bit-identical",
        truncated
            && follower.shipped_seq() == leader.replication_watermark().expect("watermark")
            && follower.server().state_fingerprint() == leader.state_fingerprint(),
    )?;
    drop(replicator);
    drop(leader);
    drop(follower);

    // Leader failover mid-chaos-run, replayed bit-identically.
    let failover_chaos = |tag: &str| {
        let dir = unique_dir(tag);
        let at = |at_iteration, kind| FaultEvent { at_iteration, kind };
        let plan = FaultPlan::from_events(
            0,
            vec![
                at(
                    10,
                    FaultKind::DriftBurst {
                        pipeline: 1,
                        degree: 1.4,
                    },
                ),
                at(20, FaultKind::LeaderFailover),
                at(30, FaultKind::StragglerRecover { pipeline: 1 }),
            ],
        );
        let mut emu = Emulator::new(cluster_config(COARSE)).expect("emulator builds");
        let report = run_chaos(
            &mut emu,
            &ChaosConfig {
                seed: 0,
                iterations: 40,
                durable_dir: Some(dir.clone()),
                plan: Some(plan),
                ..ChaosConfig::default()
            },
        )
        .expect("failover chaos run");
        let _ = std::fs::remove_dir_all(&dir);
        report
    };
    let a = failover_chaos("ha-chaos-a");
    let b = failover_chaos("ha-chaos-b");
    c.check(
        "mid-run leader failover survives and replays bit-identical",
        a.leader_failovers == 1
            && b.leader_failovers == 1
            && a.faults_injected == a.faults_scheduled
            && a.total_energy_j.to_bits() == b.total_energy_j.to_bits()
            && a.total_time_s.to_bits() == b.total_time_s.to_bits(),
    )?;
    writeln!(
        c,
        "leader failovers in the chaos run: {}",
        a.leader_failovers
    )?;

    // A drift watcher re-planning in-process, sharing the live telemetry
    // handle, must leave table 3 and figure 9 byte-identical.
    let active_tel = Telemetry::enabled();
    let watched = PerseusServer::with_telemetry(1, active_tel.clone());
    watched
        .register_job(job_spec(JOB, &pipe))
        .expect("register");
    watched
        .submit_profiles(JOB, profiles.clone(), &COARSE)
        .expect("submit")
        .wait()
        .expect("characterize");
    let mut watched_drift = ProfileDrift::new(
        profiles,
        NoiseModel {
            time_rel_sigma: 0.0,
            energy_rel_sigma: 0.0,
            seed: 11,
        },
    );
    let deltas = watched_drift.shift_all(1.08, 1.06);
    watched
        .ingest_drift(JOB, &deltas)
        .expect("ingest")
        .expect("re-plan")
        .wait()
        .expect("re-characterize");
    c.check(
        "live drift watcher leaves table3/fig9 byte-identical to the goldens",
        watched.drift_replans() == 1 && goldens_unchanged(&active_tel),
    )?;

    for dir in [leader_dir, follower_dir, leader_dir2, follower_dir2] {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(())
}

// ---- recovery: crash recovery and the work it saves ----

/// First seed whose durable plan schedules both durability faults.
fn seed_with_durability_faults(iterations: usize, n_pipelines: usize, gpu: &GpuSpec) -> u64 {
    (1..500)
        .find(|&seed| {
            let plan = FaultPlan::from_seed_durable(seed, iterations, n_pipelines, gpu);
            let has = |f: fn(&FaultKind) -> bool| plan.events().iter().any(|e| f(&e.kind));
            has(|k| matches!(k, FaultKind::CrashRestart))
                && has(|k| matches!(k, FaultKind::CorruptJournalTail { .. }))
        })
        .expect("some seed below 500 schedules both durability faults")
}

fn recovery(c: &mut Checker<'_>, _tel: &Telemetry) -> io::Result<()> {
    let (pipe, profiles) = serving_job();

    // Bit-identical recovery against an uninterrupted in-memory run, via
    // snapshot + journal tail and via the journal alone.
    let baseline = PerseusServer::with_workers(1);
    drive_history(&baseline, &pipe, &profiles);
    let baseline_fp = baseline.state_fingerprint();
    drop(baseline);

    let snap_dir = unique_dir("recovery-snap");
    let durable =
        PerseusServer::open_with(&snap_dir, 1, Telemetry::disabled()).expect("open durable");
    drive_history(&durable, &pipe, &profiles);
    durable.snapshot_now().expect("snapshot");
    drop(durable); // crash
    let recovered = PerseusServer::recover(&snap_dir).expect("recover from snapshot");
    c.check(
        "post-recovery state bit-identical to uninterrupted run (snapshot)",
        recovered.state_fingerprint() == baseline_fp,
    )?;
    let snap_stats = recovered.durability();
    drop(recovered);

    let wal_dir = unique_dir("recovery-wal");
    let durable =
        PerseusServer::open_with(&wal_dir, 1, Telemetry::disabled()).expect("open durable");
    durable.set_snapshot_every(u64::MAX);
    drive_history(&durable, &pipe, &profiles);
    drop(durable); // crash before any snapshot
    let recovered = PerseusServer::recover(&wal_dir).expect("recover from journal");
    c.check(
        "post-recovery state bit-identical to uninterrupted run (journal-only)",
        recovered.state_fingerprint() == baseline_fp,
    )?;
    let wal_stats = recovered.durability();
    drop(recovered);

    // Work saved: the snapshot recovery avoided the solve the
    // journal-only recovery had to repeat.
    writeln!(
        c,
        "snapshot recovery       {} re-characterizations avoided, {} replayed",
        snap_stats.recharacterizations_avoided, snap_stats.recharacterizations_replayed
    )?;
    writeln!(
        c,
        "journal-only recovery   {} re-characterizations avoided, {} replayed",
        wal_stats.recharacterizations_avoided, wal_stats.recharacterizations_replayed
    )?;
    writeln!(
        c,
        "frontier solves saved by snapshotting: {}",
        snap_stats.recharacterizations_avoided
    )?;
    c.check(
        "snapshot recovery skips the solver; journal-only replays it",
        snap_stats.recharacterizations_avoided == 1
            && snap_stats.recharacterizations_replayed == 0
            && wal_stats.recharacterizations_avoided == 0
            && wal_stats.recharacterizations_replayed == 1,
    )?;

    // Durable chaos with CrashRestart/CorruptJournalTail, replayed.
    let config = cluster_config(FrontierOptions::default());
    let iterations = 40;
    let seed = seed_with_durability_faults(iterations, config.n_pipelines, &config.gpu);
    let durable_chaos = |tag: &str| {
        let dir = unique_dir(tag);
        let mut emu = Emulator::new(config.clone()).expect("emulator builds");
        let cfg = ChaosConfig {
            seed,
            iterations,
            policy: Policy::Perseus,
            durable_dir: Some(dir.clone()),
            ..Default::default()
        };
        let report = run_chaos(&mut emu, &cfg).expect("chaos run completes");
        let _ = std::fs::remove_dir_all(&dir);
        report
    };
    let a = durable_chaos("recovery-chaos-a");
    writeln!(
        c,
        "durable chaos seed {seed}: {} crashes survived, {} recoveries, {} journal scribbles",
        a.crashes_survived, a.durability.recoveries, a.journal_corruptions
    )?;
    c.check(
        "every crash recovered from disk",
        a.crashes_survived > 0 && a.durability.recoveries == a.crashes_survived,
    )?;
    let b = durable_chaos("recovery-chaos-b");
    c.check(
        "durable chaos replay is bit-identical (energy, time, crashes)",
        a.total_energy_j.to_bits() == b.total_energy_j.to_bits()
            && a.total_time_s.to_bits() == b.total_time_s.to_bits()
            && a.crashes_survived == b.crashes_survived,
    )?;

    // Fleet cache durability: one solve feeds two jobs, the server dies,
    // and recovery replays both from the journaled cache entry instead of
    // the solver.
    let fleet_dir = unique_dir("recovery-fleet");
    let fleet_cfg = || FleetConfig::default().shards(2).workers_per_shard(1);
    let tenant = TenantId::from("recovery-tenant");
    let opts = FrontierOptions::default();
    let admit = |fleet: &FleetServer, name: &str| {
        fleet.register_job(job_spec(name, &pipe)).expect("register");
        fleet
            .submit_profiles(&tenant, name, profiles.clone(), &opts)
            .expect("fleet submit")
            .wait()
            .expect("fleet characterize");
    };
    let pre_crash_fps = {
        let fleet = FleetServer::open(&fleet_dir, fleet_cfg()).expect("open fleet");
        admit(&fleet, "fleet-a");
        admit(&fleet, "fleet-b");
        let cache = fleet.plan_cache().stats();
        c.check(
            "one solve feeds the whole fleet before the crash",
            cache.inserts == 1 && cache.hits >= 1 && cache.entries == 1,
        )?;
        // Dropped without any shutdown handshake — a crash.
        fleet.state_fingerprints()
    };
    let fleet = FleetServer::open(&fleet_dir, fleet_cfg()).expect("reopen fleet");
    let avoided: u64 = (0..2)
        .map(|i| fleet.shard(i).durability().recharacterizations_avoided)
        .sum();
    writeln!(
        c,
        "fleet recovery          {avoided} re-characterizations avoided, {} cache entries recovered",
        fleet.plan_cache().stats().recovered_entries
    )?;
    c.check(
        "fleet cache survives the crash and replay skips the solver",
        fleet.plan_cache().stats().recovered_entries == 1 && avoided >= 1,
    )?;
    c.check(
        "post-recovery fleet state bit-identical to pre-crash server",
        fleet.state_fingerprints() == pre_crash_fps,
    )?;
    let inserts_before = fleet.plan_cache().stats().inserts;
    admit(&fleet, "fleet-c");
    c.check(
        "a new job after recovery is a pure cache hit",
        fleet.plan_cache().stats().inserts == inserts_before
            && fleet.plan_cache().stats().hits >= 1,
    )?;
    drop(fleet);

    for dir in [snap_dir, wal_dir, fleet_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(())
}

// ---- chaos: seeded fault injection against the planning server ----

const CHAOS_SEED: u64 = 1337;
const CHAOS_ITERATIONS: usize = 100;

fn chaos(c: &mut Checker<'_>, tel: &Telemetry) -> io::Result<()> {
    let mut emu = Emulator::with_telemetry(cluster_config(FrontierOptions::default()), tel.clone())
        .expect("emulator builds");
    let r = run_chaos(
        &mut emu,
        &ChaosConfig {
            seed: CHAOS_SEED,
            iterations: CHAOS_ITERATIONS,
            policy: Policy::Perseus,
            ..Default::default()
        },
    )
    .expect("chaos run completes");
    writeln!(c, "seed {CHAOS_SEED}, {CHAOS_ITERATIONS} iterations")?;
    writeln!(c, "faults scheduled        {:>10}", r.faults_scheduled)?;
    writeln!(c, "faults injected         {:>10}", r.faults_injected)?;
    writeln!(
        c,
        "server faults absorbed  {:>10}",
        r.server_faults_absorbed
    )?;
    writeln!(c, "degraded lookups        {:>10}", r.degraded_lookups)?;
    writeln!(
        c,
        "straggler notifications {:>10} sent, {} answered",
        r.notifications_sent, r.notifications_answered
    )?;
    writeln!(c, "client retries          {:>10}", r.client_retries)?;
    writeln!(c, "total energy            {:>14.1} J", r.total_energy_j)?;
    writeln!(c, "total time              {:>14.3} s", r.total_time_s)?;
    writeln!(
        c,
        "min iteration time      {:>14.4} s (fault-free critical path {:.4} s)",
        r.min_iter_time_s, r.fault_free_critical_path_s
    )?;
    c.check(
        "every scheduled fault injected",
        r.faults_injected == r.faults_scheduled,
    )?;
    c.check(
        "every straggler notification answered",
        r.notifications_answered == r.notifications_sent,
    )?;
    c.check(
        "no iteration beats the fault-free critical path",
        r.min_iter_time_s >= r.fault_free_critical_path_s - 1e-9,
    )?;
    // The retrying client clears degradation before the next lookup in
    // this deterministic harness, so the recorded bound is zero.
    c.check("no degraded lookups", r.degraded_lookups == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo(c: &mut Checker<'_>, _tel: &Telemetry) -> io::Result<()> {
        writeln!(c, "evidence 42")?;
        c.check("holds", true)?;
        c.check("breaks", false)
    }

    #[test]
    fn runner_prints_failed_claims_and_counts_them() {
        let mut out = Vec::new();
        let failed = run(&[("demo", demo)], &mut out, &Telemetry::disabled()).expect("run");
        assert_eq!(failed, 1);
        assert_eq!(
            String::from_utf8(out).expect("utf-8"),
            "== demo ==\nevidence 42\ndemo/holds: HOLDS\ndemo/breaks: FAILED\n"
        );
    }

    #[test]
    fn select_picks_all_groups_or_exactly_one() {
        assert_eq!(select(None).expect("all").len(), GROUPS.len());
        let ha = select(Some("ha")).expect("ha exists");
        assert_eq!(ha.len(), 1);
        assert_eq!(ha[0].0, "ha");
        assert!(select(Some("nope")).is_err());
        assert_eq!(
            group_names(),
            "solver, fleet, kareus, obs, ha, recovery, chaos"
        );
    }
}
