//! `cold-plan`: the paper's §6.5 algorithm-runtime experiment as a batch.
//!
//! Eleven jobs (the five Table-10 A100 workloads at 4 stages, the five
//! Table-9 A40 workloads at 8 stages with microbatches capped at 64, and
//! GPT-3 6.7B on A40 at 32 stages × 16 microbatches) are submitted at
//! once with `submit_profiles_batch` to a fresh in-memory server with two
//! workers and no plan cache, so every submission is a cold frontier
//! sweep; every other job also plans Kareus sleep. After each batch, a
//! sweep of straggler lookups (`set_straggler`, delay 0) on the planned
//! jobs measures the §6.5 "instant" reaction on these frontiers.

use std::time::Instant;

use perseus_bench::{a100_workloads, a40_workloads};
use perseus_core::{insert_sleep, FrontierOptions, FrontierSolver, PlanContext};
use perseus_gpu::{GpuSpec, PowerStateModel};
use perseus_models::zoo;
use perseus_pipeline::OpKey;
use perseus_profiler::ProfileDb;
use perseus_server::{Deployment, JobSpec, PerseusServer};

use crate::check::{deployment_bytes, frontier_divergence, frontier_is_monotone, reaction};
use crate::energy::{add_deployment, allmax_schedule, EnergyTally};
use crate::report::{peak_rss_mib, Pass};
use crate::rng::{setup_seed, Stream};
use crate::shapes::{profile, Fallible, Shape};
use crate::stats::{median, slice_rate, tail};
use crate::steal::{Slice, Timings, Verdicts};
use crate::trace::Tracer;
use crate::workload::{ms, setup_clock, us, RunConfig};

/// Planning workers: one per core of the 2-vCPU reference machine.
const WORKERS: usize = 2;
/// Table-9 microbatch counts above this are capped, so the batch
/// makespan stays a batch measurement rather than one job's solve.
const A40_MICROBATCH_CAP: usize = 64;

/// Work per run.
#[derive(Debug, Clone)]
pub struct Size {
    /// Batches planned. Each has its own setup (timed for `setup_s`):
    /// fresh seeded inputs and a fresh server with the jobs registered.
    pub batches: usize,
    /// Straggler lookups after each batch.
    pub lookups_per_batch: usize,
}

impl Size {
    /// The work a run of about `seconds` measures on the reference machine.
    pub fn for_seconds(seconds: u64) -> Size {
        Size {
            batches: (seconds as usize / 3).max(3),
            lookups_per_batch: 400,
        }
    }
}

struct Job {
    name: String,
    shape: Shape,
    profiles: ProfileDb<OpKey>,
    power: Option<PowerStateModel>,
    sim_profile_s: f64,
}

impl Job {
    fn spec(&self) -> JobSpec {
        JobSpec {
            name: self.name.clone(),
            pipe: self.shape.pipe.clone(),
            gpu: self.shape.gpu.clone(),
            power_states: self.power.clone(),
        }
    }
}

/// The job set, longest characterization first as measured on the
/// reference machine, so the two workers' list schedule is close to
/// longest-processing-time-first and the batch makespan depends little
/// on which worker happens to free up first.
const ORDER: [&str; 11] = [
    "A40 Wide-ResNet 1.5B",
    "A40 Bloom 3B",
    "A40 GPT-3 2.7B",
    "A100 Bloom 3B",
    "A100 GPT-3 1.3B",
    "A40 T5 3B",
    "A40 GPT-3 6.7B",
    "A40 BERT 1.3B",
    "A100 T5 3B",
    "A100 BERT 1.3B",
    "A100 Wide-ResNet 1.5B",
];

fn setup(tracer: &Tracer, seed: u64) -> Fallible<(Vec<Job>, PerseusServer)> {
    let a100 = GpuSpec::a100_pcie();
    let a40 = GpuSpec::a40();
    let mut specs: Vec<(String, perseus_models::ModelSpec, GpuSpec, usize, usize)> = Vec::new();
    for w in a100_workloads() {
        let name = format!("A100 {}", w.name);
        specs.push((
            name,
            (w.model)(w.microbatch),
            a100.clone(),
            4,
            w.n_microbatches,
        ));
    }
    for w in a40_workloads() {
        let mb = w.n_microbatches.min(A40_MICROBATCH_CAP);
        specs.push((
            format!("A40 {}", w.name),
            (w.model)(w.microbatch),
            a40.clone(),
            8,
            mb,
        ));
    }
    specs.push(("A40 GPT-3 6.7B".into(), zoo::gpt3_6_7b(4), a40, 32, 16));
    let mut set = Vec::with_capacity(ORDER.len());
    for name in ORDER {
        let i = specs
            .iter()
            .position(|s| s.0 == name)
            .ok_or_else(|| format!("no workload {name}"))?;
        let (name, model, gpu, stages, mb) = specs.swap_remove(i);
        set.push((format!("{name} {stages}x{mb}"), model, gpu, stages, mb));
    }

    let mut noise = Stream::new(seed, "cold-plan/profiler-noise");
    let jobs = set
        .into_iter()
        .enumerate()
        .map(|(i, (label, model, gpu, stages, mb))| {
            let shape = Shape::build(tracer, label, &model, &gpu, stages, mb)?;
            let (profiles, sim_profile_s) =
                profile(tracer, &shape.gpu, &shape.stages, stages, &mut noise);
            Ok(Job {
                name: format!("job-{i:02}"),
                power: (i % 2 == 1).then(|| PowerStateModel::default_for(&gpu)),
                shape,
                profiles,
                sim_profile_s,
            })
        })
        .collect::<Fallible<Vec<Job>>>()?;
    let server = PerseusServer::with_workers(WORKERS);
    for job in &jobs {
        let _s = tracer.span("server.register_us");
        server.register_job(job.spec())?;
    }
    Ok((jobs, server))
}

/// Runs the workload once.
///
/// # Errors
///
/// Setup failures; failed operations are counted instead.
pub fn run(cfg: &RunConfig, size: &Size, tracer: &Tracer) -> Fallible<Pass> {
    let mut pass = Pass::default();
    let opts = FrontierOptions::default();
    let mut pick = Stream::new(cfg.seed, "cold-plan/lookups");
    // One slice per batch and its lookup sweep.
    let (mut walls, mut lookups) = (Timings::default(), Timings::default());
    let mut verdicts = Verdicts::default();
    let (mut deployments, mut bytes) = (0u64, 0u64);
    let mut setup_s = Vec::with_capacity(size.batches);
    let mut totals = Totals::default();
    type Planned = (Vec<Job>, PerseusServer, Vec<Option<Deployment>>, Vec<f64>);
    let mut last: Option<Planned> = None;

    let run_span = tracer.span("run");
    for b in 0..size.batches {
        drop(last.take());
        let t0 = setup_clock(cfg, b);
        let (jobs, server) = {
            let _s = tracer.root("setup", b);
            setup(tracer, setup_seed(cfg.seed, b))?
        };
        setup_s.push(t0.elapsed().as_secs_f64());
        let subs = jobs
            .iter()
            .map(|j| (j.name.clone(), j.profiles.clone(), opts.clone()))
            .collect();

        let slice = Slice::start();
        let batch = tracer.root("batch", b);
        let t0 = Instant::now();
        let tickets = {
            let _s = tracer.span("server.submit_us");
            server.submit_profiles_batch(subs)
        };
        let mut deps = Vec::with_capacity(jobs.len());
        let mut done = Vec::with_capacity(jobs.len());
        match tickets {
            Ok(tickets) => {
                for ticket in tickets {
                    let r = {
                        let _s = tracer.span("server.wait_ms");
                        ticket.wait()
                    };
                    done.push(t0.elapsed().as_secs_f64());
                    deps.push(pass.result(r, "characterize"));
                }
            }
            Err(e) => {
                for _ in &jobs {
                    pass.check(false, || format!("submit_profiles_batch: {e}"));
                    deps.push(None);
                }
            }
        }
        walls.push(t0.elapsed().as_secs_f64());
        drop(batch);

        for (job, dep) in jobs.iter().zip(&deps) {
            let Some(dep) = dep else { continue };
            deployments += 1;
            bytes += deployment_bytes(dep);
            let frontier = server.frontier(&job.name);
            let ok = frontier.as_ref().is_some_and(|f| {
                frontier_is_monotone(f)
                    && dep.t_prime.to_bits() == f.t_min().to_bits()
                    && dep.planned_time_s.to_bits() == f.fastest().planned_time_s.to_bits()
            });
            pass.check(ok, || {
                format!(
                    "{}: frontier not monotone or deployment not at t_min",
                    job.label()
                )
            });
        }

        account(&mut pass, &mut totals, &jobs, &server, &deps)?;

        let sweep = tracer.root("lookups", b);
        for _ in 0..size.lookups_per_batch {
            let j = pick.below(jobs.len());
            let degree = pick.range(1.0, 1.5);
            let t0 = Instant::now();
            let r = {
                let _s = tracer.span("server.straggler_us");
                server.set_straggler(&jobs[j].name, 0, 0.0, degree)
            };
            lookups.push(t0.elapsed().as_secs_f64());
            let t_min = server.frontier(&jobs[j].name).map(|f| f.t_min());
            if let Some(dep) = reaction(&mut pass, r, t_min, degree, &jobs[j].label()) {
                deployments += 1;
                bytes += deployment_bytes(&dep);
            }
        }
        drop(sweep);
        let clean = slice.clean();
        walls.close(clean);
        lookups.close(clean);
        verdicts.record(clean);
        last = Some((jobs, server, deps, done));
    }
    drop(run_span);

    let (jobs, server, _, done) = last.ok_or("no batch ran")?;
    let peak = peak_rss_mib();

    // One seed-chosen frontier of the last batch against a fresh solve.
    let j = Stream::new(cfg.seed, "cold-plan/fresh-check").below(jobs.len());
    let (job, served) = (&jobs[j], server.frontier(&jobs[j].name));
    drop(server);
    let ctx = PlanContext::new(&job.shape.pipe, &job.shape.gpu, job.profiles.clone())?;
    let fresh = FrontierSolver::new(&job.shape.pipe).characterize(&ctx, &opts)?;
    let diff = served.map(|f| frontier_divergence(&fresh, &f));
    pass.check(diff == Some(None), || {
        format!("{}: served frontier vs fresh solve: {diff:?}", job.label())
    });
    pass.check(totals.energy.is_valid(), || "no deployment to price".into());

    let plan_ms = if tracer.is_on() {
        probes(tracer, &jobs, &opts)?
    } else {
        Vec::new()
    };

    let n = jobs.len() as f64;
    pass.e2e.insert("setup_s", median(&setup_s).unwrap_or(0.0));
    let (walls, lookups) = (walls.kept(&verdicts), lookups.kept(&verdicts));
    if let Some(rate) = slice_rate(walls, 1, n) {
        pass.e2e.insert("ops_per_s", rate);
    }
    pass.e2e
        .insert("op_p50_ms", ms(median(walls).unwrap_or(0.0)));
    pass.e2e
        .insert("lookup_p50_us", us(median(lookups).unwrap_or(0.0)));
    pass.e2e
        .insert("energy_saved_pct", totals.energy.saved_pct());
    pass.e2e
        .insert("iter_time_pct", totals.energy.iter_time_pct());
    if let Some(peak) = peak {
        pass.e2e.insert("peak_rss_mb", peak);
    }

    let sim_mean = jobs.iter().map(|j| j.sim_profile_s).sum::<f64>() / n;
    pass.layer.insert("profiler.sim_clock_s", sim_mean);
    pass.layer
        .insert("core.frontier_points", totals.points as f64);
    pass.layer
        .insert("flow.augmenting_paths", totals.paths as f64);
    let searched = totals.paths + totals.saved;
    if searched > 0 {
        pass.layer.insert(
            "flow.paths_saved_ratio",
            totals.saved as f64 / searched as f64,
        );
    }
    pass.layer.insert("server.deployments", deployments as f64);
    pass.layer.insert("server.deploy_bytes", bytes as f64);

    pass.line(format!(
        "cold-plan: {} jobs x {} batches on {WORKERS} workers, no plan cache; {} lookups; {}",
        jobs.len(),
        size.batches,
        size.batches * size.lookups_per_batch,
        verdicts.describe()
    ));
    pass.line(format!(
        "  plan_wall_s = {:.4} s (median batch: submit_profiles_batch -> last deployment); \
         batches {:.3?} s",
        median(walls).unwrap_or(0.0),
        walls
    ));
    pass.line(format!(
        "  energy_saved_pct = {:.3} %, slowdown_pct = {:.4} % (every batch, no straggler, vs all-max)",
        totals.energy.saved_pct(),
        totals.energy.iter_time_pct() - 100.0
    ));
    pass.line("  §6.5 overhead per job (last batch):");
    let frontier_len = |job: &Job| -> usize {
        totals
            .last_points
            .iter()
            .find(|(n, _)| *n == job.name)
            .map_or(0, |(_, p)| *p)
    };
    pass.line(format!(
        "    {:<32} {:>12} {:>8} {:>12} {:>16}",
        "job", "profiling s", "points", "deployed s", "characterize ms"
    ));
    for (i, job) in jobs.iter().enumerate() {
        let pts = frontier_len(job);
        let plan = plan_ms
            .get(i)
            .map_or("-".to_string(), |m| format!("{m:.1}"));
        pass.line(format!(
            "    {:<32} {:>12.1} {:>8} {:>12.3} {:>16}",
            job.label(),
            job.sim_profile_s,
            pts,
            done.get(i).copied().unwrap_or(f64::NAN),
            plan
        ));
    }
    pass.line(format!(
        "  lookup (set_straggler, delay 0): p50 {:.2} us, p99 {} over {} lookups",
        us(median(lookups).unwrap_or(0.0)),
        tail(lookups, 0.99).map_or("refused".to_string(), |v| format!("{:.2} us", us(v))),
        lookups.len()
    ));
    Ok(pass)
}

/// Counts and prices summed over every batch.
#[derive(Default)]
struct Totals {
    energy: EnergyTally,
    points: u64,
    paths: u64,
    saved: u64,
    /// Frontier length of each job of the latest batch.
    last_points: Vec<(String, usize)>,
}

/// Prices one batch's deployments (no straggler, Kareus sleep included)
/// against all-max and counts its frontier points and solver work.
fn account(
    pass: &mut Pass,
    totals: &mut Totals,
    jobs: &[Job],
    server: &PerseusServer,
    deps: &[Option<Deployment>],
) -> Fallible<()> {
    totals.last_points.clear();
    for (job, dep) in jobs.iter().zip(deps) {
        if let Some(dep) = dep {
            let ctx = PlanContext::new(&job.shape.pipe, &job.shape.gpu, job.profiles.clone())?;
            let allmax = allmax_schedule(&ctx)?;
            add_deployment(
                &mut totals.energy,
                &ctx,
                &allmax,
                &dep.schedule,
                dep.sleep.as_ref(),
                None,
            );
        }
        let len = server.frontier(&job.name).map_or(0, |f| f.len());
        totals.points += len as u64;
        totals.last_points.push((job.name.clone(), len));
        if let Some(status) = pass.result(server.job_status(&job.name), "job_status") {
            totals.paths += status.solver.augmenting_paths;
            totals.saved += status.solver.augmenting_paths_saved;
        }
    }
    Ok(())
}

impl Job {
    fn label(&self) -> String {
        let kareus = if self.power.is_some() { " +sleep" } else { "" };
        format!("{}{kareus}", self.shape.label)
    }
}

/// The core layer called directly on each job's inputs, after the
/// measured section: context construction, a cold characterization, and
/// Kareus sleep insertion over every frontier point. Returns each job's
/// characterization time in milliseconds.
fn probes(tracer: &Tracer, jobs: &[Job], opts: &FrontierOptions) -> Fallible<Vec<f64>> {
    let mut plan_ms = Vec::with_capacity(jobs.len());
    for job in jobs {
        let _p = tracer.root("probe", &job.name);
        let profiles = job.profiles.clone();
        let ctx = {
            let _s = tracer.span("core.context_ms");
            PlanContext::new(&job.shape.pipe, &job.shape.gpu, profiles)?
        };
        let solver = FrontierSolver::new(&job.shape.pipe);
        let t0 = Instant::now();
        let frontier = {
            let _s = tracer.span("core.characterize_ms");
            solver.characterize(&ctx, opts)?
        };
        plan_ms.push(ms(t0.elapsed().as_secs_f64()));
        if let Some(model) = &job.power {
            let _s = tracer.span("core.sleep_ms");
            for point in frontier.points() {
                std::hint::black_box(insert_sleep(&ctx, &point.schedule, model));
            }
        }
    }
    Ok(plan_ms)
}
