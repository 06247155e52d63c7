//! `fleet-serve`: cached admissions, straggler reactions and status reads
//! against a sharded fleet.
//!
//! Setup warms the fleet's plan cache with 27 structures (GPT-3 1.3B,
//! Bloom 3B and BERT 1.3B on A100 at 2/4/8 stages × 4/8/16
//! microbatches), each profiled once. One client thread then repeats a
//! fixed mix in a closed loop: admit a new job of a seeded structure
//! (`register_job`, `submit_profiles`, `wait`: a fingerprint hit that
//! skips the solver), send 4 straggler notifications with delay 0 to
//! seeded admitted jobs, and read 10 job statuses. Jobs belong to 10
//! tenants; quotas are off.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use perseus_core::{
    plan_fingerprint, EnergySchedule, FrontierOptions, ParetoFrontier, PlanContext,
};
use perseus_gpu::GpuSpec;
use perseus_models::zoo;
use perseus_pipeline::OpKey;
use perseus_profiler::ProfileDb;
use perseus_server::{Deployment, FleetConfig, FleetServer, JobSpec, TenantId};

use crate::check::{deployment_bytes, frontier_divergence, reaction};
use crate::energy::{add_deployment, allmax_schedule, EnergyTally};
use crate::report::{peak_rss_mib, Pass};
use crate::rng::{setup_seed, Stream};
use crate::shapes::{profile, Fallible, Shape};
use crate::stats::{median, slice_rate, tail};
use crate::steal::{Slice, Timings, Verdicts};
use crate::trace::Tracer;
use crate::workload::{ms, setup_clock, us, RunConfig};

const SHARDS: usize = 2;
const TENANTS: usize = 10;
const REACTIONS_PER_ROUND: usize = 4;
const READS_PER_ROUND: usize = 10;
/// Operations in one round of the mix: an admission, the reactions, the
/// reads.
const OPS_PER_ROUND: usize = 1 + REACTIONS_PER_ROUND + READS_PER_ROUND;
/// Admissions, and separately reactions, whose deployments are priced
/// against all-max: the first of each in the run.
const PRICED_PER_KIND: usize = 256;
/// Rounds per slice of `ops_per_s`.
const ROUNDS_PER_SLICE: usize = 250;

/// Work per run.
#[derive(Debug, Clone)]
pub struct Size {
    /// Fresh fleets, each set up (timed for `setup_s`) and then driven
    /// through `rounds` rounds. Every round leaves a job behind (the
    /// server has no job removal), so a run's job count is bounded per
    /// fleet rather than by wall time.
    pub segments: usize,
    /// Rounds of the mix per fleet, one new job each.
    pub rounds: usize,
}

impl Size {
    /// The work a run of about `seconds` measures on the reference machine.
    pub fn for_seconds(seconds: u64) -> Size {
        Size {
            segments: (seconds as usize * 4 / 5).max(2),
            rounds: 3000,
        }
    }
}

struct Structure {
    shape: Shape,
    profiles: ProfileDb<OpKey>,
    /// The frontier the warm-up solve deployed; every hit must match it.
    warm: Arc<ParetoFrontier>,
}

fn setup(
    tracer: &Tracer,
    seed: u64,
    opts: &FrontierOptions,
) -> Fallible<(FleetServer, Vec<Structure>)> {
    let fleet = FleetServer::new(FleetConfig::default().shards(SHARDS).workers_per_shard(1));
    let gpu = GpuSpec::a100_pcie();
    let models = [
        ("GPT-3 1.3B", zoo::gpt3_xl(4)),
        ("Bloom 3B", zoo::bloom_3b(4)),
        ("BERT 1.3B", zoo::bert_huge(8)),
    ];
    let mut noise = Stream::new(seed, "fleet-serve/profiler-noise");
    let warm_tenant = TenantId("warm-up".into());
    let mut structures = Vec::new();
    for (model_name, model) in &models {
        for stages in [2, 4, 8] {
            for mb in [4, 8, 16] {
                let label = format!("{model_name} {stages}x{mb}");
                let shape = Shape::build(tracer, label, model, &gpu, stages, mb)?;
                let (profiles, _) = profile(tracer, &gpu, &shape.stages, stages, &mut noise);
                let name = format!("warm-{:02}", structures.len());
                {
                    let _s = tracer.span("server.register_us");
                    fleet.register_job(JobSpec {
                        name: name.clone(),
                        pipe: shape.pipe.clone(),
                        gpu: gpu.clone(),
                        power_states: None,
                    })?;
                }
                let ticket = {
                    let _s = tracer.span("server.submit_us");
                    fleet.submit_profiles(&warm_tenant, &name, profiles.clone(), opts)?
                };
                {
                    let _s = tracer.span("server.wait_ms");
                    ticket.wait()?;
                }
                let warm = fleet
                    .shard(fleet.shard_of(&name))
                    .frontier(&name)
                    .ok_or("warm-up job has no frontier")?;
                structures.push(Structure {
                    shape,
                    profiles,
                    warm,
                });
            }
        }
    }
    Ok((fleet, structures))
}

/// Everything the rounds of every segment measured.
#[derive(Default)]
struct Tally {
    admit: Timings,
    react: Timings,
    /// Wall time of every round, in order.
    round_s: Timings,
    /// One slice per fleet's rounds.
    verdicts: Verdicts,
    rounds: usize,
    deployments: u64,
    bytes: u64,
    paths: u64,
    hits: u64,
    misses: u64,
    entries: usize,
    energy: EnergyTally,
    priced_admissions: usize,
    priced_reactions: usize,
    /// Structure of every admission, for the fingerprint probe.
    admitted_structures: Vec<usize>,
}

struct Admitted {
    name: String,
    structure: usize,
    tenant: TenantId,
}

/// Runs the workload once.
///
/// # Errors
///
/// Setup failures; failed operations are counted instead.
pub fn run(cfg: &RunConfig, size: &Size, tracer: &Tracer) -> Fallible<Pass> {
    let mut pass = Pass::default();
    let opts = FrontierOptions::default();
    let mut pick = Stream::new(cfg.seed, "fleet-serve/mix");
    let mut t = Tally::default();
    let mut setup_s = Vec::with_capacity(size.segments);
    let mut structures = Vec::new();

    let run_span = tracer.span("run");
    for seg in 0..size.segments {
        drop(std::mem::take(&mut structures));
        let t0 = setup_clock(cfg, seg);
        let (fleet, built) = {
            let _s = tracer.root("setup", seg);
            setup(tracer, setup_seed(cfg.seed, seg), &opts)?
        };
        setup_s.push(t0.elapsed().as_secs_f64());
        structures = built;
        segment(
            &mut pass,
            &mut t,
            tracer,
            &fleet,
            &structures,
            &opts,
            &mut pick,
            size.rounds,
        )?;
    }
    drop(run_span);
    let peak = peak_rss_mib();
    pass.check(t.energy.is_valid(), || "no reaction to price".into());

    if tracer.is_on() {
        for &s in &t.admitted_structures {
            let st = &structures[s];
            let _s = tracer.span("core.fingerprint_us");
            std::hint::black_box(plan_fingerprint(
                "perseus",
                &st.shape.pipe,
                &st.shape.gpu,
                &st.profiles,
                &opts,
            ));
        }
    }

    let (admit, react) = (t.admit.kept(&t.verdicts), t.react.kept(&t.verdicts));
    let round_s = t.round_s.kept(&t.verdicts);
    let ops_per_s = slice_rate(round_s, ROUNDS_PER_SLICE, OPS_PER_ROUND as f64);
    pass.e2e.insert("setup_s", median(&setup_s).unwrap_or(0.0));
    if let Some(rate) = ops_per_s {
        pass.e2e.insert("ops_per_s", rate);
    }
    pass.e2e
        .insert("op_p50_ms", ms(median(admit).unwrap_or(0.0)));
    pass.e2e
        .insert("lookup_p50_us", us(median(react).unwrap_or(0.0)));
    pass.e2e.insert("energy_saved_pct", t.energy.saved_pct());
    pass.e2e.insert("iter_time_pct", t.energy.iter_time_pct());
    if let Some(peak) = peak {
        pass.e2e.insert("peak_rss_mb", peak);
    }

    let lookups = t.hits + t.misses;
    if lookups > 0 {
        pass.layer
            .insert("core.cache_hit_ratio", t.hits as f64 / lookups as f64);
    }
    pass.layer.insert("core.cache_hits", t.hits as f64);
    pass.layer.insert("core.cache_misses", t.misses as f64);
    pass.layer.insert("core.cache_entries", t.entries as f64);
    pass.layer.insert("flow.augmenting_paths", t.paths as f64);
    pass.layer
        .insert("server.deployments", t.deployments as f64);
    pass.layer.insert("server.deploy_bytes", t.bytes as f64);

    let fmt_tail =
        |xs: &[f64]| tail(xs, 0.99).map_or("refused".to_string(), |v| format!("{:.2} us", us(v)));
    pass.line(format!(
        "fleet-serve: {} fleets x {} rounds of 1 admission + {REACTIONS_PER_ROUND} reactions + \
         {READS_PER_ROUND} reads; {SHARDS} shards x 1 worker, {} structures, {TENANTS} tenants",
        size.segments,
        size.rounds,
        structures.len()
    ));
    pass.line(format!(
        "  admit_p50_us = {:.2}, admit_p99_us = {} over {} cached admissions",
        us(median(admit).unwrap_or(0.0)),
        fmt_tail(admit),
        admit.len()
    ));
    pass.line(format!(
        "  react_p50_us = {:.2}, react_p99_us = {} over {} reactions",
        us(median(react).unwrap_or(0.0)),
        fmt_tail(react),
        react.len()
    ));
    pass.line(format!(
        "  ops_per_s = {:.1} (median over slices of {ROUNDS_PER_SLICE} rounds); {:.3} s of rounds; {}",
        ops_per_s.unwrap_or(0.0),
        round_s.iter().sum::<f64>(),
        t.verdicts.describe()
    ));
    pass.line(format!(
        "  plan cache: {} hits / {lookups} lookups ({} misses), {} entries per fleet",
        t.hits, t.misses, t.entries
    ));
    pass.line(format!(
        "  energy_saved_pct = {:.3} %, slowdown_pct = {:.4} % (first {} admissions and {} \
         reactions, vs all-max at the same iteration time)",
        t.energy.saved_pct(),
        t.energy.iter_time_pct() - 100.0,
        t.priced_admissions,
        t.priced_reactions
    ));
    Ok(pass)
}

/// Drives `rounds` rounds of the mix through one warmed fleet, then
/// checks what it served.
#[allow(clippy::too_many_arguments)]
fn segment(
    pass: &mut Pass,
    t: &mut Tally,
    tracer: &Tracer,
    fleet: &FleetServer,
    structures: &[Structure],
    opts: &FrontierOptions,
    pick: &mut Stream,
    rounds: usize,
) -> Fallible<()> {
    let mut admitted: Vec<Admitted> = Vec::with_capacity(rounds);
    let slice = Slice::start();
    // (structure, deployment, straggler T' if any) to price after the loop.
    let mut priced: Vec<(usize, Deployment, Option<f64>)> = Vec::new();
    for _ in 0..rounds {
        let s = pick.below(structures.len());
        let tenant = TenantId(format!("tenant-{}", pick.below(TENANTS)));
        let name = format!("job-{:06}", t.rounds);
        t.rounds += 1;
        let st = &structures[s];
        let round_start = Instant::now();
        let _round = tracer.root("round", &name);

        {
            let _admission = tracer.span("admission");
            let spec = JobSpec {
                name: name.clone(),
                pipe: st.shape.pipe.clone(),
                gpu: st.shape.gpu.clone(),
                power_states: None,
            };
            let reg = {
                let _s = tracer.span("server.register_us");
                fleet.register_job(spec)
            };
            if pass.result(reg, "register_job").is_some() {
                let profiles = st.profiles.clone();
                let t0 = Instant::now();
                let ticket = {
                    let _s = tracer.span("server.submit_us");
                    fleet.submit_profiles(&tenant, &name, profiles, opts)
                };
                let dep = ticket.and_then(|ticket| {
                    let _s = tracer.span("server.wait_ms");
                    ticket.wait()
                });
                t.admit.push(t0.elapsed().as_secs_f64());
                if let Some(dep) = pass.result(dep, "admission") {
                    t.deployments += 1;
                    t.bytes += deployment_bytes(&dep);
                    pass.check(dep.t_prime.to_bits() == st.warm.t_min().to_bits(), || {
                        format!("{name}: admission not deployed at t_min")
                    });
                    admitted.push(Admitted {
                        name: name.clone(),
                        structure: s,
                        tenant,
                    });
                    if t.priced_admissions < PRICED_PER_KIND {
                        t.priced_admissions += 1;
                        priced.push((s, dep, None));
                    }
                }
            }
        }
        if admitted.is_empty() {
            t.round_s.push(round_start.elapsed().as_secs_f64());
            continue;
        }

        for _ in 0..REACTIONS_PER_ROUND {
            let target = &admitted[pick.below(admitted.len())];
            let degree = pick.range(1.0, 1.5);
            let t0 = Instant::now();
            let r = {
                let _s = tracer.span("server.straggler_us");
                fleet.set_straggler(&target.name, 0, 0.0, degree)
            };
            t.react.push(t0.elapsed().as_secs_f64());
            let t_min = Some(structures[target.structure].warm.t_min());
            if let Some(dep) = reaction(pass, r, t_min, degree, &target.name) {
                t.deployments += 1;
                t.bytes += deployment_bytes(&dep);
                if t.priced_reactions < PRICED_PER_KIND {
                    t.priced_reactions += 1;
                    let t_prime = dep.t_prime;
                    priced.push((target.structure, dep, Some(t_prime)));
                }
            }
        }

        for _ in 0..READS_PER_ROUND {
            let target = &admitted[pick.below(admitted.len())];
            let r = {
                let _s = tracer.span("server.status_us");
                fleet.job_status(&target.tenant, &target.name)
            };
            if let Some(status) = pass.result(r, "job_status") {
                pass.check(status.deployment.is_some(), || {
                    format!("{}: status without a deployment", target.name)
                });
            }
        }
        t.round_s.push(round_start.elapsed().as_secs_f64());
    }
    let clean = slice.clean();
    t.admit.close(clean);
    t.react.close(clean);
    t.round_s.close(clean);
    t.verdicts.record(clean);

    // Every admission was a cache hit serving its structure's warm-up
    // frontier, bit for bit.
    for a in &admitted {
        let shard = fleet.shard(fleet.shard_of(&a.name));
        let warm = &structures[a.structure].warm;
        let same = shard
            .frontier(&a.name)
            .is_some_and(|f| Arc::ptr_eq(&f, warm) || frontier_divergence(&f, warm).is_none());
        let hit = shard.job_status(&a.name).is_ok_and(|st| {
            t.paths += st.solver.augmenting_paths;
            st.solver.cache_hits == 1 && st.solver.cache_misses == 0
        });
        pass.check(same && hit, || {
            format!("{}: not a cache hit on its warm-up frontier", a.name)
        });
        t.admitted_structures.push(a.structure);
    }
    let stats = fleet.stats();
    pass.check(
        stats.submitted
            == stats.admitted
                + stats.rejected_quota
                + stats.rejected_overloaded
                + stats.rejected_other,
        || format!("fleet accounting broken: {stats:?}"),
    );
    let cache = fleet.plan_cache().stats();
    t.hits += cache.hits;
    t.misses += cache.misses;
    t.entries = fleet.plan_cache().fingerprints().len();

    // Deployments priced against all-max at the same iteration time: an
    // admission's at no straggler, a reaction's at the straggler's T'.
    let mut contexts: HashMap<usize, (PlanContext<'_>, EnergySchedule)> = HashMap::new();
    for (s, dep, t_prime) in &priced {
        let st = &structures[*s];
        if !contexts.contains_key(s) {
            let ctx = PlanContext::new(&st.shape.pipe, &st.shape.gpu, st.profiles.clone())?;
            let allmax = allmax_schedule(&ctx)?;
            contexts.insert(*s, (ctx, allmax));
        }
        let (ctx, allmax) = &contexts[s];
        add_deployment(
            &mut t.energy,
            ctx,
            allmax,
            &dep.schedule,
            dep.sleep.as_ref(),
            *t_prime,
        );
    }
    Ok(())
}
