//! The benchmark's own determinism: same seed, same counts; new seed, new
//! inputs.

use std::collections::BTreeMap;

use crate::report::{time_scale, unit_of, Pass};
use crate::rng::{setup_seed, Stream};
use crate::trace::Tracer;
use crate::workload::RunConfig;
use crate::{artifact_dir, cold_plan, durable_train, fleet_serve, shapes};

fn config(seed: u64, tag: &str) -> RunConfig {
    RunConfig {
        seed,
        work_dir: artifact_dir()
            .join("perfbench-tests")
            .join(format!("{tag}-{seed}-{}", std::process::id())),
        started: None,
    }
}

/// Everything a pass reports that must not depend on timing: every
/// workload-computed per-layer value that is not a time (counts, bytes,
/// ratios), the energy and iteration-time percentages, and the
/// operation count.
fn exact(p: &Pass) -> BTreeMap<String, u64> {
    let mut out: BTreeMap<String, u64> = p
        .layer
        .iter()
        .filter(|(k, _)| unit_of(k).and_then(time_scale).is_none())
        .map(|(k, v)| (k.to_string(), v.to_bits()))
        .collect();
    for k in ["energy_saved_pct", "iter_time_pct"] {
        out.insert(k.to_string(), p.e2e[k].to_bits());
    }
    out.insert("attempted".to_string(), p.attempted);
    out
}

fn check_workload(run: impl Fn(&RunConfig) -> Pass, tag: &str) {
    let a = run(&config(5, tag));
    let b = run(&config(5, tag));
    let c = run(&config(6, tag));
    for p in [&a, &b, &c] {
        assert_eq!(p.failed, 0, "{tag}: failed operations");
    }
    assert_eq!(exact(&a), exact(&b), "{tag}: same seed, different counts");
    assert_ne!(
        a.e2e["energy_saved_pct"].to_bits(),
        c.e2e["energy_saved_pct"].to_bits(),
        "{tag}: a new seed should plan different inputs"
    );
}

#[test]
fn cold_plan_counts_repeat() {
    let size = cold_plan::Size {
        batches: 1,
        lookups_per_batch: 20,
    };
    check_workload(
        |cfg| cold_plan::run(cfg, &size, &Tracer::off()).expect("cold-plan runs"),
        "cold-plan",
    );
}

#[test]
fn fleet_serve_counts_repeat() {
    let size = fleet_serve::Size {
        segments: 1,
        rounds: 80,
    };
    check_workload(
        |cfg| fleet_serve::run(cfg, &size, &Tracer::off()).expect("fleet-serve runs"),
        "fleet-serve",
    );
}

#[test]
fn durable_train_counts_repeat() {
    let size = durable_train::Size {
        setups: 1,
        iterations: 60,
    };
    check_workload(
        |cfg| {
            let pass = durable_train::run(cfg, &size, &Tracer::off()).expect("durable-train runs");
            let _ = std::fs::remove_dir_all(&cfg.work_dir);
            pass
        },
        "durable-train",
    );
}

#[test]
fn traced_and_untraced_passes_count_alike() {
    let size = durable_train::Size {
        setups: 1,
        iterations: 30,
    };
    let cfg = config(9, "traced");
    let plain = durable_train::run(&cfg, &size, &Tracer::off()).expect("untraced");
    let tracer = Tracer::on();
    let traced = durable_train::run(&cfg, &size, &tracer).expect("traced");
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    assert_eq!(exact(&plain), exact(&traced));
    let split = crate::trace::breakdown(&tracer.rows(), "run").expect("run span");
    assert_eq!(
        split.total(),
        split.wall,
        "self times add up to the traced wall"
    );
    for layer in ["cluster", "server", "telemetry", "replica", "store"] {
        assert!(split.layers.contains_key(layer), "no {layer} spans");
    }
}

#[test]
fn seeds_change_generated_profiles() {
    let gpu = perseus_gpu::GpuSpec::a100_pcie();
    let shape = shapes::Shape::build(
        &Tracer::off(),
        "t".into(),
        &perseus_models::zoo::bert_huge(8),
        &gpu,
        2,
        4,
    )
    .expect("shape");
    let draw = |seed| {
        let mut noise = Stream::new(setup_seed(seed, 0), "profiles");
        let (db, sim_s) = shapes::profile(&Tracer::off(), &gpu, &shape.stages, 2, &mut noise);
        let mut times: Vec<u64> = db
            .iter()
            .flat_map(|(_, p)| p.entries().iter().map(|e| e.time_s.to_bits()))
            .collect();
        times.sort_unstable();
        (times, sim_s.to_bits())
    };
    assert_eq!(draw(1), draw(1));
    assert_ne!(draw(1), draw(2));
}
