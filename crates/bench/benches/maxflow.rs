//! Criterion bench: the max-flow substrate on pipeline-shaped layered
//! networks (the §4.3 inner loop). Checks that Dinic stays fast as the
//! DAG grows with stages × microbatches, and times each way the
//! Phillips–Dessouky loop solves a min cut: cold, retuned (same topology,
//! new capacities) and seeded (a changed topology rebuilt carrying the
//! previous flow).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use perseus_flow::{FlowGraph, MinCut, MinCutProblem, WarmStart};
use perseus_telemetry::Telemetry;

/// A layered network shaped like a pipeline critical DAG: `layers` ranks of
/// `width` nodes with staggered forward edges.
fn layered(layers: usize, width: usize) -> (usize, usize, Vec<(usize, usize, f64)>) {
    let n = layers * width + 2;
    let (s, t) = (0, n - 1);
    let id = |l: usize, w: usize| 1 + l * width + w;
    let mut edges = Vec::new();
    for w in 0..width {
        edges.push((s, id(0, w), 1.0 + w as f64));
        edges.push((id(layers - 1, w), t, 1.5 + w as f64));
    }
    for l in 0..layers - 1 {
        for w in 0..width {
            edges.push((id(l, w), id(l + 1, w), 0.5 + ((l + w) % 7) as f64));
            edges.push((
                id(l, w),
                id(l + 1, (w + 1) % width),
                0.25 + ((l * w) % 5) as f64,
            ));
        }
    }
    (n, t, edges)
}

/// `edges` after a critical-topology change: every capacity raised by up
/// to half, plus one new skip edge per rank. Raising capacities and adding
/// edges keeps a flow of `edges` feasible here, so it seeds the rebuild
/// as is (new edges carry nothing).
fn changed(layers: usize, width: usize, edges: &[(usize, usize, f64)]) -> Vec<(usize, usize, f64)> {
    let id = |l: usize, w: usize| 1 + l * width + w;
    let mut out: Vec<_> = edges
        .iter()
        .enumerate()
        .map(|(i, &(u, v, cap))| (u, v, cap * (1.0 + (i % 3) as f64 / 4.0)))
        .collect();
    for l in 0..layers.saturating_sub(2) {
        out.push((id(l, l % width), id(l + 2, (l + 1) % width), 0.75));
    }
    out
}

fn problem(n: usize, edges: &[(usize, usize, f64)]) -> MinCutProblem {
    let mut p = MinCutProblem::new(n);
    for &(u, v, cap) in edges {
        p.add_edge(u, v, cap);
    }
    p
}

fn bench_maxflow(c: &mut Criterion) {
    let mut group = c.benchmark_group("maxflow");
    let tel = Telemetry::disabled();
    for (layers, width) in [(16, 4), (64, 8), (256, 8), (256, 16)] {
        let (n, t, edges) = layered(layers, width);
        let size = format!("{layers}x{width}");
        group.bench_with_input(BenchmarkId::new("dinic", &size), &edges, |b, edges| {
            b.iter(|| {
                let mut g = FlowGraph::new(n);
                for &(u, v, cap) in edges {
                    g.add_edge(u, v, cap);
                }
                g.max_flow(0, t)
            })
        });
        // A fresh handle misses and nothing seeds it: the cold
        // build-and-solve, on the network before and after the change.
        let next = problem(n, &changed(layers, width, &edges));
        for (name, p) in [
            ("mincut", problem(n, &edges)),
            ("mincut_changed", next.clone()),
        ] {
            group.bench_with_input(BenchmarkId::new(name, &size), &p, |b, p| {
                b.iter(|| {
                    let mut cut = MinCut::default();
                    p.solve_warm_into(0, t, &mut WarmStart::new(), None, &mut cut, &tel)
                        .expect("valid network");
                    cut
                })
            });
        }
        // Retuned: alternate two capacity sets of one topology a few
        // percent apart (consecutive steps' capacities drift, they do not
        // jump), so every timed solve re-augments from the other's flow.
        let drifted = problem(
            n,
            &edges
                .iter()
                .enumerate()
                .map(|(i, &(u, v, cap))| (u, v, cap * (0.98 + (i % 5) as f64 / 100.0)))
                .collect::<Vec<_>>(),
        );
        let pair = [problem(n, &edges), drifted];
        let mut warm = WarmStart::new();
        let mut cut = MinCut::default();
        group.bench_function(BenchmarkId::new("retuned", &size), |b| {
            let mut k = 0;
            b.iter(|| {
                k ^= 1;
                pair[k]
                    .solve_warm_into(0, t, &mut warm, None, &mut cut, &tel)
                    .expect("valid network")
            })
        });
        // Seeded: the changed network rebuilt carrying the first
        // network's maximum flow.
        let mut solved = WarmStart::new();
        pair[0]
            .solve_warm_into(0, t, &mut solved, None, &mut cut, &tel)
            .expect("valid network");
        let seed: Vec<f64> = (0..next.edges().len())
            .map(|e| {
                if e < edges.len() {
                    solved.flow_on(e)
                } else {
                    0.0
                }
            })
            .collect();
        group.bench_with_input(BenchmarkId::new("seeded", &size), &next, |b, p| {
            b.iter(|| {
                let mut cut = MinCut::default();
                p.solve_warm_into(0, t, &mut WarmStart::new(), Some(&seed), &mut cut, &tel)
                    .expect("valid network");
                cut
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_maxflow);
criterion_main!(benches);
