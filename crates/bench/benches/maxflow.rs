//! Criterion bench: the max-flow substrate on pipeline-shaped layered
//! networks (the §4.3 inner loop). Checks that Dinic stays fast as the
//! DAG grows with stages × microbatches.

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

fn bench_maxflow(c: &mut Criterion) {
    let mut group = c.benchmark_group("maxflow");
    for (layers, width) in [(16, 4), (64, 8), (256, 8), (256, 16)] {
        let (n, t, edges) = layered(layers, width);
        group.bench_with_input(
            BenchmarkId::new("dinic", format!("{layers}x{width}")),
            &edges,
            |b, edges| {
                b.iter(|| {
                    let mut g = FlowGraph::new(n);
                    for &(u, v, cap) in edges {
                        g.add_edge(u, v, cap);
                    }
                    g.max_flow(0, t)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("mincut", format!("{layers}x{width}")),
            &edges,
            |b, edges| {
                b.iter(|| {
                    // A fresh handle misses: the cold build-and-solve.
                    let mut p = MinCutProblem::new(n);
                    for &(u, v, cap) in edges {
                        p.add_edge(u, v, cap);
                    }
                    let mut cut = MinCut::default();
                    p.solve_warm_into(
                        0,
                        t,
                        &mut WarmStart::new(),
                        &mut cut,
                        &Telemetry::disabled(),
                    )
                    .expect("valid network");
                    cut
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_maxflow);
criterion_main!(benches);
