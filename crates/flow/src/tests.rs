use perseus_telemetry::Telemetry;

use crate::{FlowError, FlowGraph, MinCut, MinCutProblem, WarmStart};

/// Solves `p` through a fresh [`WarmStart`], which always misses and so
/// builds and solves cold.
fn solve_cold(p: &MinCutProblem, s: usize, t: usize) -> Result<MinCut, FlowError> {
    let mut sol = MinCut::default();
    let hit = p.solve_warm_into(
        s,
        t,
        &mut WarmStart::new(),
        None,
        &mut sol,
        &Telemetry::disabled(),
    )?;
    assert!(!hit, "a fresh handle never hits");
    Ok(sol)
}

/// The max-flow value a plain [`FlowGraph`] finds on `p`'s edges.
fn plain_value(p: &MinCutProblem, s: usize, t: usize) -> f64 {
    let mut g = FlowGraph::new(p.node_count());
    for e in p.edges() {
        g.add_edge(e.src, e.dst, e.cap);
    }
    g.max_flow(s, t)
}

#[test]
fn trivial_single_edge() {
    let mut g = FlowGraph::new(2);
    let e = g.add_edge(0, 1, 5.0);
    assert_eq!(g.max_flow(0, 1), 5.0);
    assert_eq!(g.flow_on(e), 5.0);
    assert_eq!(g.residual_reachable(0), vec![true, false]);
}

#[test]
fn classic_cormen_network() {
    // CLRS figure 26.1-style network, max flow 23.
    let mut g = FlowGraph::new(6);
    g.add_edge(0, 1, 16.0);
    g.add_edge(0, 2, 13.0);
    g.add_edge(1, 3, 12.0);
    g.add_edge(2, 1, 4.0);
    g.add_edge(2, 4, 14.0);
    g.add_edge(3, 2, 9.0);
    g.add_edge(3, 5, 20.0);
    g.add_edge(4, 3, 7.0);
    g.add_edge(4, 5, 4.0);
    assert_eq!(g.max_flow(0, 5), 23.0);
}

#[test]
fn disconnected_network_zero_flow() {
    let mut g = FlowGraph::new(4);
    g.add_edge(0, 1, 10.0);
    g.add_edge(2, 3, 10.0);
    assert_eq!(g.max_flow(0, 3), 0.0);
}

#[test]
fn min_cut_separates_terminals() {
    let mut g = FlowGraph::new(4);
    g.add_edge(0, 1, 1.0);
    g.add_edge(1, 2, 0.5);
    g.add_edge(2, 3, 1.0);
    let f = g.max_flow(0, 3);
    assert_eq!(f, 0.5);
    let side = g.residual_reachable(0);
    assert!(side[0] && side[1]);
    assert!(!side[2] && !side[3]);
}

#[test]
fn repeated_max_flow_is_idempotent() {
    let mut g = FlowGraph::new(3);
    g.add_edge(0, 1, 2.0);
    g.add_edge(1, 2, 3.0);
    assert_eq!(g.max_flow(0, 2), 2.0);
    assert_eq!(g.max_flow(0, 2), 0.0);
}

#[test]
fn fractional_capacities() {
    let mut g = FlowGraph::new(3);
    g.add_edge(0, 1, 0.125);
    g.add_edge(0, 1, 0.375);
    g.add_edge(1, 2, 10.0);
    assert!((g.max_flow(0, 2) - 0.5).abs() < 1e-12);
}

#[test]
#[should_panic(expected = "source and sink must differ")]
fn same_terminals_panic() {
    let mut g = FlowGraph::new(2);
    g.max_flow(1, 1);
}

#[test]
#[should_panic(expected = "capacities must be non-negative")]
fn negative_capacity_panics() {
    let mut g = FlowGraph::new(2);
    g.add_edge(0, 1, -1.0);
}

// ---- minimum cut ----

#[test]
fn bounded_no_lower_bounds_matches_plain() {
    let mut p = MinCutProblem::new(4);
    p.add_edge(0, 1, 3.0);
    p.add_edge(0, 2, 2.0);
    p.add_edge(1, 3, 2.0);
    p.add_edge(2, 3, 3.0);
    let sol = solve_cold(&p, 0, 3).unwrap();
    let mut g = FlowGraph::new(4);
    for e in p.edges() {
        g.add_edge(e.src, e.dst, e.cap);
    }
    assert_eq!(g.max_flow(0, 3), 4.0);
    assert_eq!(sol.source_side, g.residual_reachable(0));
    assert_eq!(p.cut_capacity(&sol.source_side), 4.0);
}

#[test]
fn bounded_invalid_bounds_detected() {
    let mut p = MinCutProblem::new(2);
    p.add_edge(0, 1, -1.0);
    assert!(matches!(
        solve_cold(&p, 0, 1),
        Err(FlowError::InvalidBounds { edge: 0 })
    ));
    let mut q = MinCutProblem::new(2);
    q.add_edge(0, 1, 1.0);
    q.add_edge(0, 1, f64::NAN);
    assert!(matches!(
        solve_cold(&q, 0, 1),
        Err(FlowError::InvalidBounds { edge: 1 })
    ));
}

#[test]
fn bounded_invalid_terminals() {
    let p = MinCutProblem::new(2);
    assert!(matches!(
        solve_cold(&p, 0, 0),
        Err(FlowError::InvalidTerminals)
    ));
    assert!(matches!(
        solve_cold(&p, 0, 9),
        Err(FlowError::InvalidTerminals)
    ));
}

#[test]
fn bounded_unbounded_edge_never_in_cut() {
    // Two parallel paths; one has an unbounded edge, so the min cut must
    // cross the other.
    let inf = MinCutProblem::unbounded();
    let mut p = MinCutProblem::new(4);
    p.add_edge(0, 1, inf);
    p.add_edge(1, 3, 4.0);
    p.add_edge(0, 2, 1.0);
    p.add_edge(2, 3, inf);
    let sol = solve_cold(&p, 0, 3).unwrap();
    assert_eq!(p.cut_capacity(&sol.source_side), 5.0);
    let mut fwd = Vec::new();
    sol.forward_cut_edges_into(&p, &mut fwd);
    assert_eq!(fwd, vec![1, 2]);
    for &e in &fwd {
        assert!(
            p.edges()[e].cap.is_finite(),
            "cut crossed an unbounded edge"
        );
    }
}

#[test]
fn bounded_backward_cut_edge_reported() {
    // The minimal cut {s, b} | {a, t} is crossed backward by a -> b, the
    // kind of edge `GetNextPareto` slows down:
    //
    //   s --1--> a --10--> t
    //   s --10-> b --1---> t
    //   a --4--> b
    //
    // a's only inflow is s -> a, so a -> b adds no flow; b stays reachable
    // through s -> b while a does not.
    let (s, a, b, t) = (0, 1, 2, 3);
    let mut p = MinCutProblem::new(4);
    let sa = p.add_edge(s, a, 1.0);
    p.add_edge(a, t, 10.0);
    p.add_edge(s, b, 10.0);
    let bt = p.add_edge(b, t, 1.0);
    let ab = p.add_edge(a, b, 4.0);
    let sol = solve_cold(&p, s, t).unwrap();
    assert_eq!(sol.source_side, vec![true, false, true, false]);
    assert_eq!(p.cut_capacity(&sol.source_side), plain_value(&p, s, t));
    // The buffers are caller scratch: stale contents are cleared.
    let (mut fwd, mut back) = (vec![42], vec![42]);
    sol.forward_cut_edges_into(&p, &mut fwd);
    sol.backward_cut_edges_into(&p, &mut back);
    assert_eq!(fwd, vec![sa, bt]);
    assert_eq!(back, vec![ab]);
}

#[test]
fn bounded_value_equals_cut_capacity() {
    let mut p = MinCutProblem::new(4);
    p.add_edge(0, 1, 3.0);
    p.add_edge(0, 2, 2.0);
    p.add_edge(1, 3, 2.0);
    p.add_edge(2, 3, 3.0);
    p.add_edge(1, 2, 1.0);
    let sol = solve_cold(&p, 0, 3).unwrap();
    let cut = p.cut_capacity(&sol.source_side);
    let value = plain_value(&p, 0, 3);
    assert!((value - cut).abs() < 1e-6, "value {value} != cut {cut}");
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    struct Net {
        n: usize,
        edges: Vec<(usize, usize, f64)>,
    }

    fn arb_net() -> impl Strategy<Value = Net> {
        (
            3usize..10,
            proptest::collection::vec((any::<u16>(), any::<u16>(), 0.1f64..8.0), 2..40),
        )
            .prop_map(|(n, raw)| {
                let edges = raw
                    .into_iter()
                    .map(|(a, b, c)| ((a as usize) % n, (b as usize) % n, c))
                    .filter(|(a, b, _)| a != b)
                    .collect();
                Net { n, edges }
            })
    }

    /// A layered DAG network: `s = 0`, then ranks of nodes, then `t`; every
    /// edge points to a later rank, so node order is topological. Each
    /// node has an edge from its rank's predecessor rank (or `s`), plus
    /// random forward edges.
    fn arb_layered() -> impl Strategy<Value = Net> {
        (
            1usize..5,
            1usize..4,
            proptest::collection::vec(0.1f64..8.0, 32..33),
            proptest::collection::vec((any::<u16>(), any::<u16>(), 0.1f64..8.0), 0..24),
        )
            .prop_map(|(layers, width, caps, extra)| {
                let n = layers * width + 2;
                let t = n - 1;
                let rank = |v: usize| {
                    if v == 0 {
                        0
                    } else if v == t {
                        layers + 1
                    } else {
                        1 + (v - 1) / width
                    }
                };
                let mut edges = Vec::new();
                for v in 1..n {
                    let u = if rank(v) == 1 {
                        0
                    } else if v == t {
                        t - 1
                    } else {
                        v - width
                    };
                    edges.push((u, v, caps[v % caps.len()]));
                }
                for (a, b, c) in extra {
                    let (u, v) = ((a as usize) % n, (b as usize) % n);
                    if rank(u) < rank(v) {
                        edges.push((u, v, c));
                    }
                }
                Net { n, edges }
            })
    }

    /// Makes `flow` feasible on a problem whose node order is topological:
    /// trim each node's out-flow to its in-flow in order, then its in-flow
    /// to its out-flow in reverse.
    fn trim_to_feasible(p: &MinCutProblem, s: usize, t: usize, flow: &mut [f64]) {
        let trim = |flow: &mut [f64], edges: &[usize], mut excess: f64| {
            for &e in edges {
                let cut = flow[e].min(excess.max(0.0));
                flow[e] -= cut;
                excess -= cut;
            }
        };
        let ends = |v: usize, out: bool| -> Vec<usize> {
            (0..p.edges().len())
                .filter(|&i| {
                    if out {
                        p.edges()[i].src == v
                    } else {
                        p.edges()[i].dst == v
                    }
                })
                .collect()
        };
        let sum = |flow: &[f64], edges: &[usize]| edges.iter().map(|&e| flow[e]).sum::<f64>();
        let inner: Vec<usize> = (0..p.node_count()).filter(|&v| v != s && v != t).collect();
        for &v in &inner {
            let (ins, outs) = (ends(v, false), ends(v, true));
            let excess = sum(flow, &outs) - sum(flow, &ins);
            trim(flow, &outs, excess);
        }
        for &v in inner.iter().rev() {
            let (ins, outs) = (ends(v, false), ends(v, true));
            let excess = sum(flow, &ins) - sum(flow, &outs);
            trim(flow, &ins, excess);
        }
    }

    proptest! {
        #[test]
        fn maxflow_equals_mincut(net in arb_net()) {
            let mut g = FlowGraph::new(net.n);
            for &(u, v, c) in &net.edges { g.add_edge(u, v, c); }
            let f = g.max_flow(0, net.n - 1);
            let side = g.residual_reachable(0);
            prop_assert!(side[0]);
            prop_assert!(!side[net.n - 1]);
            let cut: f64 = net
                .edges
                .iter()
                .filter(|&&(u, v, _)| side[u] && !side[v])
                .map(|&(_, _, c)| c)
                .sum();
            prop_assert!((f - cut).abs() < 1e-6, "flow {} cut {}", f, cut);
        }

        #[test]
        fn flow_conservation_holds(net in arb_net()) {
            let mut g = FlowGraph::new(net.n);
            let handles: Vec<usize> = net.edges.iter().map(|&(u, v, c)| g.add_edge(u, v, c)).collect();
            let _ = g.max_flow(0, net.n - 1);
            for v in 1..net.n - 1 {
                let mut imb = 0.0;
                for (i, &(u, w, _)) in net.edges.iter().enumerate() {
                    if w == v { imb += g.flow_on(handles[i]); }
                    if u == v { imb -= g.flow_on(handles[i]); }
                }
                prop_assert!(imb.abs() < 1e-6);
            }
        }

        #[test]
        fn flows_within_capacity(net in arb_net()) {
            let mut g = FlowGraph::new(net.n);
            let handles: Vec<usize> = net.edges.iter().map(|&(u, v, c)| g.add_edge(u, v, c)).collect();
            let _ = g.max_flow(0, net.n - 1);
            for (i, &(_, _, c)) in net.edges.iter().enumerate() {
                let f = g.flow_on(handles[i]);
                prop_assert!(f >= -1e-9 && f <= c + 1e-9);
            }
        }

        // After an arbitrary sequence of `retune_edge` calls (raises and
        // drops interleaved with re-solves), `max_flow_incremental_with`
        // agrees with a from-scratch `max_flow` on the final capacities —
        // min-cut side bit-equal, value within the solver's own tolerance
        // (different augmentation orders sum the same flow in different
        // f64 orders).
        #[test]
        fn incremental_retunes_match_scratch(
            net in arb_net(),
            retunes in proptest::collection::vec((any::<u16>(), 0.0f64..8.0, any::<bool>()), 1..30),
        ) {
            prop_assume!(!net.edges.is_empty());
            let (s, t) = (0, net.n - 1);
            let tel = Telemetry::disabled();
            let mut g = FlowGraph::new(net.n);
            let handles: Vec<usize> =
                net.edges.iter().map(|&(u, v, c)| g.add_edge(u, v, c)).collect();
            g.max_flow(s, t);

            let mut caps: Vec<f64> = net.edges.iter().map(|&(_, _, c)| c).collect();
            for &(which, new_cap, resolve) in &retunes {
                let e = (which as usize) % handles.len();
                caps[e] = new_cap;
                g.retune_edge(handles[e], new_cap);
                if resolve {
                    g.max_flow_incremental_with(s, t, &tel);
                }
            }
            g.max_flow_incremental_with(s, t, &tel);
            let warm_value = -g.imbalance(s);
            let warm_side = g.residual_reachable(s);

            let mut cold = FlowGraph::new(net.n);
            for (&(u, v, _), &c) in net.edges.iter().zip(&caps) {
                cold.add_edge(u, v, c);
            }
            let cold_value = cold.max_flow(s, t);
            let scale = cold_value.abs().max(1.0);
            prop_assert!(
                (warm_value - cold_value).abs() < 1e-9 * scale,
                "warm {} cold {}", warm_value, cold_value
            );
            prop_assert_eq!(warm_side, cold.residual_reachable(s));
            // The repaired flow is itself feasible and conserved.
            for v in 1..net.n - 1 {
                prop_assert!(g.imbalance(v).abs() < 1e-6 * scale);
            }
            for (&h, &c) in handles.iter().zip(&caps) {
                let f = g.flow_on(h);
                prop_assert!(f >= -1e-9 && f <= c + 1e-9 * scale.max(c));
            }
        }

        // Warm-started solves over a capacity-drift sequence stay
        // bit-identical to cold solves on the min-cut side.
        #[test]
        fn warm_bounded_sequence_matches_cold(
            net in arb_net(),
            scales in proptest::collection::vec(
                proptest::collection::vec(0.05f64..2.0, 1..8), 1..6),
        ) {
            prop_assume!(!net.edges.is_empty());
            let (s, t) = (0, net.n - 1);
            let mut warm = WarmStart::new();
            let mut sol = MinCut::default();
            let tel = Telemetry::disabled();
            for round in &scales {
                let mut p = MinCutProblem::new(net.n);
                for (i, &(u, v, c)) in net.edges.iter().enumerate() {
                    p.add_edge(u, v, c * round[i % round.len()]);
                }
                p.solve_warm_into(s, t, &mut warm, None, &mut sol, &tel).unwrap();
                let cold = solve_cold(&p, s, t).unwrap();
                prop_assert_eq!(&sol.source_side, &cold.source_side);
            }
            prop_assert_eq!(warm.hits + warm.misses, scales.len() as u64);
        }

        // A changed topology solved from a feasible flow carried over from
        // the previous network cuts exactly where a cold solve does.
        #[test]
        fn seeded_rebuild_matches_cold(
            net in arb_layered(),
            keep in proptest::collection::vec(0.0f64..1.0, 1..64),
            scale in proptest::collection::vec(0.05f64..2.0, 1..64),
            added in proptest::collection::vec((any::<u16>(), any::<u16>(), 0.1f64..8.0), 0..12),
        ) {
            let (s, t) = (0, net.n - 1);
            let tel = Telemetry::disabled();
            let mut first = MinCutProblem::new(net.n);
            for &(u, v, c) in &net.edges {
                first.add_edge(u, v, c);
            }
            let mut warm = WarmStart::new();
            let mut sol = MinCut::default();
            first.solve_warm_into(s, t, &mut warm, None, &mut sol, &tel).unwrap();

            // Drop edges, rescale the survivors (their old flow clipped to
            // the new capacity), add fresh edges carrying nothing.
            let mut next = MinCutProblem::new(net.n);
            let mut seed = Vec::new();
            for (i, &(u, v, c)) in net.edges.iter().enumerate() {
                if keep[i % keep.len()] < 0.8 {
                    let cap = c * scale[i % scale.len()];
                    next.add_edge(u, v, cap);
                    seed.push(warm.flow_on(i).clamp(0.0, cap));
                }
            }
            for &(a, b, c) in &added {
                let (u, v) = ((a as usize) % net.n, (b as usize) % net.n);
                if u < v {
                    next.add_edge(u, v, c);
                    seed.push(0.0);
                }
            }
            trim_to_feasible(&next, s, t, &mut seed);
            let hit = next
                .solve_warm_into(s, t, &mut warm, Some(&seed), &mut sol, &tel)
                .unwrap();
            prop_assert!(hit || warm.seeded == 1, "a changed topology must take the seed");
            if !hit {
                let cold = solve_cold(&next, s, t).unwrap();
                prop_assert_eq!(&sol.source_side, &cold.source_side);
                prop_assert_eq!(
                    next.cut_capacity(&sol.source_side).to_bits(),
                    next.cut_capacity(&cold.source_side).to_bits()
                );
            }
        }

        #[test]
        fn bounded_with_zero_lowers_matches_plain(net in arb_net()) {
            let (s, t) = (0, net.n - 1);
            let mut g = FlowGraph::new(net.n);
            for &(u, v, c) in &net.edges { g.add_edge(u, v, c); }
            let plain = g.max_flow(s, t);

            let mut p = MinCutProblem::new(net.n);
            for &(u, v, c) in &net.edges { p.add_edge(u, v, c); }
            let sol = solve_cold(&p, s, t).unwrap();
            prop_assert_eq!(&sol.source_side, &g.residual_reachable(s));
            prop_assert!((p.cut_capacity(&sol.source_side) - plain).abs() < 1e-6);
        }
    }
}

#[test]
fn dinic_handles_deep_serial_chains() {
    // Pipeline-shaped: a 5k-edge chain with a single bottleneck.
    let n = 5001;
    let mut g = FlowGraph::new(n);
    for i in 0..n - 1 {
        let cap = if i == 2500 { 1.5 } else { 10.0 };
        g.add_edge(i, i + 1, cap);
    }
    assert_eq!(g.max_flow(0, n - 1), 1.5);
    let side = g.residual_reachable(0);
    assert!(side[2500] && !side[2501], "cut must fall at the bottleneck");
}

#[test]
fn parallel_multi_edges_accumulate() {
    let mut g = FlowGraph::new(2);
    for _ in 0..50 {
        g.add_edge(0, 1, 0.1);
    }
    assert!((g.max_flow(0, 1) - 5.0).abs() < 1e-9);
}

// ---- incremental / warm-started solving ----

#[test]
fn retune_raise_then_incremental_finds_more_flow() {
    let mut g = FlowGraph::new(3);
    let a = g.add_edge(0, 1, 2.0);
    g.add_edge(1, 2, 10.0);
    assert_eq!(g.max_flow(0, 2), 2.0);
    g.retune_edge(a, 7.0);
    g.max_flow_incremental_with(0, 2, &Telemetry::disabled());
    assert_eq!(-g.imbalance(0), 7.0);
}

#[test]
fn retune_lower_drains_excess() {
    let mut g = FlowGraph::new(3);
    let a = g.add_edge(0, 1, 8.0);
    g.add_edge(1, 2, 10.0);
    assert_eq!(g.max_flow(0, 2), 8.0);
    g.retune_edge(a, 3.0);
    g.max_flow_incremental_with(0, 2, &Telemetry::disabled());
    assert_eq!(-g.imbalance(0), 3.0);
    assert!((g.flow_on(a) - 3.0).abs() < 1e-9);
    // Conservation held through the drain.
    assert!(g.imbalance(1).abs() < 1e-9);
}

#[test]
fn retune_lower_reroutes_through_parallel_path() {
    // Two disjoint paths; shrinking one forces the flow onto the other.
    let mut g = FlowGraph::new(4);
    let a = g.add_edge(0, 1, 5.0);
    g.add_edge(1, 3, 5.0);
    g.add_edge(0, 2, 5.0);
    g.add_edge(2, 3, 5.0);
    assert_eq!(g.max_flow(0, 3), 10.0);
    g.retune_edge(a, 1.0);
    g.max_flow_incremental_with(0, 3, &Telemetry::disabled());
    assert_eq!(-g.imbalance(0), 6.0);
    for v in 1..3 {
        assert!(g.imbalance(v).abs() < 1e-9, "imbalance at {v}");
    }
}

#[test]
fn retune_to_zero_kills_path() {
    let mut g = FlowGraph::new(3);
    let a = g.add_edge(0, 1, 4.0);
    g.add_edge(1, 2, 4.0);
    assert_eq!(g.max_flow(0, 2), 4.0);
    g.retune_edge(a, 0.0);
    g.max_flow_incremental_with(0, 2, &Telemetry::disabled());
    assert_eq!(-g.imbalance(0), 0.0);
}

#[test]
fn incremental_matches_scratch_min_cut() {
    let mut g = FlowGraph::new(6);
    let caps = [16.0, 13.0, 12.0, 4.0, 14.0, 9.0, 20.0, 7.0, 4.0];
    let ends = [
        (0, 1),
        (0, 2),
        (1, 3),
        (2, 1),
        (2, 4),
        (3, 2),
        (3, 5),
        (4, 3),
        (4, 5),
    ];
    let handles: Vec<usize> = ends
        .iter()
        .zip(&caps)
        .map(|(&(u, v), &c)| g.add_edge(u, v, c))
        .collect();
    g.max_flow(0, 5);
    // Perturb a few capacities, then compare against a cold build.
    let new_caps = [16.0, 6.0, 12.0, 4.0, 14.0, 9.0, 8.0, 7.0, 11.0];
    for (&h, &c) in handles.iter().zip(&new_caps) {
        g.retune_edge(h, c);
    }
    g.max_flow_incremental_with(0, 5, &Telemetry::disabled());
    let warm_value = -g.imbalance(0);
    let warm_side = g.residual_reachable(0);

    let mut cold = FlowGraph::new(6);
    for (&(u, v), &c) in ends.iter().zip(&new_caps) {
        cold.add_edge(u, v, c);
    }
    let cold_value = cold.max_flow(0, 5);
    assert!((warm_value - cold_value).abs() < 1e-9);
    assert_eq!(warm_side, cold.residual_reachable(0));
}

#[test]
fn warm_solve_hit_matches_cold_solution() {
    let build = |caps: &[f64]| {
        let mut p = MinCutProblem::new(4);
        p.add_edge(0, 1, caps[0]);
        p.add_edge(0, 2, caps[1]);
        p.add_edge(1, 3, caps[2]);
        p.add_edge(2, 3, caps[3]);
        p.add_edge(1, 2, caps[4]);
        p
    };
    let tel = Telemetry::disabled();
    let mut warm = WarmStart::new();
    let mut sol = MinCut::default();
    let first = build(&[3.0, 2.0, 2.0, 3.0, 1.0]);
    let hit = first
        .solve_warm_into(0, 3, &mut warm, None, &mut sol, &tel)
        .unwrap();
    assert!(!hit, "first solve must be cold");

    let second = build(&[3.0, 0.5, 2.0, 3.0, 1.0]);
    let hit = second
        .solve_warm_into(0, 3, &mut warm, None, &mut sol, &tel)
        .unwrap();
    assert!(hit, "same topology must reuse the cached graph");
    assert_eq!(warm.hits, 1);
    assert_eq!(warm.misses, 1);

    let cold = solve_cold(&second, 0, 3).unwrap();
    assert_eq!(sol.source_side, cold.source_side);
    assert_eq!(
        second.cut_capacity(&sol.source_side),
        plain_value(&second, 0, 3)
    );
}

#[test]
fn warm_solve_topology_change_is_a_miss() {
    let tel = Telemetry::disabled();
    let mut warm = WarmStart::new();
    let mut sol = MinCut::default();
    let mut p = MinCutProblem::new(3);
    p.add_edge(0, 1, 2.0);
    p.add_edge(1, 2, 2.0);
    p.solve_warm_into(0, 2, &mut warm, None, &mut sol, &tel)
        .unwrap();
    let mut q = MinCutProblem::new(3);
    q.add_edge(0, 1, 2.0);
    q.add_edge(0, 2, 2.0); // different endpoint
    let hit = q
        .solve_warm_into(0, 2, &mut warm, None, &mut sol, &tel)
        .unwrap();
    assert!(!hit);
    assert_eq!(warm.misses, 2);
}

#[test]
fn problem_reset_reuses_allocation() {
    let mut p = MinCutProblem::new(3);
    p.add_edge(0, 1, 2.0);
    p.add_edge(1, 2, 2.0);
    let sol = solve_cold(&p, 0, 2).unwrap();
    assert_eq!(p.cut_capacity(&sol.source_side), 2.0);
    p.reset(2);
    p.add_edge(0, 1, 7.0);
    assert_eq!(p.node_count(), 2);
    let sol = solve_cold(&p, 0, 1).unwrap();
    assert_eq!(p.cut_capacity(&sol.source_side), 7.0);
}

#[test]
fn bounded_zero_capacity_edges_are_legal() {
    let mut p = MinCutProblem::new(3);
    p.add_edge(0, 1, 0.0);
    p.add_edge(1, 2, 5.0);
    let sol = solve_cold(&p, 0, 2).unwrap();
    assert_eq!(sol.source_side, vec![true, false, false]);
    assert_eq!(p.cut_capacity(&sol.source_side), 0.0);
}
