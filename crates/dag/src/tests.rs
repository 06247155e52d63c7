use crate::{Dag, DagError, NodeId, TimingAnalysis};

fn diamond() -> (Dag<&'static str, f64>, [NodeId; 4]) {
    // s -> a (2.0) -> t (1.0)
    // s -> b (1.0) -> t (1.0)
    let mut g = Dag::new();
    let s = g.add_node("s");
    let a = g.add_node("a");
    let b = g.add_node("b");
    let t = g.add_node("t");
    g.add_edge(s, a, 2.0).unwrap();
    g.add_edge(s, b, 1.0).unwrap();
    g.add_edge(a, t, 1.0).unwrap();
    g.add_edge(b, t, 1.0).unwrap();
    (g, [s, a, b, t])
}

#[test]
fn add_and_query_nodes() {
    let mut g: Dag<u32, ()> = Dag::new();
    let a = g.add_node(10);
    let b = g.add_node(20);
    assert_eq!(g.node_count(), 2);
    assert_eq!(*g.node(a), 10);
    *g.node_mut(b) = 21;
    assert_eq!(*g.node(b), 21);
}

#[test]
fn self_loop_rejected() {
    let mut g: Dag<(), ()> = Dag::new();
    let a = g.add_node(());
    assert_eq!(g.add_edge(a, a, ()), Err(DagError::SelfLoop(a)));
}

#[test]
fn cycle_rejected() {
    let mut g: Dag<(), ()> = Dag::new();
    let a = g.add_node(());
    let b = g.add_node(());
    let c = g.add_node(());
    g.add_edge(a, b, ()).unwrap();
    g.add_edge(b, c, ()).unwrap();
    assert!(matches!(
        g.add_edge(c, a, ()),
        Err(DagError::WouldCycle { .. })
    ));
}

#[test]
fn invalid_node_rejected() {
    let mut g: Dag<(), ()> = Dag::new();
    let a = g.add_node(());
    let ghost = NodeId(99);
    assert_eq!(g.add_edge(a, ghost, ()), Err(DagError::InvalidNode(ghost)));
}

#[test]
fn topo_order_follows_structural_changes() {
    let mut g: Dag<(), ()> = Dag::new();
    let a = g.add_node(());
    let b = g.add_node(());
    assert_eq!(g.topo_order().unwrap(), [a, b]);
    // The kept order is dropped on every insertion, never served stale.
    g.add_edge(b, a, ()).unwrap();
    assert_eq!(g.topo_order().unwrap(), [b, a]);
    let c = g.add_node(());
    g.add_edge_unchecked(c, b, ());
    assert_eq!(g.topo_order().unwrap(), [c, b, a]);
    g.add_edge_unchecked(a, c, ());
    assert_eq!(g.topo_order(), Err(DagError::Cyclic));
}

#[test]
fn unchecked_cycle_detected_by_topo() {
    let mut g: Dag<(), ()> = Dag::new();
    let a = g.add_node(());
    let b = g.add_node(());
    g.add_edge_unchecked(a, b, ());
    g.add_edge_unchecked(b, a, ());
    assert_eq!(g.topo_order(), Err(DagError::Cyclic));
}

#[test]
fn topo_order_respects_edges() {
    let (g, _) = diamond();
    let order = g.topo_order().unwrap();
    let pos: Vec<usize> = g
        .node_ids()
        .map(|n| order.iter().position(|&x| x == n).unwrap())
        .collect();
    for e in g.edge_refs() {
        assert!(pos[e.src.index()] < pos[e.dst.index()]);
    }
}

#[test]
fn sources_and_sinks() {
    let (g, [s, _, _, t]) = diamond();
    assert_eq!(g.sources(), vec![s]);
    assert_eq!(g.sinks(), vec![t]);
}

#[test]
fn reachability() {
    let (g, [s, a, b, t]) = diamond();
    assert!(g.is_reachable(s, t));
    assert!(g.is_reachable(a, t));
    assert!(!g.is_reachable(a, b));
    assert!(!g.is_reachable(t, s));
    assert!(g.is_reachable(b, b));
}

#[test]
fn degrees() {
    let (g, [s, a, _, t]) = diamond();
    assert_eq!(g.out_degree(s), 2);
    assert_eq!(g.in_degree(s), 0);
    assert_eq!(g.in_degree(t), 2);
    assert_eq!(g.out_degree(a), 1);
}

#[test]
fn timing_makespan_and_slack() {
    let (g, [s, a, b, t]) = diamond();
    let timing = TimingAnalysis::compute(&g, |_, &d| d).unwrap();
    assert_eq!(timing.makespan, 3.0);
    assert_eq!(timing.earliest[t.index()], 3.0);
    assert_eq!(timing.earliest[a.index()], 2.0);
    assert_eq!(timing.earliest[b.index()], 1.0);
    // b can start as late as t=2 without delaying the schedule.
    assert_eq!(timing.latest[b.index()], 2.0);
    assert_eq!(timing.slack(s, b, 1.0), 1.0);
    assert_eq!(timing.slack(s, a, 2.0), 0.0);
}

#[test]
fn node_criticality() {
    let (g, [s, a, b, t]) = diamond();
    let timing = TimingAnalysis::compute(&g, |_, &d| d).unwrap();
    assert!(timing.node_is_critical(s, 1e-9));
    assert!(timing.node_is_critical(a, 1e-9));
    assert!(timing.node_is_critical(t, 1e-9));
    assert!(!timing.node_is_critical(b, 1e-9));
}

#[test]
fn empty_graph_timing() {
    let g: Dag<(), f64> = Dag::new();
    let timing = TimingAnalysis::compute(&g, |_, &d| d).unwrap();
    assert_eq!(timing.makespan, 0.0);
}

#[test]
fn single_chain_timing() {
    let mut g: Dag<(), f64> = Dag::new();
    let nodes: Vec<_> = (0..5).map(|_| g.add_node(())).collect();
    for w in nodes.windows(2) {
        g.add_edge(w[0], w[1], 1.5).unwrap();
    }
    let timing = TimingAnalysis::compute(&g, |_, &d| d).unwrap();
    assert!((timing.makespan - 6.0).abs() < 1e-12);
    // Everything is critical on a chain.
    for n in g.node_ids() {
        assert!(timing.node_is_critical(n, 1e-9));
    }
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    /// Builds a random DAG by only ever adding forward edges (i < j).
    fn arb_dag() -> impl Strategy<Value = Dag<(), f64>> {
        (
            2usize..24,
            proptest::collection::vec((any::<u16>(), any::<u16>(), 0.1f64..10.0), 1..80),
        )
            .prop_map(|(n, raw)| {
                let mut g: Dag<(), f64> = Dag::new();
                let ids: Vec<_> = (0..n).map(|_| g.add_node(())).collect();
                for (a, b, d) in raw {
                    let i = (a as usize) % n;
                    let j = (b as usize) % n;
                    if i < j {
                        g.add_edge_unchecked(ids[i], ids[j], d);
                    }
                }
                g
            })
    }

    proptest! {
        #[test]
        fn topo_is_consistent(g in arb_dag()) {
            let order = g.topo_order().unwrap();
            let mut pos = vec![0usize; g.node_count()];
            for (i, n) in order.iter().enumerate() { pos[n.index()] = i; }
            for e in g.edge_refs() {
                prop_assert!(pos[e.src.index()] < pos[e.dst.index()]);
            }
        }

        #[test]
        fn earliest_le_latest(g in arb_dag()) {
            let t = TimingAnalysis::compute(&g, |_, &d| d).unwrap();
            for n in g.node_ids() {
                prop_assert!(t.earliest[n.index()] <= t.latest[n.index()] + 1e-9);
            }
        }

        #[test]
        fn slack_nonnegative(g in arb_dag()) {
            let t = TimingAnalysis::compute(&g, |_, &d| d).unwrap();
            for e in g.edge_refs() {
                prop_assert!(t.slack(e.src, e.dst, *e.payload) >= -1e-9);
            }
        }

    }
}

#[test]
fn compute_with_order_matches_compute() {
    let (g, _) = diamond();
    let order = g.topo_order().unwrap();
    let a = TimingAnalysis::compute(&g, |_, &d| d).unwrap();
    let b = TimingAnalysis::compute_with_order(&g, order, |_, &d| d);
    assert_eq!(a.earliest, b.earliest);
    assert_eq!(a.latest, b.latest);
    assert_eq!(a.makespan, b.makespan);
}

#[test]
fn refills_match_a_fresh_analysis() {
    let (g, [s, a, b, t]) = diamond();
    let order = g.topo_order().unwrap();
    let mut timing = TimingAnalysis::default();
    timing.refill(&g, order, &[2.0, 1.0, 1.0, 1.0]);
    // Refilling with new durations overwrites every buffer in place.
    let durations = [1.0, 3.0, 0.5, 1.0];
    timing.refill(&g, order, &durations);
    let fresh = TimingAnalysis::compute(&g, |e, _| durations[e.index()]).unwrap();
    assert_eq!(timing.earliest, fresh.earliest);
    assert_eq!(timing.latest, fresh.latest);
    assert_eq!(timing.makespan, 4.0);
    // The forward pass alone moves `earliest` and the makespan only.
    timing.refill_earliest(&g, order, &[2.0, 1.0, 1.0, 1.0]);
    assert_eq!(timing.makespan, 3.0);
    assert_eq!(timing.earliest[a.index()], 2.0);
    assert_eq!(timing.latest, fresh.latest);
    assert_eq!(
        (timing.earliest[s.index()], timing.earliest[b.index()]),
        (0.0, 1.0)
    );
    assert_eq!(timing.earliest[t.index()], 3.0);
}

#[test]
fn deep_chain_timing_is_exact() {
    // A 10k-node chain: stresses the longest-path accumulation and would
    // expose any stack-recursion in the timing pass.
    let mut g: Dag<(), f64> = Dag::new();
    let nodes: Vec<_> = (0..10_000).map(|_| g.add_node(())).collect();
    for w in nodes.windows(2) {
        g.add_edge_unchecked(w[0], w[1], 0.5);
    }
    let t = TimingAnalysis::compute(&g, |_, &d| d).unwrap();
    assert!((t.makespan - 4999.5).abs() < 1e-6);
}
