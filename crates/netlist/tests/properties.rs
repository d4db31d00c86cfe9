//! Property-based tests of the netlist graph algorithms and the loop law.

use proptest::prelude::*;

use wp_netlist::{
    enumerate_cycles, optimize_assignment, strongly_connected_components, McrSolver, Netlist,
    NodeId, ThroughputModel,
};

/// Builds a random directed graph from an edge list over `n` nodes.
fn build_graph(n: usize, edges: &[(usize, usize)]) -> Netlist {
    let mut net = Netlist::new();
    let nodes: Vec<NodeId> = (0..n).map(|i| net.add_node(format!("n{i}"))).collect();
    for (idx, &(a, b)) in edges.iter().enumerate() {
        net.add_edge(format!("e{idx}"), nodes[a % n], nodes[b % n]);
    }
    net
}

/// Builds a random *strongly connected* netlist: a Hamiltonian ring over
/// `n` nodes guarantees the connectivity, extra chords add loop diversity.
fn build_strongly_connected(n: usize, chords: &[(usize, usize)], stations: &[usize]) -> Netlist {
    let mut net = Netlist::new();
    let nodes: Vec<NodeId> = (0..n).map(|i| net.add_node(format!("n{i}"))).collect();
    for i in 0..n {
        net.add_edge(format!("ring{i}"), nodes[i], nodes[(i + 1) % n]);
    }
    for (idx, &(a, b)) in chords.iter().enumerate() {
        net.add_edge(format!("chord{idx}"), nodes[a % n], nodes[b % n]);
    }
    for (i, e) in net.edge_ids().collect::<Vec<_>>().into_iter().enumerate() {
        net.set_relay_stations(e, stations.get(i).copied().unwrap_or(0));
    }
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn loop_law_is_a_probability(m in 1usize..50, n in 0usize..50) {
        let th = ThroughputModel::law(m, n);
        prop_assert!(th > 0.0 && th <= 1.0);
        // Monotonicity: more stations never help, more processes never hurt.
        prop_assert!(ThroughputModel::law(m, n + 1) <= th);
        prop_assert!(ThroughputModel::law(m + 1, n) >= th);
    }

    #[test]
    fn scc_is_a_partition_of_the_nodes(
        n in 1usize..10,
        edges in prop::collection::vec((0usize..10, 0usize..10), 0..25),
    ) {
        let net = build_graph(n, &edges);
        let comps = strongly_connected_components(&net);
        let mut seen = vec![0usize; n];
        for comp in &comps {
            prop_assert!(!comp.is_empty());
            for node in comp {
                seen[node.index()] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&count| count == 1), "every node in exactly one SCC");
    }

    #[test]
    fn enumerated_cycles_are_simple_and_closed(
        n in 1usize..7,
        edges in prop::collection::vec((0usize..7, 0usize..7), 0..20),
    ) {
        let net = build_graph(n, &edges);
        let cycles = enumerate_cycles(&net, 10_000).cycles;
        for cycle in &cycles {
            // No repeated node.
            let mut nodes = cycle.nodes.clone();
            nodes.sort();
            nodes.dedup();
            prop_assert_eq!(nodes.len(), cycle.nodes.len());
            // Every hop is an existing edge from node i to node i+1 (mod len).
            prop_assert_eq!(cycle.edges.len(), cycle.nodes.len());
            for (i, &edge) in cycle.edges.iter().enumerate() {
                let src = cycle.nodes[i];
                let dst = cycle.nodes[(i + 1) % cycle.nodes.len()];
                prop_assert_eq!(net.edge(edge).src(), src);
                prop_assert_eq!(net.edge(edge).dst(), dst);
            }
        }
    }

    #[test]
    fn system_throughput_is_the_minimum_loop_throughput(
        n in 1usize..6,
        edges in prop::collection::vec((0usize..6, 0usize..6), 0..15),
        stations in prop::collection::vec(0usize..4, 0..15),
    ) {
        let mut net = build_graph(n, &edges);
        for (i, e) in net.edge_ids().collect::<Vec<_>>().into_iter().enumerate() {
            net.set_relay_stations(e, stations.get(i).copied().unwrap_or(0));
        }
        let analysis = ThroughputModel::Enumerated { max_loops: 10_000 }.analyze(&net);
        prop_assert!(analysis.is_exhaustive());
        let expected = analysis
            .loops()
            .iter()
            .map(|l| l.throughput)
            .fold(1.0f64, f64::min);
        prop_assert_eq!(analysis.system_throughput(), expected);
        for l in analysis.loops() {
            prop_assert_eq!(l.throughput, ThroughputModel::law(l.processes, l.relay_stations));
        }
    }

    #[test]
    fn exact_solver_matches_exhaustive_enumeration(
        n in 1usize..6,
        edges in prop::collection::vec((0usize..6, 0usize..6), 0..15),
        stations in prop::collection::vec(0usize..5, 0..15),
    ) {
        // On arbitrary random graphs (cyclic or not), the exact solver's
        // prediction must equal the exhaustively enumerated one bit for
        // bit, and its reported critical loop must attain it.
        let mut net = build_graph(n, &edges);
        for (i, e) in net.edge_ids().collect::<Vec<_>>().into_iter().enumerate() {
            net.set_relay_stations(e, stations.get(i).copied().unwrap_or(0));
        }
        let enumerated = ThroughputModel::Enumerated { max_loops: 100_000 }.analyze(&net);
        prop_assert!(enumerated.is_exhaustive());
        let exact = ThroughputModel::Exact.analyze(&net);
        prop_assert_eq!(exact.system_throughput(), enumerated.system_throughput());
        if let Some(worst) = exact.worst_loop() {
            prop_assert_eq!(
                worst.throughput,
                ThroughputModel::law(worst.processes, worst.relay_stations)
            );
            prop_assert_eq!(worst.relay_stations, worst.cycle.relay_station_count(&net));
        }
    }

    #[test]
    fn exact_solver_matches_enumeration_on_strongly_connected_netlists(
        n in 1usize..7,
        chords in prop::collection::vec((0usize..7, 0usize..7), 0..10),
        stations in prop::collection::vec(0usize..6, 0..17),
    ) {
        let net = build_strongly_connected(n, &chords, &stations);
        let enumerated = ThroughputModel::Enumerated { max_loops: 100_000 }.analyze(&net);
        prop_assert!(enumerated.is_exhaustive());
        prop_assert_eq!(
            ThroughputModel::Exact.predict(&net),
            enumerated.system_throughput()
        );
    }

    #[test]
    fn truncated_enumeration_never_beats_the_exact_solver(
        stations in prop::collection::vec(0usize..4, 20),
    ) {
        // K5 has 84 simple cycles; cap at 10 so the enumeration truncates.
        let mut net = Netlist::new();
        let nodes: Vec<NodeId> = (0..5).map(|i| net.add_node(format!("n{i}"))).collect();
        for &x in &nodes {
            for &y in &nodes {
                if x != y {
                    net.add_edge(format!("{x}-{y}"), x, y);
                }
            }
        }
        for (i, e) in net.edge_ids().collect::<Vec<_>>().into_iter().enumerate() {
            net.set_relay_stations(e, stations[i % stations.len()]);
        }
        let capped = ThroughputModel::Enumerated { max_loops: 10 }.analyze(&net);
        prop_assert!(!capped.is_exhaustive());
        prop_assert_eq!(enumerate_cycles(&net, 10).cycles.len(), 10);
        // A truncated inventory can only over-estimate the worst loop.
        prop_assert!(capped.system_throughput() >= ThroughputModel::Exact.predict(&net));
    }

    #[test]
    fn incremental_resolve_matches_fresh_solver(
        n in 2usize..6,
        chords in prop::collection::vec((0usize..6, 0usize..6), 0..8),
        rounds in prop::collection::vec(
            (prop::collection::vec(0usize..5, 14),),
            1..4,
        ),
    ) {
        let mut net = build_strongly_connected(n, &chords, &[]);
        let mut solver = McrSolver::new(&net);
        for (stations,) in &rounds {
            for (i, e) in net.edge_ids().collect::<Vec<_>>().into_iter().enumerate() {
                net.set_relay_stations(e, stations[i % stations.len()]);
            }
            prop_assert_eq!(solver.solve(&net), ThroughputModel::Exact.predict(&net));
        }
    }

    #[test]
    fn optimal_assignment_is_no_worse_than_uniform_spread(
        budget in 1usize..5,
    ) {
        // Two nested loops sharing a node; candidates are all edges.
        let mut net = Netlist::new();
        let a = net.add_node("A");
        let b = net.add_node("B");
        let c = net.add_node("C");
        net.add_edge("ab", a, b);
        net.add_edge("ba", b, a);
        net.add_edge("ac", a, c);
        net.add_edge("ca", c, a);
        let candidates: Vec<_> = net.edge_ids().collect();
        let minimum = vec![0; net.edge_count()];
        let best = optimize_assignment(&net, budget, &minimum, &candidates, budget)
            .expect("feasible");
        // Compare against an arbitrary uniform-ish reference: all budget on
        // the first edge.
        let mut reference = net.clone();
        reference.set_relay_stations(candidates[0], budget);
        let ref_th = ThroughputModel::Exact.predict(&reference);
        prop_assert!(best.predicted_throughput >= ref_th - 1e-12);
        prop_assert_eq!(best.assignment.iter().sum::<usize>(), budget);
    }
}
