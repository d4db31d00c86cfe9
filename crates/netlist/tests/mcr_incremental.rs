//! Property test pinning the incremental-reuse contract of [`McrSolver`]:
//! a solver workspace built once for a topology, re-solved after arbitrary
//! relay-station mutations, must return *bit-identical* results to a fresh
//! solver built from scratch on the mutated netlist.  This is the contract
//! the design-space search (`wp_dse`) leans on — millions of candidates
//! are scored through one reused workspace, and any drift between the
//! incremental and the fresh path would silently corrupt the Pareto
//! frontier.  The exhaustive search scores a whole block of candidates
//! with one [`McrSolver::solve_sweep`], so that path is pinned against
//! per-count solves the same way.

use proptest::prelude::*;

use wp_netlist::{EdgeId, McrSolver, Netlist, NodeId};

/// Builds a random strongly connected netlist: a Hamiltonian ring over `n`
/// nodes guarantees the connectivity, extra chords add loop diversity.
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

/// Builds a random netlist with several cyclic components and picks the
/// edge to sweep.  Each half of the `n` nodes gets a ring (a one-node half
/// a self-loop); `layered` drops every chord from the upper half back to
/// the lower one, so the two rings stay separate components.  `shape`
/// forces one feature onto the swept edge: 1 adds an edge parallel to it,
/// 2 makes it a self-loop, 3 makes it an edge into a fresh sink node, on
/// no loop; any other value sweeps a ring or chord edge as it is.
fn sweep_case(
    n: usize,
    chords: &[(usize, usize)],
    stations: &[usize],
    layered: bool,
    shape: usize,
    pick: usize,
) -> (Netlist, EdgeId) {
    let mut net = Netlist::new();
    let nodes: Vec<NodeId> = (0..n).map(|i| net.add_node(format!("n{i}"))).collect();
    let half = n / 2;
    for (lo, hi) in [(0, half), (half, n)] {
        for i in lo..hi {
            let next = lo + (i - lo + 1) % (hi - lo);
            net.add_edge(format!("ring{i}"), nodes[i], nodes[next]);
        }
    }
    for (idx, &(a, b)) in chords.iter().enumerate() {
        let (a, b) = (a % n, b % n);
        if layered && a >= half && b < half {
            continue;
        }
        net.add_edge(format!("chord{idx}"), nodes[a], nodes[b]);
    }
    let edges: Vec<EdgeId> = net.edge_ids().collect();
    let mut swept = edges[pick % edges.len()];
    match shape {
        1 => {
            let (src, dst) = (net.edge(swept).src(), net.edge(swept).dst());
            net.add_edge("parallel", src, dst);
        }
        2 => {
            let node = nodes[pick % n];
            swept = net.add_edge("self", node, node);
        }
        3 => {
            let sink = net.add_node("sink");
            swept = net.add_edge("dangling", nodes[pick % n], sink);
        }
        _ => {}
    }
    for (i, e) in net.edge_ids().collect::<Vec<_>>().into_iter().enumerate() {
        net.set_relay_stations(e, stations[i % stations.len()]);
    }
    (net, swept)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // One sweep over an edge's station counts `0..=cap` equals a solve at
    // each count, bit for bit, and leaves the workspace reusable: the
    // solver still solves and analyzes as a fresh one does.
    #[test]
    fn sweeps_match_a_solve_per_station_count_bit_for_bit(
        n in 2usize..9,
        chords in prop::collection::vec((0usize..9, 0usize..9), 0..12),
        stations in prop::collection::vec(0usize..5, 1..24),
        layered in any::<bool>(),
        shape in 0usize..5,
        pick in 0usize..32,
        cap in 0usize..6,
    ) {
        let (mut net, swept) = sweep_case(n, &chords, &stations, layered, shape, pick);
        let mut solver = McrSolver::new(&net);
        let mut sweep = vec![f64::NAN; cap + 1];
        solver.solve_sweep(&net, swept, &mut sweep);
        for (r, &th) in sweep.iter().enumerate() {
            net.set_relay_stations(swept, r);
            let solved = McrSolver::new(&net).solve(&net);
            prop_assert_eq!(
                th.to_bits(),
                solved.to_bits(),
                "sweep {} vs solve {} at {} station(s) on {:?} (shape {})",
                th,
                solved,
                r,
                net.edge(swept).name(),
                shape
            );
        }
        prop_assert_eq!(
            solver.solve(&net).to_bits(),
            McrSolver::new(&net).solve(&net).to_bits()
        );
        prop_assert_eq!(solver.analyze(&net), McrSolver::new(&net).analyze(&net));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // A long random sequence of single-channel relay mutations, re-solved
    // incrementally after each step, never drifts from a fresh solve.
    #[test]
    fn incremental_resolves_match_fresh_solver_bit_for_bit(
        n in 2usize..8,
        chords in prop::collection::vec((0usize..8, 0usize..8), 0..10),
        stations in prop::collection::vec(0usize..4, 0..18),
        mutations in prop::collection::vec((0usize..18, 0usize..6), 1..60),
    ) {
        let mut net = build_strongly_connected(n, &chords, &stations);
        let mut solver = McrSolver::new(&net);
        // The reused workspace must agree with a fresh one on the seed
        // assignment too, before any mutation.
        prop_assert_eq!(
            solver.solve(&net).to_bits(),
            McrSolver::new(&net).solve(&net).to_bits()
        );
        let edges: Vec<_> = net.edge_ids().collect();
        for &(pick, rs) in &mutations {
            net.set_relay_stations(edges[pick % edges.len()], rs);
            let incremental = solver.solve(&net);
            let fresh = McrSolver::new(&net).solve(&net);
            prop_assert_eq!(
                incremental.to_bits(),
                fresh.to_bits(),
                "incremental {} vs fresh {} after mutating to {:?}",
                incremental,
                fresh,
                net.relay_station_assignment()
            );
        }
    }

    // Whole-assignment replacement (the `wp_dse` evaluator's mutation
    // primitive) keeps the same contract.
    #[test]
    fn bulk_assignment_replacement_matches_fresh_solver(
        n in 2usize..7,
        chords in prop::collection::vec((0usize..7, 0usize..7), 0..8),
        assignments in prop::collection::vec(
            prop::collection::vec(0usize..5, 20), 1..20),
    ) {
        let mut net = build_strongly_connected(n, &chords, &[]);
        let mut solver = McrSolver::new(&net);
        let edge_count = net.edge_count();
        for assignment in &assignments {
            net.apply_relay_station_assignment(&assignment[..edge_count]);
            prop_assert_eq!(
                solver.solve(&net).to_bits(),
                McrSolver::new(&net).solve(&net).to_bits()
            );
        }
    }
}
