//! Table 1's "Optimal k" rows come from the greedy relay-station optimiser
//! (`wp_bench::optimal_config`).  On the case-study SoC netlist the greedy
//! assignment predicts the same worst-loop throughput as the exact
//! branch-and-bound search, for every k Table 1 uses; the assignments
//! themselves may differ among ties.
//!
//! The exact search for k = 2 takes about 5 s in the debug test profile
//! and 0.5 s in release, so it runs only in release builds:
//! `cargo test --release -p wp_bench --test optimal_k`.

use wp_bench::{matmul_workload, sort_workload};
use wp_netlist::{optimize_assignment, optimize_assignment_greedy, EdgeId};
use wp_proc::{build_soc, Link, Organization, RsConfig, Workload};

/// Asserts that greedy and exact placement of `k` stations per non-CU-IC
/// channel of the SoC netlist predict the same throughput, with the
/// candidates and budget `optimal_config` uses.
fn assert_greedy_matches_exact(workload: &Workload, k: usize) {
    let net = build_soc(workload, Organization::Pipelined, &RsConfig::ideal()).to_netlist();
    let excluded = Link::CuIc.channel_names();
    let candidates: Vec<EdgeId> = net
        .edge_ids()
        .filter(|&e| !excluded.contains(&net.edge(e).name()))
        .collect();
    let budget = candidates.len() * k;
    let minimum = vec![0; net.edge_count()];
    let greedy = optimize_assignment_greedy(&net, budget, &minimum, &candidates)
        .expect("the uniform assignment is feasible");
    let exact = optimize_assignment(&net, budget, &minimum, &candidates, budget)
        .expect("the uniform assignment is feasible");
    assert_eq!(
        greedy.predicted_throughput, exact.predicted_throughput,
        "k = {k}: greedy {:?} vs exact {:?}",
        greedy.assignment, exact.assignment
    );
}

#[test]
fn greedy_matches_exact_for_one_station_per_link() {
    assert_greedy_matches_exact(&sort_workload(), 1);
    assert_greedy_matches_exact(&matmul_workload(), 1);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the exact k = 2 search takes ~5 s unoptimised; run with --release"
)]
fn greedy_matches_exact_for_two_stations_per_link() {
    assert_greedy_matches_exact(&matmul_workload(), 2);
}
