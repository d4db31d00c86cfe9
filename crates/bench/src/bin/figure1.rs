//! Reproduces Figure 1 of the paper: the case-study netlist (five blocks and
//! their channels) together with its loop inventory and the per-loop
//! throughput law.
//!
//! Besides the analytic law, the per-link table now also *measures* the WP1
//! throughput of every single-link configuration — a 10-scenario
//! `wp_sim::SweepRunner` sweep of the full processor.
//!
//! Usage: `figure1 [--workers N] [--batch N] [--lanes on|off|auto]
//! [--oracle on|off|auto]`

use wp_bench::{
    exit_on_error, predict_wp1_throughput, soc_oracle_scenario, soc_scenario, sort_workload,
    LaneMode, ScenarioWiring, SweepArgs, MAX_CYCLES,
};
use wp_core::SyncPolicy;
use wp_netlist::{loop_inventory, to_dot, ThroughputModel, DEFAULT_MAX_LOOPS};
use wp_proc::{build_soc, run_golden_soc, Link, Organization, RsConfig, Workload};
use wp_sim::Scenario;

/// The per-link WP1 scenarios, in `Link::ALL` order.  With `--lanes
/// on|auto` every scenario carries a lane key; plainly-simulated scenarios
/// read the memory back after the run, so the sweep demotes them to the
/// scalar kernel and the printed table is mode-independent.
///
/// `oracle_target` is `Some(golden_cycles)` under `--oracle on|auto`: each
/// run is then built as its extrapolating twin (`soc_oracle_scenario`,
/// with the halt goal re-expressed as a firing goal), which reports the
/// same cycle count while simulating orders of magnitude fewer cycles.
fn link_scenarios(
    workload: &Workload,
    lanes: LaneMode,
    oracle_target: Option<u64>,
) -> Vec<Scenario<wp_proc::Msg, wp_proc::SocState>> {
    let wiring = ScenarioWiring::new().lane_key(lanes, "figure1/wp1");
    Link::ALL
        .iter()
        .map(|&link| {
            let rs = RsConfig::single(link, 1);
            let scenario = match oracle_target {
                Some(target) => {
                    soc_oracle_scenario(link.label(), workload, Organization::Pipelined, rs, target)
                }
                None => soc_scenario(
                    link.label(),
                    workload,
                    Organization::Pipelined,
                    rs,
                    SyncPolicy::Strict,
                ),
            };
            wiring.wire(scenario)
        })
        .collect()
}

/// Prints the analytic half: the DOT netlist, the loop inventory and the
/// system throughput predicted by the law.
fn print_analytics(workload: &Workload) {
    let builder = build_soc(workload, Organization::Pipelined, &RsConfig::ideal());
    let net = builder.to_netlist();

    println!("Figure 1: case-study netlist (Graphviz DOT)\n");
    println!("{}", to_dot(&net, "figure1"));

    println!("Netlist loops and the m/(m+n) law with 1 RS on every link (no CU-IC):");
    let builder = build_soc(
        workload,
        Organization::Pipelined,
        &RsConfig::uniform(1, &[Link::CuIc]),
    );
    let net = builder.to_netlist();
    let analysis = ThroughputModel::Enumerated {
        max_loops: DEFAULT_MAX_LOOPS,
    }
    .analyze(&net);
    if !analysis.is_exhaustive() {
        eprintln!(
            "warning: loop inventory truncated at {DEFAULT_MAX_LOOPS} loops; \
             the printed system throughput comes from the exact solver"
        );
    }
    println!("{}", loop_inventory(&net, &analysis));
    println!(
        "worst-loop (system) throughput predicted for WP1: {:.3}",
        ThroughputModel::Exact.predict(&net)
    );
}

/// Prints the measured per-link table from each link's cycles to the
/// goal.
fn print_link_table(workload: &Workload, golden_cycles: u64, cycles_to_goal: &[u64]) {
    println!("\nPer-link worst loop (1 RS on that link only):");
    println!(
        "  {:<8} {:>14} {:>13}",
        "link", "predicted WP1", "measured WP1"
    );
    for (link, &cycles) in Link::ALL.iter().zip(cycles_to_goal) {
        let predicted = predict_wp1_throughput(
            workload,
            Organization::Pipelined,
            &RsConfig::single(*link, 1),
        );
        let measured = golden_cycles as f64 / cycles as f64;
        println!("  {:<8} {predicted:>14.3} {measured:>13.3}", link.label());
    }
}

/// Measures every link's cycles to the goal, reporting the period-oracle
/// saving on stderr under `--oracle`.
fn measure_links(
    workload: &Workload,
    sweep: &SweepArgs,
    oracle_target: Option<u64>,
) -> Result<Vec<u64>, Box<dyn std::error::Error>> {
    let (outcomes, stats) =
        sweep
            .runner()
            .run_with_stats(link_scenarios(workload, sweep.lanes, oracle_target));
    sweep.oracle.report_saving([&stats]);
    Ok(outcomes
        .into_iter()
        .map(|outcome| outcome.map(|o| o.cycles_to_goal))
        .collect::<Result<_, _>>()?)
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let sweep = SweepArgs::from_env().unwrap_or_else(|e| e.exit());
    let workload = sort_workload();
    // The golden cycle count is the throughput denominator and, under
    // --oracle, the firing target of every converted scenario.
    let golden_cycles = run_golden_soc(&workload, Organization::Pipelined, MAX_CYCLES)?.cycles;
    let oracle_target = sweep.oracle.converts_rows().then_some(golden_cycles);
    let cycles = measure_links(&workload, &sweep, oracle_target)?;
    print_analytics(&workload);
    print_link_table(&workload, golden_cycles, &cycles);
    Ok(())
}

fn main() {
    exit_on_error(run());
}
