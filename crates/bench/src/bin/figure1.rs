//! Reproduces Figure 1 of the paper: the case-study netlist (five blocks and
//! their channels) together with its loop inventory and the per-loop
//! throughput law.
//!
//! Besides the analytic law, the per-link table now also *measures* the WP1
//! throughput of every single-link configuration — a 10-scenario
//! `wp_sim::SweepRunner` sweep of the full processor.  The scheduler is
//! controlled with `--workers N` and `--batch N`, and the measured sweep
//! can be sharded across worker processes with `--shards N` (worker mode:
//! `--shard i/N` / `--emit-ndjson`), merging to byte-identical output.

use std::ops::Range;

use wp_bench::{
    exit_on_error, json_string, predict_wp1_throughput, soc_oracle_scenario, soc_scenario,
    sort_workload, LaneMode, ScenarioWiring, ShardArgs, SweepArgs, MAX_CYCLES,
};
use wp_core::SyncPolicy;
use wp_dist::Json;
use wp_netlist::{loop_inventory, to_dot, ThroughputModel, DEFAULT_MAX_LOOPS};
use wp_proc::{build_soc, run_golden_soc, Link, Organization, RsConfig, Workload};
use wp_sim::Scenario;

/// The per-link WP1 scenarios of the links in `range`, in `Link::ALL`
/// submission order (the global row numbering shared by the sharding
/// parent and its workers).  With `--lanes on|auto` every scenario carries
/// a lane key; plainly-simulated scenarios read the memory back after the
/// run, so the sweep demotes them to the scalar kernel and the printed
/// table is mode-independent.
///
/// `oracle_target` is `Some(golden_cycles)` under `--oracle on|auto`: each
/// run is then built as its extrapolating twin (`soc_oracle_scenario`,
/// with the halt goal re-expressed as a firing goal), which reports the
/// same cycle count while simulating orders of magnitude fewer cycles.
fn link_scenarios(
    workload: &Workload,
    lanes: LaneMode,
    oracle_target: Option<u64>,
    range: Range<usize>,
) -> Vec<Scenario<wp_proc::Msg, wp_proc::SocState>> {
    let wiring = ScenarioWiring::new().lane_key(lanes, "figure1/wp1");
    Link::ALL[range]
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

/// Prints the measured per-link table from the merged `(link, cycles)`
/// rows.
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

/// Measures the cycles to the goal of the links in `range`, reporting the
/// period-oracle saving on stderr under `--oracle`.
fn measure_links(
    workload: &Workload,
    sweep: &SweepArgs,
    oracle_target: Option<u64>,
    range: Range<usize>,
) -> Result<Vec<u64>, Box<dyn std::error::Error>> {
    let (outcomes, stats) =
        sweep
            .runner()
            .run_with_stats(link_scenarios(workload, sweep.lanes, oracle_target, range));
    sweep.oracle.report_saving([&stats]);
    Ok(outcomes
        .into_iter()
        .map(|outcome| outcome.map(|o| o.cycles_to_goal))
        .collect::<Result<_, _>>()?)
}

fn encode_cycles(index: usize, cycles: &u64) -> String {
    format!(
        "{{\"index\": {index}, \"link\": {}, \"cycles_to_goal\": {cycles}}}",
        json_string(Link::ALL[index].label())
    )
}

/// Decodes the worker record of link row `index`, rejecting a record that
/// names another link.
fn decode_cycles(index: usize, record: &Json) -> Result<u64, String> {
    let link = record.require_str("link")?;
    let expected = Link::ALL[index].label();
    if link != expected {
        return Err(format!(
            "names link {link}, but row {index} is link {expected}: mismatched worker binary?"
        ));
    }
    record.require_u64("cycles_to_goal")
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let workload = sort_workload();
    let sweep = SweepArgs::from_env().unwrap_or_else(|e| e.exit());
    let shard = ShardArgs::from_env().unwrap_or_else(|e| e.exit());
    // The golden cycle count is the throughput denominator and, under
    // --oracle, the firing target of every converted scenario, which each
    // worker then computes itself; otherwise only the publishing run needs it.
    let run_golden =
        || run_golden_soc(&workload, Organization::Pipelined, MAX_CYCLES).map(|g| g.cycles);
    let oracle_target = sweep.oracle.converts_rows().then(run_golden).transpose()?;
    let Some(cycles) = shard.run_rows(
        Link::ALL.len(),
        "per-link run",
        None,
        |range| measure_links(&workload, &sweep, oracle_target, range),
        encode_cycles,
        decode_cycles,
    )?
    else {
        return Ok(());
    };
    let golden_cycles = match oracle_target {
        Some(cycles) => cycles,
        None => run_golden()?,
    };
    print_analytics(&workload);
    print_link_table(&workload, golden_cycles, &cycles);
    Ok(())
}

fn main() {
    exit_on_error(run());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_record_naming_another_link_is_rejected() {
        // A record encoded for row `index` but decoded as row 2.
        let record = |index| Json::parse(&encode_cycles(index, &99)).expect("parses");
        assert_eq!(decode_cycles(2, &record(2)), Ok(99));
        let err = decode_cycles(2, &record(3)).unwrap_err();
        assert!(
            err.contains(&format!("row 2 is link {}", Link::ALL[2].label()))
                && err.contains("mismatched worker binary"),
            "{err}"
        );
    }
}
