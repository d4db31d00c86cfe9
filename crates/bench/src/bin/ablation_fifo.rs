//! Ablation: shell input-queue depth versus throughput.
//!
//! The paper makes the semi-infinite queues of the formal model finite and
//! relies on back-pressure for correctness; this experiment shows how small
//! the queues can be before throughput suffers on the case-study processor.
//!
//! The 2 × depths wire-pipelined runs are swept across worker threads by
//! `wp_sim::SweepRunner`'s work-stealing scheduler; control it with
//! `--workers N` and `--batch N`.  Pass `--verify` to stream every run
//! against its golden twin while it executes and print the proven
//! equivalence prefix (N) per depth and policy.
//!
//! Usage: `ablation_fifo [--verify] [--workers N] [--batch N]
//! [--lanes on|off|auto] [--oracle on|off|auto]`

use wp_bench::cli::AblationArgs;
use wp_bench::{
    exit_on_error, soc_factory, soc_scenario_with_config, sort_workload, ScenarioWiring, SweepArgs,
    MAX_CYCLES,
};
use wp_core::ShellConfig;
use wp_proc::SocState;
use wp_proc::{run_golden_soc, Link, Organization, RsConfig};
use wp_sim::{Scenario, SweepOutcome};

const DEPTHS: [usize; 6] = [2, 3, 4, 6, 8, 16];

/// One table row: the queue depth, both cycle counts and — under
/// `--verify` — the proven equivalence prefix per policy.
struct Row {
    depth: usize,
    wp1_cycles: u64,
    wp2_cycles: u64,
    n_wp1: Option<usize>,
    n_wp2: Option<usize>,
}

/// The scenarios of every depth row, WP1/WP2-interleaved in depth order
/// (each row owns two consecutive scenarios).
fn scenarios(verify: bool) -> Vec<Scenario<wp_proc::Msg, SocState>> {
    let workload = sort_workload();
    let rs = RsConfig::uniform(1, &[Link::CuIc]);
    let wiring = ScenarioWiring::new().verified(verify);
    DEPTHS
        .iter()
        .flat_map(|&depth| {
            [
                ("WP1", ShellConfig::strict()),
                ("WP2", ShellConfig::oracle()),
            ]
            .map(|(tag, config)| {
                let scenario = soc_scenario_with_config(
                    format!("depth{depth}_{tag}"),
                    &workload,
                    Organization::Pipelined,
                    rs,
                    config.with_fifo_capacity(depth),
                );
                wiring.wire_verified(
                    scenario,
                    soc_factory(&workload, Organization::Pipelined, rs),
                )
            })
        })
        .collect()
}

/// Fails on a non-equivalent outcome, returns its proven N otherwise.
fn checked_proven(outcome: &SweepOutcome<SocState>) -> Result<Option<usize>, String> {
    match &outcome.equivalence {
        Some(report) if !report.is_equivalent() => Err(format!("{}: {report}", outcome.label)),
        Some(report) => Ok(Some(report.proven_n())),
        None => Ok(None),
    }
}

/// Folds one depth row out of its WP1/WP2 outcome pair.
fn row_of(
    depth: usize,
    wp1: &SweepOutcome<SocState>,
    wp2: &SweepOutcome<SocState>,
) -> Result<Row, String> {
    Ok(Row {
        depth,
        wp1_cycles: wp1.cycles_to_goal,
        wp2_cycles: wp2.cycles_to_goal,
        n_wp1: checked_proven(wp1)?,
        n_wp2: checked_proven(wp2)?,
    })
}

fn print_table(golden_cycles: u64, rows: &[Row]) {
    let opt = |n: Option<usize>| n.map_or_else(|| "-".to_string(), |n| n.to_string());
    println!("FIFO-depth ablation: sort, pipelined, All 1 (no CU-IC)\n");
    println!(
        "{:>8} {:>10} {:>10} {:>8} {:>8} {:>8} {:>8}",
        "depth", "WP1 cyc", "WP2 cyc", "Th WP1", "Th WP2", "N WP1", "N WP2"
    );
    for row in rows {
        println!(
            "{:>8} {:>10} {:>10} {:>8.3} {:>8.3} {:>8} {:>8}",
            row.depth,
            row.wp1_cycles,
            row.wp2_cycles,
            golden_cycles as f64 / row.wp1_cycles as f64,
            golden_cycles as f64 / row.wp2_cycles as f64,
            opt(row.n_wp1),
            opt(row.n_wp2),
        );
    }
}

/// Sweeps every depth row.
fn sweep_rows(sweep: &SweepArgs, verify: bool) -> Result<Vec<Row>, Box<dyn std::error::Error>> {
    let outcomes: Vec<SweepOutcome<SocState>> = sweep
        .runner()
        .run(scenarios(verify))
        .into_iter()
        .collect::<Result<_, _>>()?;
    Ok(DEPTHS
        .iter()
        .zip(outcomes.chunks(2))
        .map(|(&depth, pair)| row_of(depth, &pair[0], &pair[1]))
        .collect::<Result<_, _>>()?)
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = AblationArgs::from_args(&argv).unwrap_or_else(|e| e.exit());
    let rows = sweep_rows(&args.sweep, args.verify)?;
    let golden = run_golden_soc(&sort_workload(), Organization::Pipelined, MAX_CYCLES)?;
    print_table(golden.cycles, &rows);
    Ok(())
}

fn main() {
    exit_on_error(run());
}
