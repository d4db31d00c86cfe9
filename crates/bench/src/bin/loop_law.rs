//! Validates the loop throughput law of Section 2: a loop containing `m`
//! processes and `n` relay stations sustains `Th = m/(m+n)` under strict
//! (WP1) shells, and the oracle (WP2) exceeds that bound when the loop is
//! excited only once every few computations.
//!
//! All ring simulations (the m × n grid plus the oracle-relaxation column)
//! are swept across worker threads by `wp_sim::SweepRunner`'s work-stealing
//! scheduler; control it with `--workers N` and `--batch N`.  With
//! `--oracle on|auto` every scenario is tagged for the steady-state period
//! oracle: eligible strict-policy runs extrapolate their tails (the
//! printed table is identical — extrapolation is exact, pinned by the
//! `wp_sim` tests — and the saving is reported on stderr), while
//! oracle-policy rings fall back to plain simulation and are counted.

use wp_bench::{exit_on_error, ring_scenario, OracleMode, ScenarioWiring, SweepArgs};
use wp_core::SyncPolicy;
use wp_netlist::ThroughputModel;
use wp_sim::{Scenario, SweepError, SweepOutcome, SweepRunner, SweepStats};

const FIRINGS: u64 = 2_000;

fn throughput(outcome: &SweepOutcome) -> f64 {
    outcome.report.throughput_of(0)
}

/// Runs one sweep, tagging every scenario for the period oracle when the
/// `--oracle` mode asks for it, and accumulates the sweep counters.
fn sweep(
    runner: &SweepRunner,
    oracle: OracleMode,
    scenarios: Vec<Scenario<u64>>,
    stats: &mut Vec<SweepStats>,
) -> Result<Vec<SweepOutcome>, SweepError> {
    let wiring = ScenarioWiring::new().oracle(oracle);
    let scenarios = scenarios.into_iter().map(|s| wiring.wire(s)).collect();
    let (outcomes, sweep_stats) = runner.run_with_stats(scenarios);
    stats.push(sweep_stats);
    outcomes.into_iter().collect()
}

fn run() -> Result<(), SweepError> {
    let args = SweepArgs::from_env().unwrap_or_else(|e| e.exit());
    let runner = args.runner();
    let mut stats = Vec::new();

    // The m × n grid: one scenario per (m, n) pair.
    let grid: Vec<(usize, usize)> = (1..=6usize)
        .flat_map(|m| (0..=4usize).map(move |n| (m, n)))
        .collect();
    let scenarios = grid
        .iter()
        .map(|&(m, n)| {
            ring_scenario(
                format!("m{m}_n{n}"),
                m,
                n,
                None,
                SyncPolicy::Strict,
                FIRINGS,
            )
        })
        .collect();
    let outcomes = sweep(&runner, args.oracle, scenarios, &mut stats)?;

    println!("Loop law: measured WP1 throughput vs m/(m+n)\n");
    println!(
        "{:>4} {:>4} {:>10} {:>10} {:>8}",
        "m", "n", "law", "measured", "error"
    );
    for (&(m, n), outcome) in grid.iter().zip(&outcomes) {
        let law = ThroughputModel::law(m, n);
        let measured = throughput(outcome);
        println!(
            "{m:>4} {n:>4} {law:>10.3} {measured:>10.3} {:>7.1}%",
            100.0 * (measured - law).abs() / law
        );
    }

    // Oracle relaxation: a 2-process loop with 1 RS, the loop excited every
    // k-th firing, under both policies.
    let ks = [1u64, 2, 3, 4, 5, 8, 16];
    let scenarios = ks
        .iter()
        .flat_map(|&k| {
            [SyncPolicy::Strict, SyncPolicy::Oracle].map(|policy| {
                ring_scenario(
                    format!("k{k}_{}", policy.label()),
                    2,
                    1,
                    Some(k),
                    policy,
                    FIRINGS,
                )
            })
        })
        .collect();
    let outcomes = sweep(&runner, args.oracle, scenarios, &mut stats)?;

    println!("\nOracle relaxation: 2-process loop, 1 RS, loop excited every k-th firing\n");
    println!("{:>4} {:>10} {:>10}", "k", "WP1", "WP2");
    for (i, &k) in ks.iter().enumerate() {
        let wp1 = &outcomes[2 * i];
        let wp2 = &outcomes[2 * i + 1];
        println!("{k:>4} {:>10.3} {:>10.3}", throughput(wp1), throughput(wp2));
    }
    args.oracle.report_saving(&stats);
    Ok(())
}

fn main() {
    exit_on_error(run());
}
