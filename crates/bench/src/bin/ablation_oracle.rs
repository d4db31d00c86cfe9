//! Ablation: oracle quality versus throughput.
//!
//! WP2 relies on a per-block oracle describing which inputs the next
//! computation reads.  This experiment degrades the oracle (every k-th query
//! falls back to "all inputs required") on a synthetic loop and shows how the
//! throughput moves from the WP2 value back to the WP1 bound.
//!
//! All degradation levels run as one `wp_sim::SweepRunner` sweep over
//! `wp_bench::degraded_ring_scenario`; control the scheduler with
//! `--workers N` and `--batch N`.  Pass `--verify` to stream every run
//! against its golden twin (`wp_bench::build_degraded_ring` with shells
//! stripped) and print the proven equivalence prefix (N) per row.
//!
//! Usage: `ablation_oracle [--verify] [--workers N] [--batch N]
//! [--lanes on|off|auto] [--oracle on|off|auto]`

use wp_bench::cli::AblationArgs;
use wp_bench::{
    build_degraded_ring, degraded_ring_scenario, exit_on_error, ScenarioWiring, SweepArgs,
};
use wp_core::SyncPolicy;
use wp_sim::{Scenario, SweepOutcome};

const FIRINGS: u64 = 2_000;
const PERIODS: [u64; 6] = [1, 2, 4, 8, 16, 64];

/// One result row: the measured throughput and — under `--verify`
/// — the proven equivalence prefix.
struct Row {
    throughput: f64,
    proven_n: Option<usize>,
}

/// The label and oracle degradation period of row `index`, in table
/// order: WP1 (no oracle), the degradation sweep, then the exact oracle.
fn row_label_period(index: usize) -> (String, Option<u64>) {
    match index {
        0 => ("wp1".into(), None),
        i if i <= PERIODS.len() => (
            format!("wp2_degraded_{}", PERIODS[i - 1]),
            Some(PERIODS[i - 1]),
        ),
        _ => ("wp2_exact".into(), Some(u64::MAX)),
    }
}

/// The scenarios of every row, in table order.
fn scenarios(verify: bool) -> Vec<Scenario<u64>> {
    let wiring = ScenarioWiring::new().verified(verify);
    (0..PERIODS.len() + 2)
        .map(|index| {
            let (label, period) = row_label_period(index);
            let policy = match period {
                None => SyncPolicy::Strict,
                Some(_) => SyncPolicy::Oracle,
            };
            let scenario = degraded_ring_scenario(label, period, policy, FIRINGS);
            wiring.wire_verified(scenario, move || build_degraded_ring(period))
        })
        .collect()
}

/// Fails on a non-equivalent outcome, folds a result row otherwise.
fn row_of(outcome: &SweepOutcome) -> Result<Row, String> {
    if let Some(report) = outcome.equivalence.as_ref().filter(|r| !r.is_equivalent()) {
        return Err(format!("{}: {report}", outcome.label));
    }
    Ok(Row {
        throughput: outcome.report.throughput_of(0),
        proven_n: outcome.equivalence.as_ref().map(|r| r.proven_n()),
    })
}

/// Sweeps every row.
fn sweep_rows(sweep: &SweepArgs, verify: bool) -> Result<Vec<Row>, Box<dyn std::error::Error>> {
    let mut rows = Vec::with_capacity(PERIODS.len() + 2);
    for outcome in sweep.runner().run(scenarios(verify)) {
        rows.push(row_of(&outcome?)?);
    }
    Ok(rows)
}

fn print_table(rows: &[Row]) {
    let th = |i: usize| rows[i].throughput;
    let proven = |i: usize| -> String {
        rows[i]
            .proven_n
            .map_or_else(String::new, |n| format!("  (proven N = {n})"))
    };
    println!("Oracle-quality ablation: 2-process loop, 1 RS, loop needed every 4th firing\n");
    println!(
        "WP1 (no oracle)                    Th = {:.3}{}",
        th(0),
        proven(0)
    );
    for (i, period) in PERIODS.iter().enumerate() {
        println!(
            "WP2, oracle degraded every {period:>3} queries  Th = {:.3}{}",
            th(i + 1),
            proven(i + 1)
        );
    }
    println!(
        "WP2 (exact oracle)                 Th = {:.3}{}",
        th(PERIODS.len() + 1),
        proven(PERIODS.len() + 1)
    );
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = AblationArgs::from_args(&argv).unwrap_or_else(|e| e.exit());
    print_table(&sweep_rows(&args.sweep, args.verify)?);
    Ok(())
}

fn main() {
    exit_on_error(run());
}
