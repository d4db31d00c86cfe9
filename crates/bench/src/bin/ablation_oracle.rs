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
//! stripped) and print the proven equivalence prefix (N) per row.  The rows
//! can be sharded across worker processes with `--shards N` (worker mode:
//! `--shard i/N` / `--emit-ndjson`), merging to byte-identical output.

use std::ops::Range;

use wp_bench::{
    build_degraded_ring, degraded_ring_scenario, exit_on_error, json_f64, json_opt_usize,
    json_string, ScenarioWiring, ShardArgs, SweepArgs,
};
use wp_core::SyncPolicy;
use wp_dist::Json;
use wp_sim::{Scenario, SweepOutcome};

const FIRINGS: u64 = 2_000;
const PERIODS: [u64; 6] = [1, 2, 4, 8, 16, 64];

/// One merged result row: the measured throughput and — under `--verify`
/// — the proven equivalence prefix.
#[derive(Debug, PartialEq)]
struct Row {
    throughput: f64,
    proven_n: Option<usize>,
}

/// The label and oracle degradation period of row `index`, in submission
/// order: WP1 (no oracle), the degradation sweep, then the exact oracle
/// (the global row numbering shared by the sharding parent and its
/// workers).
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

/// The scenarios of the rows in `range`, in submission order.
fn scenarios(verify: bool, range: Range<usize>) -> Vec<Scenario<u64>> {
    let wiring = ScenarioWiring::new().verified(verify);
    range
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

/// Sweeps the rows in `range`.
fn sweep_rows(
    sweep: &SweepArgs,
    verify: bool,
    range: Range<usize>,
) -> Result<Vec<Row>, Box<dyn std::error::Error>> {
    let mut rows = Vec::with_capacity(range.len());
    for outcome in sweep.runner().run(scenarios(verify, range)) {
        rows.push(row_of(&outcome?)?);
    }
    Ok(rows)
}

fn encode_row(index: usize, row: &Row) -> String {
    format!(
        "{{\"index\": {index}, \"label\": {}, \"throughput\": {}, \"proven_n\": {}}}",
        json_string(&row_label_period(index).0),
        json_f64(row.throughput),
        json_opt_usize(row.proven_n),
    )
}

/// Decodes the worker record of row `index`, rejecting a record labelled
/// as another row.
fn decode_row(index: usize, record: &Json) -> Result<Row, String> {
    let label = record.require_str("label")?;
    let (expected, _) = row_label_period(index);
    if label != expected {
        return Err(format!(
            "is labelled {label}, but row {index} is {expected}: mismatched worker binary?"
        ));
    }
    Ok(Row {
        throughput: record.require_f64("throughput")?,
        proven_n: record.require_nullable_usize("proven_n")?,
    })
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let verify = args.iter().any(|a| a == "--verify");
    let sweep = SweepArgs::from_args(&args).unwrap_or_else(|e| e.exit());
    let shard = ShardArgs::from_args(&args).unwrap_or_else(|e| e.exit());
    let Some(rows) = shard.run_rows(
        PERIODS.len() + 2,
        "ablation row",
        Some(verify),
        |range| sweep_rows(&sweep, verify, range),
        encode_row,
        decode_row,
    )?
    else {
        return Ok(());
    };
    print_table(&rows);
    Ok(())
}

fn main() {
    exit_on_error(run());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_record_labelled_as_another_row_is_rejected() {
        let row = || Row {
            throughput: 0.75,
            proven_n: Some(11),
        };
        // A record encoded for row `index` but decoded as row 2.
        let record = |index| Json::parse(&encode_row(index, &row())).expect("parses");
        assert_eq!(decode_row(2, &record(2)), Ok(row()));
        let err = decode_row(2, &record(3)).unwrap_err();
        assert!(
            err.contains("row 2 is wp2_degraded_2") && err.contains("mismatched worker binary"),
            "{err}"
        );
    }
}
