//! Reproduces Table 1 of the paper: Extraction Sort and Matrix Multiply on
//! the pipelined processor, over the relay-station configuration sweep,
//! comparing WP1 (strict shells) with WP2 (oracle shells).
//!
//! The 2 × configurations wire-pipelined runs of each table are swept across
//! worker threads by `wp_sim::SweepRunner`'s work-stealing scheduler, and
//! the table rows can additionally be sharded across worker *processes*
//! (`wp_dist`): `--shards N` re-invokes this executable once per contiguous
//! row range, merges the NDJSON results and prints byte-identical output
//! to a single-process run.
//!
//! Usage: `table1 [--program sort|matmul|both] [--quick] [--verify]
//! [--workers N] [--batch N] [--lanes on|off|auto] [--oracle on|off|auto]
//! [--json PATH] [--shards N | --shard i/N]
//! [--emit-ndjson]`
//!
//! `--lanes on` (and the default `auto`) tags every scenario for the
//! lane-packed bit-parallel kernel.  A plain table row reads the
//! architectural state back after the run, which disqualifies it from the
//! control-plane kernel, so the scheduler demotes it to the scalar kernel;
//! under `--oracle on` the converted WP1 rows carry no read-back and really
//! run in lane batches.  Either way the output is byte-identical to
//! `--lanes off` (CI diffs the two with `--oracle on` on every push).
//!
//! `--oracle on` re-expresses every WP1 (strict) run as a firing goal and
//! lets the period oracle extrapolate its steady state: the printed rows
//! are byte-identical to `--oracle off` (CI diffs the two) while orders of
//! magnitude fewer cycles are simulated — the saving is reported on
//! stderr.  `--oracle auto` additionally re-runs one converted row by full
//! simulation and fails on any cycle-count mismatch.  `--verify` wins
//! over the oracle: verified tables always simulate fully.
//!
//! `--quick` shrinks the workloads and the configuration sweep to a few
//! seconds of wall-clock and writes the machine-readable report
//! `BENCH_table1.json` (rows + wall time); CI uses it as the smoke run and
//! uploads the JSON as an artifact.  `--json PATH` writes the report to an
//! explicit path (with or without `--quick`).
//!
//! `--verify` enables the per-scenario equivalence gate: every
//! wire-pipelined run is streamed against a demand-stepped golden twin
//! while it executes (`wp_core::StreamingEquivalence`), the proven N per
//! policy is appended to the printed table and the JSON rows, and any
//! non-equivalent scenario fails the whole run.

use std::ops::Range;
use std::time::Instant;

use wp_bench::{
    bench_report_json, exit_on_error, flag_value, format_table, matmul_workload, run_table_oracle,
    sort_workload, table1_base_configs, table1_two_rs_configs, table_row_from_json,
    table_row_ndjson, ArgError, BenchTable, ShardArgs, SweepArgs, TableRow,
};
use wp_dist::Json;
use wp_proc::{extraction_sort, matrix_multiply, Organization, RsConfig, Workload};

struct Args {
    program: String,
    quick: bool,
    verify: bool,
    sweep: SweepArgs,
    shard: ShardArgs,
    json: Option<String>,
}

fn parse_args() -> Args {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let flag = |name| flag_value(&args, name).unwrap_or_else(|e| e.exit());
    let program = flag("--program")
        .or_else(|| args.first().cloned().filter(|a| !a.starts_with("--")))
        .unwrap_or_else(|| "both".to_string());
    if !matches!(program.as_str(), "sort" | "matmul" | "both") {
        ArgError::InvalidValue {
            flag: "--program".to_string(),
            value: program,
            expected: "one of sort, matmul, both",
        }
        .exit();
    }
    Args {
        program,
        quick,
        verify: args.iter().any(|a| a == "--verify"),
        sweep: SweepArgs::from_args(&args).unwrap_or_else(|e| e.exit()),
        shard: ShardArgs::from_args(&args).unwrap_or_else(|e| e.exit()),
        json: flag("--json").or_else(|| quick.then(|| "BENCH_table1.json".to_string())),
    }
}

/// One table of the experiment: its caption, workload and the
/// relay-station configurations of its rows.  Built deterministically from
/// the flags, so the sharding parent and every worker agree on the global
/// row numbering.
struct TableSpec {
    title: String,
    workload: Workload,
    configs: Vec<(String, RsConfig)>,
}

fn sort_spec(args: &Args) -> TableSpec {
    let (workload, title): (Workload, String) = if args.quick {
        (
            extraction_sort(6, wp_bench::WORKLOAD_SEED).expect("sort workload assembles"),
            "Table 1 (upper, quick): Extraction Sort, pipelined (6 elements)".into(),
        )
    } else {
        (
            sort_workload(),
            format!(
                "Table 1 (upper): Extraction Sort, pipelined ({} elements)",
                wp_bench::SORT_ELEMENTS
            ),
        )
    };
    let mut configs = table1_base_configs();
    if !args.quick {
        configs.push(wp_bench::optimal_config(
            &workload,
            Organization::Pipelined,
            1,
        ));
    }
    TableSpec {
        title,
        workload,
        configs,
    }
}

fn matmul_spec(args: &Args) -> TableSpec {
    let (workload, title): (Workload, String) = if args.quick {
        (
            matrix_multiply(3, wp_bench::WORKLOAD_SEED).expect("matmul workload assembles"),
            "Table 1 (lower, quick): Matrix Multiply, pipelined (3x3)".into(),
        )
    } else {
        (
            matmul_workload(),
            format!(
                "Table 1 (lower): Matrix Multiply, pipelined ({0}x{0})",
                wp_bench::MATMUL_DIM
            ),
        )
    };
    let mut configs: Vec<(String, RsConfig)> = table1_base_configs();
    if !args.quick {
        configs.push(wp_bench::optimal_config(
            &workload,
            Organization::Pipelined,
            1,
        ));
        configs.extend(table1_two_rs_configs());
        configs.push(wp_bench::optimal_config(
            &workload,
            Organization::Pipelined,
            2,
        ));
    }
    TableSpec {
        title,
        workload,
        configs,
    }
}

fn table_specs(args: &Args) -> Vec<TableSpec> {
    let mut specs = Vec::new();
    if args.program == "sort" || args.program == "both" {
        specs.push(sort_spec(args));
    }
    if args.program == "matmul" || args.program == "both" {
        specs.push(matmul_spec(args));
    }
    specs
}

/// Prints the tables and writes the machine-readable report, exactly the
/// same way for the in-process and the sharded-parent paths.
fn publish(args: &Args, tables: Vec<BenchTable>, wall_seconds: f64) -> std::io::Result<()> {
    for table in &tables {
        println!("{}", format_table(&table.title, &table.rows));
    }
    if let Some(path) = &args.json {
        let runner = args.sweep.runner();
        let report = bench_report_json(
            "table1",
            runner.workers(),
            runner.batch(),
            wall_seconds,
            &tables,
        );
        std::fs::write(path, report)?;
        eprintln!("wrote machine-readable report to {path}");
    }
    Ok(())
}

/// Sweeps the rows of one submission-order `range` (rows are numbered
/// across the tables in order) through the table runner with this
/// invocation's equivalence-gate, lane-packing and period-oracle modes,
/// reporting the sweep setup and the period-oracle saving on stderr.
fn sweep_rows(
    args: &Args,
    specs: &[TableSpec],
    range: Range<usize>,
) -> Result<Vec<TableRow>, Box<dyn std::error::Error>> {
    let runner = args.sweep.runner();
    eprintln!(
        "sweeping wire-pipelined runs across {} worker thread(s), batch {}, equivalence gate {}, \
         lanes {}, oracle {}",
        runner.workers(),
        if runner.batch() == 0 {
            "auto".to_string()
        } else {
            runner.batch().to_string()
        },
        if args.verify { "on" } else { "off" },
        args.sweep.lanes.label(),
        args.sweep.oracle.label(),
    );
    let mut rows = Vec::with_capacity(range.len());
    let mut sweeps = Vec::new();
    let mut offset = 0;
    for spec in specs {
        let span = offset..offset + spec.configs.len();
        let (start, end) = (range.start.max(span.start), range.end.min(span.end));
        if start < end {
            let (spec_rows, stats) = run_table_oracle(
                &runner,
                &spec.workload,
                Organization::Pipelined,
                &spec.configs[start - offset..end - offset],
                args.verify,
                args.sweep.lanes,
                args.sweep.oracle,
            )?;
            rows.extend(spec_rows);
            sweeps.push(stats);
        }
        offset = span.end;
    }
    args.sweep.oracle.report_saving(&sweeps);
    Ok(rows)
}

/// The table of global row `index`, given each table's row count (the
/// tables are numbered in order).
fn table_of(row_counts: &[usize], index: usize) -> usize {
    let mut offset = 0;
    for (table, count) in row_counts.iter().enumerate() {
        offset += count;
        if index < offset {
            return table;
        }
    }
    unreachable!("the protocol validated index < total");
}

/// Decodes the worker record of global row `index`.  The row's table is a
/// function of its index, so the record's own `"table"` member is only a
/// cross-check: a worker with skewed table numbering fails loudly instead
/// of corrupting the merged tables.
fn decode_row(row_counts: &[usize], index: usize, record: &Json) -> Result<TableRow, String> {
    let (table, row) = table_row_from_json(record)?;
    let expected = table_of(row_counts, index);
    if table != expected {
        return Err(format!(
            "tagged table {table}, but the row numbering places row {index} in table \
             {expected}: mismatched worker binary?"
        ));
    }
    Ok(row)
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args();
    let specs = table_specs(&args);
    let row_counts: Vec<usize> = specs.iter().map(|s| s.configs.len()).collect();
    let start = Instant::now();
    let Some(rows) = args.shard.run_rows(
        row_counts.iter().sum(),
        "table row",
        Some(args.verify),
        |range| sweep_rows(&args, &specs, range),
        |index, row| table_row_ndjson(index, table_of(&row_counts, index), row),
        |index, record| decode_row(&row_counts, index, record),
    )?
    else {
        return Ok(());
    };
    let mut rows = rows.into_iter();
    let tables = specs
        .into_iter()
        .map(|spec| BenchTable {
            rows: rows.by_ref().take(spec.configs.len()).collect(),
            title: spec.title,
        })
        .collect();
    publish(&args, tables, start.elapsed().as_secs_f64())?;
    Ok(())
}

fn main() {
    exit_on_error(run());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_record_tagged_with_another_table_is_rejected() {
        let row = TableRow {
            label: "All 1".to_string(),
            golden_cycles: 100,
            wp1_cycles: 200,
            wp2_cycles: 150,
            th_wp1: 0.5,
            th_wp2: 2.0 / 3.0,
            th_wp1_predicted: 0.5,
            improvement_percent: 100.0 / 3.0,
            proven_n_wp1: None,
            proven_n_wp2: Some(7),
        };
        let row_counts = [12, 12];
        let record = |table| Json::parse(&table_row_ndjson(13, table, &row)).expect("parses");
        assert_eq!(decode_row(&row_counts, 13, &record(1)), Ok(row.clone()));
        let err = decode_row(&row_counts, 13, &record(0)).unwrap_err();
        assert!(
            err.contains("row 13 in table 1") && err.contains("mismatched worker binary"),
            "{err}"
        );
    }
}
