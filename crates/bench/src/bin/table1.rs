//! Reproduces Table 1 of the paper: Extraction Sort and Matrix Multiply on
//! the pipelined processor, over the relay-station configuration sweep,
//! comparing WP1 (strict shells) with WP2 (oracle shells).
//!
//! The 2 × configurations wire-pipelined runs of each table are swept across
//! worker threads by `wp_sim::SweepRunner`'s work-stealing scheduler; the
//! output does not depend on the worker count.
//!
//! Usage: `table1 [--program sort|matmul|both] [--quick] [--verify]
//! [--workers N] [--batch N] [--lanes on|off|auto] [--oracle on|off|auto]
//! [--json PATH]`
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

use std::time::Instant;

use wp_bench::cli::Table1Args;
use wp_bench::{
    bench_report_json, exit_on_error, format_table, matmul_workload, run_table_oracle,
    sort_workload, table1_base_configs, table1_two_rs_configs, BenchTable,
};
use wp_proc::{extraction_sort, matrix_multiply, Organization, RsConfig, Workload};

/// One table of the experiment: its caption, workload and the
/// relay-station configurations of its rows.
struct TableSpec {
    title: String,
    workload: Workload,
    configs: Vec<(String, RsConfig)>,
}

fn sort_spec(args: &Table1Args) -> TableSpec {
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

fn matmul_spec(args: &Table1Args) -> TableSpec {
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

fn table_specs(args: &Table1Args) -> Vec<TableSpec> {
    let mut specs = Vec::new();
    if args.program == "sort" || args.program == "both" {
        specs.push(sort_spec(args));
    }
    if args.program == "matmul" || args.program == "both" {
        specs.push(matmul_spec(args));
    }
    specs
}

/// Prints the tables and writes the machine-readable report.
fn publish(args: &Table1Args, tables: &[BenchTable], wall_seconds: f64) -> std::io::Result<()> {
    for table in tables {
        println!("{}", format_table(&table.title, &table.rows));
    }
    if let Some(path) = &args.json {
        let runner = args.sweep.runner();
        let report = bench_report_json(
            "table1",
            runner.workers(),
            runner.batch(),
            wall_seconds,
            tables,
        );
        std::fs::write(path, report)?;
        eprintln!("wrote machine-readable report to {path}");
    }
    Ok(())
}

/// Sweeps every table through the table runner with this invocation's
/// equivalence-gate, lane-packing and period-oracle modes, reporting the
/// sweep setup and the period-oracle saving on stderr.
fn sweep_tables(
    args: &Table1Args,
    specs: Vec<TableSpec>,
) -> Result<Vec<BenchTable>, Box<dyn std::error::Error>> {
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
    let mut tables = Vec::with_capacity(specs.len());
    let mut sweeps = Vec::with_capacity(specs.len());
    for spec in specs {
        let (rows, stats) = run_table_oracle(
            &runner,
            &spec.workload,
            Organization::Pipelined,
            &spec.configs,
            args.verify,
            args.sweep.lanes,
            args.sweep.oracle,
        )?;
        tables.push(BenchTable {
            title: spec.title,
            rows,
        });
        sweeps.push(stats);
    }
    args.sweep.oracle.report_saving(&sweeps);
    Ok(tables)
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Table1Args::from_args(&argv).unwrap_or_else(|e| e.exit());
    let specs = table_specs(&args);
    let start = Instant::now();
    let tables = sweep_tables(&args, specs)?;
    publish(&args, &tables, start.elapsed().as_secs_f64())?;
    Ok(())
}

fn main() {
    exit_on_error(run());
}
