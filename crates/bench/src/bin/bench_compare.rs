//! The CI perf-regression gate: fails when any gated record of a fresh
//! `bench` report falls more than its baseline tolerance below the
//! committed `BENCH_baseline.json`, when a baseline record disappeared, or
//! when either report is malformed.
//!
//! Usage: `bench_compare [--baseline PATH] [--fresh PATH]`
//!
//! Defaults: `--baseline BENCH_baseline.json --fresh BENCH_fresh.json`.
//! Each record's tolerance is read from the baseline.  To refresh the
//! baseline after an intentional change, copy the fresh report over
//! `BENCH_baseline.json` and commit it (see the README's *Refreshing the
//! perf baseline*).

use wp_bench::{compare_reports, exit_on_error, flag_value, parse_metric_records, MetricRecord};
use wp_dist::Json;

fn load(path: &str) -> Result<Vec<MetricRecord>, Box<dyn std::error::Error>> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read report '{path}': {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("report '{path}' is not valid JSON: {e}"))?;
    Ok(parse_metric_records(&doc).map_err(|e| format!("report '{path}' is malformed: {e}"))?)
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name| flag_value(&args, name).unwrap_or_else(|e| e.exit());
    let baseline_path = flag("--baseline").unwrap_or_else(|| "BENCH_baseline.json".to_string());
    let fresh_path = flag("--fresh").unwrap_or_else(|| "BENCH_fresh.json".to_string());

    let result = compare_reports(&load(&baseline_path)?, &load(&fresh_path)?);
    if result.passed() {
        println!(
            "perf gate passed: {} gated record(s) of '{fresh_path}' within tolerance of \
             '{baseline_path}'",
            result.compared,
        );
        return Ok(());
    }
    eprintln!(
        "perf gate FAILED: {} violation(s) against '{baseline_path}':",
        result.failures.len(),
    );
    for failure in &result.failures {
        eprintln!("  - {failure}");
    }
    eprintln!(
        "if the change is intentional, refresh the baseline: \
         cp {fresh_path} {baseline_path} && git add {baseline_path}"
    );
    std::process::exit(1);
}

fn main() {
    exit_on_error(run());
}
