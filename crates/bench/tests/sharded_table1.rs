//! End-to-end proof of the sharding acceptance criterion: `table1 --quick
//! --verify --shards 2` (real forked worker processes) produces
//! byte-identical table output and `BENCH_table1.json` (modulo the
//! wall-time field) to `--shards 1`.

use std::path::PathBuf;
use std::process::Command;

/// Runs the real `table1` binary and returns (stdout, report JSON).
fn run_table1(extra: &[&str], json_path: &std::path::Path) -> (String, String) {
    let json = json_path.to_str().expect("utf-8 temp path");
    let output = Command::new(env!("CARGO_BIN_EXE_table1"))
        .args(["--quick", "--verify", "--json", json])
        .args(extra)
        .output()
        .expect("table1 runs");
    assert!(
        output.status.success(),
        "table1 {extra:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 table output");
    let report = std::fs::read_to_string(json_path).expect("report was written");
    (stdout, report)
}

/// The report with its wall-clock line dropped (the only field a sharded
/// run is allowed to differ in).
fn without_wall_time(report: &str) -> String {
    report
        .lines()
        .filter(|line| !line.contains("\"wall_seconds\""))
        .collect::<Vec<_>>()
        .join("\n")
}

fn temp_json(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "wp_bench_sharded_{tag}_{}.json",
        std::process::id()
    ))
}

#[test]
fn two_shards_reproduce_the_single_process_run_byte_for_byte() {
    let json1 = temp_json("shards1");
    let json2 = temp_json("shards2");
    let (stdout1, report1) = run_table1(&["--shards", "1"], &json1);
    let (stdout2, report2) = run_table1(&["--shards", "2"], &json2);
    let _ = std::fs::remove_file(&json1);
    let _ = std::fs::remove_file(&json2);

    assert!(
        stdout1.contains("Table 1 (upper, quick)") && stdout1.contains("Table 1 (lower, quick)"),
        "the quick run prints both tables:\n{stdout1}"
    );
    assert!(
        stdout1.contains("N WP1"),
        "--verify surfaces the proven-N columns:\n{stdout1}"
    );
    assert_eq!(
        stdout1, stdout2,
        "sharded table output must be byte-identical"
    );
    assert_ne!(report1, "", "the report was written");
    assert_eq!(
        without_wall_time(&report1),
        without_wall_time(&report2),
        "sharded reports must be identical modulo wall time"
    );
}

#[test]
fn worker_mode_emits_one_parseable_record_per_assigned_row() {
    let output = Command::new(env!("CARGO_BIN_EXE_table1"))
        .args(["--quick", "--program", "sort", "--shard", "1/3"])
        .output()
        .expect("table1 runs");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).expect("utf-8 NDJSON");
    // 12 quick sort rows over 3 shards: shard 1 owns rows 4..8.
    let records = wp_dist::parse_ndjson(1, &stdout).expect("worker output parses");
    assert_eq!(records.len(), 4, "shard 1/3 of 12 rows owns 4:\n{stdout}");
    assert_eq!(
        records.iter().map(|r| r.index).collect::<Vec<_>>(),
        vec![4, 5, 6, 7]
    );
    for record in &records {
        let (table, row) = wp_bench::table_row_from_json(&record.payload).expect("rows reassemble");
        assert_eq!(table, 0);
        assert!(row.golden_cycles > 0);
        assert!(
            row.proven_n_wp1.is_none(),
            "no --verify means no proven N in the records"
        );
    }
}

/// More shards than rows — up to a count no plan could hold in memory —
/// still merges to the in-process output.
#[test]
fn a_stale_shard_plan_larger_than_the_rows_still_merges() {
    let json_ref = temp_json("ref");
    let (stdout_ref, _) = run_table1(&["--program", "sort"], &json_ref);
    let _ = std::fs::remove_file(&json_ref);
    for shards in ["40", "18446744073709551615"] {
        let json = temp_json("many");
        let (stdout_many, _) = run_table1(&["--program", "sort", "--shards", shards], &json);
        let _ = std::fs::remove_file(&json);
        assert_eq!(
            stdout_many, stdout_ref,
            "{shards} shards over 12 rows still merge"
        );
    }
}

/// A mistyped `--program` (flag or positional) is an argument error: exit
/// code 2, a typed message on stderr, and no report written — never an
/// empty table that exits 0.
#[test]
fn an_unknown_program_is_rejected_without_writing_a_report() {
    let cwd = std::env::temp_dir().join(format!("wp_bench_program_typo_{}", std::process::id()));
    std::fs::create_dir_all(&cwd).expect("temp cwd");
    for args in [
        &["--program", "sortt", "--quick"][..],
        &["sortt", "--quick"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_table1"))
            .args(args)
            .current_dir(&cwd)
            .output()
            .expect("table1 runs");
        assert_eq!(output.status.code(), Some(2), "table1 {args:?}");
        assert!(output.stdout.is_empty(), "table1 {args:?} printed a table");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("--program expects one of sort, matmul, both, got 'sortt'"),
            "table1 {args:?}: {stderr}"
        );
    }
    let written: Vec<_> = std::fs::read_dir(&cwd).expect("temp cwd").collect();
    let _ = std::fs::remove_dir_all(&cwd);
    assert!(written.is_empty(), "table1 wrote {written:?}");
}
