//! End-to-end proof that the experiment binaries' results depend neither
//! on process sharding nor on the worker-thread count: every sharding
//! binary under `--shards 2` (real forked worker processes) and under
//! `--workers 1` prints byte-identical stdout — and `table1` a
//! `BENCH_table1.json` identical modulo the wall-time field (and, across
//! worker counts, the worker count it records) — to its in-process run
//! under the default worker count.

mod common;

use std::process::Command;

use common::{
    assert_every_binary_is_worker_count_independent, assert_every_binary_matches_in_process,
    SHARDING_CASES, TABLE1,
};

#[test]
fn two_shards_reproduce_the_single_process_run_byte_for_byte() {
    let runs = assert_every_binary_matches_in_process(&["--shards", "2"], "shards2");
    let table1 = &runs[0].stdout;
    assert!(
        table1.contains("Table 1 (upper, quick)") && table1.contains("Table 1 (lower, quick)"),
        "the quick run prints both tables:\n{table1}"
    );
    assert!(
        table1.contains("N WP1"),
        "--verify surfaces the proven-N columns:\n{table1}"
    );
}

#[test]
fn one_worker_reproduces_the_default_worker_count_byte_for_byte() {
    let runs = assert_every_binary_is_worker_count_independent();
    assert!(
        runs[0].stdout.contains("Table 1 (upper, quick)"),
        "the quick run prints Table 1:\n{}",
        runs[0].stdout
    );
}

/// Every mode prints the period-oracle saving: under `--shards 2` each
/// `figure1 --oracle on` worker reports its share on the inherited stderr.
#[test]
fn sharded_figure1_workers_report_the_oracle_saving() {
    let case = SHARDING_CASES
        .iter()
        .find(|case| case.name == "figure1" && case.args == ["--oracle", "on"])
        .expect("figure1 --oracle on is pinned");
    let stderr = case.run(&["--shards", "2"], "oracle_stderr").stderr;
    assert_eq!(
        stderr.matches("oracle: simulated").count(),
        2,
        "one oracle summary per worker:\n{stderr}"
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
    let stdout_ref = TABLE1.run(&["--program", "sort"], "stale_ref").stdout;
    for shards in ["40", "18446744073709551615"] {
        let stdout_many = TABLE1
            .run(&["--program", "sort", "--shards", shards], "stale")
            .stdout;
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
