//! End-to-end proof that the experiment binaries' results do not depend on
//! the worker-thread count: every row-sweeping binary under `--workers 1`
//! prints byte-identical stdout — and `table1` a `BENCH_table1.json`
//! identical modulo the wall-time field and the worker count it records —
//! to its run under the default worker count.

mod common;

use common::assert_every_binary_is_worker_count_independent;

#[test]
fn one_worker_reproduces_the_default_worker_count_byte_for_byte() {
    let runs = assert_every_binary_is_worker_count_independent();
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
