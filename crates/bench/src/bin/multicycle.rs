//! Reproduces the multicycle-organisation experiment discussed in the text of
//! Section 3: the CU-IC loop is excited only once per five-phase instruction,
//! so WP2 recovers most of the throughput lost to relay stations on the links
//! that are exercised rarely, where WP1 cannot.

use wp_bench::{format_table, matmul_workload, run_table, sort_workload, table1_base_configs};
use wp_proc::Organization;

fn main() {
    // No arguments: any flag or positional is an argument error, not
    // silently ignored.
    let args: Vec<String> = std::env::args().skip(1).collect();
    wp_bench::accept_flags(&args, &[]).unwrap_or_else(|e| e.exit());
    for (name, workload) in [
        ("Extraction Sort", sort_workload()),
        ("Matrix Multiply", matmul_workload()),
    ] {
        let rows = run_table(&workload, Organization::Multicycle, &table1_base_configs())
            .expect("multicycle table runs");
        println!(
            "{}",
            format_table(&format!("Multicycle case: {name}"), &rows)
        );
        if let Some(cu_ic) = rows.iter().find(|r| r.label == "Only CU-IC") {
            println!(
                "CU-IC loop, multicycle: WP1 Th = {:.3}, WP2 Th = {:.3}  (WP2 vs WP1: {:+.0}%)\n",
                cu_ic.th_wp1, cu_ic.th_wp2, cu_ic.improvement_percent
            );
        }
    }
}
