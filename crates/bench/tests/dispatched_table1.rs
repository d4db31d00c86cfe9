//! End-to-end proof of the cross-machine acceptance criterion: every
//! sharding binary under `--hosts <2 shell fake hosts>` (real dispatched
//! worker processes) produces byte-identical stdout — and `table1` a
//! `BENCH_table1.json` identical modulo the wall-time field — to its
//! in-process run, including when the first host always fails and its
//! shard must fail over to the second.

mod common;

use std::path::PathBuf;
use std::process::Command;

use common::{assert_every_binary_matches_in_process, temp_path, without_wall_time, TABLE1};

fn write_hostfile(tag: &str, text: &str) -> PathBuf {
    let path = temp_path(&format!("dispatched_{tag}"), "conf");
    std::fs::write(&path, text).expect("hostfile written");
    path
}

#[test]
fn two_shell_fake_hosts_reproduce_the_in_process_run_byte_for_byte() {
    let hosts = write_hostfile(
        "pair",
        "# two fake hosts on this machine, equal shares\n\
         fake0 shell capacity=1\n\
         fake1 shell capacity=1\n",
    );
    assert_every_binary_matches_in_process(&["--hosts", hosts.to_str().unwrap()], "hosts");
    let _ = std::fs::remove_file(&hosts);
}

/// The failover acceptance criterion, end to end: the first host always
/// fails, so its shard completes on the second host — and the merged
/// output is still byte-identical.
#[test]
fn an_always_failing_first_host_fails_over_and_stays_byte_identical() {
    let hosts = write_hostfile(
        "failover",
        "sick shell capacity=1 prefix=\"exit 1 #\"\n\
         well shell capacity=1\n",
    );
    let reference = TABLE1.run(&["--program", "sort"], "failover_ref");
    let failed_over = TABLE1.run(
        &["--program", "sort", "--hosts", hosts.to_str().unwrap()],
        "failover",
    );
    let _ = std::fs::remove_file(&hosts);

    assert_eq!(
        reference.stdout, failed_over.stdout,
        "failover must not change output"
    );
    assert_eq!(
        reference.report.as_deref().map(without_wall_time),
        failed_over.report.as_deref().map(without_wall_time)
    );
}

/// When every host is sick the run dies loudly, naming the exhaustion.
#[test]
fn a_fleet_of_dead_hosts_fails_loudly() {
    let hosts = write_hostfile(
        "dead",
        "dead0 shell capacity=1 prefix=\"exit 1 #\"\n\
         dead1 shell capacity=1 prefix=\"exit 2 #\"\n",
    );
    let output = Command::new(env!("CARGO_BIN_EXE_table1"))
        .args([
            "--quick",
            "--program",
            "sort",
            "--hosts",
            hosts.to_str().unwrap(),
        ])
        .output()
        .expect("table1 runs");
    let _ = std::fs::remove_file(&hosts);
    assert!(!output.status.success(), "no host could run anything");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("exhausted"),
        "stderr names the exhaustion:\n{stderr}"
    );
}

/// A malformed hostfile is an immediate, line-numbered error.
#[test]
fn a_malformed_hostfile_names_its_offending_line() {
    let hosts = write_hostfile("bad", "ok shell capacity=1\nbad teleport capacity=1\n");
    let output = Command::new(env!("CARGO_BIN_EXE_table1"))
        .args(["--quick", "--hosts", hosts.to_str().unwrap()])
        .output()
        .expect("table1 runs");
    let _ = std::fs::remove_file(&hosts);
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("line 2") && stderr.contains("teleport"),
        "stderr names the line:\n{stderr}"
    );
}
