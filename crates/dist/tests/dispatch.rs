//! Process-level tests of the one dispatch protocol, `run_dispatched`:
//! real children spawned through `LocalProcess` fleets (what `--shards N`
//! builds) and `ShellTransport` fake hosts (what `--hosts` tests use)
//! exercise dispatch, capacity-weighted planning, failover to a different
//! host, host exhaustion and every loud-failure class of the worker
//! protocol — hermetically, with nothing but `sh`.

use std::cell::Cell;
use std::path::PathBuf;

use wp_dist::{
    parse_hostfile, run_dispatched, DistError, Host, Json, LocalProcess, ShardPlan, ShardSpec,
};

/// A fleet declared through the real hostfile parser, so these tests cover
/// the same path the bench binaries take.
fn shell_fleet(specs: &[(&str, usize, &str)]) -> Vec<Host> {
    let text: String = specs
        .iter()
        .map(|(name, capacity, prefix)| {
            format!("{name} shell capacity={capacity} prefix=\"{prefix}\"\n")
        })
        .collect();
    parse_hostfile(&text).expect("fleet parses")
}

/// The fleet a local `--shards n` run dispatches to: `n` capacity-1
/// `local` hosts running the default binary.
fn local_fleet(n: usize) -> Vec<Host> {
    (0..n)
        .map(|i| Host {
            name: format!("local{i}"),
            capacity: 1,
            binary: None,
            transport: Box::new(LocalProcess),
        })
        .collect()
}

/// The uniform plan over a fleet's capacities.
fn plan_for(hosts: &[Host], n_items: usize) -> ShardPlan {
    let capacities: Vec<usize> = hosts.iter().map(|h| h.capacity).collect();
    ShardPlan::split_weighted(n_items, &capacities)
}

/// The worker argument list: `sh`-compatible args that print one NDJSON
/// record per index of the shard's plan range.  The "binary" of every host
/// defaults to `default_binary` (`sh` here), exactly like a real worker
/// whose binary path came from the parent executable.
fn echo_args(plan: &ShardPlan, shard: usize) -> Vec<String> {
    let lines: String = plan
        .range(shard)
        .map(|i| format!("printf '{{\"index\": {i}, \"value\": {}}}\\n'\n", i * 10))
        .collect();
    script(&lines)
}

/// `sh -c SCRIPT` as a worker argument list.
fn script(text: &str) -> Vec<String> {
    vec!["-c".to_string(), text.to_string()]
}

fn assert_merged(merged: &[Json], n: usize) {
    assert_eq!(merged.len(), n);
    for (i, record) in merged.iter().enumerate() {
        assert_eq!(record.get("index").unwrap().as_usize(), Some(i));
        assert_eq!(record.get("value").unwrap().as_u64(), Some(i as u64 * 10));
    }
}

/// The error of the last attempt inside a `HostsExhausted`, after checking
/// the exhausted shard and fleet size.
fn last_error(err: DistError, shard: usize, hosts: usize) -> DistError {
    match err {
        DistError::HostsExhausted {
            shard: s,
            hosts: h,
            last,
        } => {
            assert_eq!((s, h), (shard, hosts), "{last}");
            *last
        }
        other => panic!("expected HostsExhausted, got {other}"),
    }
}

/// A fresh per-test scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wp_dist_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn dispatches_one_shard_per_host_and_merges_in_submission_order() {
    let hosts = shell_fleet(&[("a", 1, ""), ("b", 1, ""), ("c", 1, "")]);
    let plan = ShardPlan::split_weighted(7, &[1, 1, 1]);
    let merged =
        run_dispatched(&plan, &hosts, "sh", |s| echo_args(&plan, s)).expect("all hosts succeed");
    assert_merged(&merged, 7);
}

/// A `--shards n` local fleet merges its shards' records in submission
/// order, and its weighted plan is the uniform split.
#[test]
fn merges_shard_outputs_in_submission_order() {
    for shards in [1usize, 2, 3, 7] {
        let hosts = local_fleet(shards);
        let plan = plan_for(&hosts, 7);
        assert_eq!(plan, ShardPlan::split(7, shards));
        let merged = run_dispatched(&plan, &hosts, "sh", |s| echo_args(&plan, s))
            .unwrap_or_else(|e| panic!("shards = {shards}: {e}"));
        assert_merged(&merged, 7);
    }
}

#[test]
fn capacity_weights_size_each_hosts_shard() {
    let hosts = shell_fleet(&[("small", 1, ""), ("big", 3, "")]);
    let capacities: Vec<usize> = hosts.iter().map(|h| h.capacity).collect();
    let plan = ShardPlan::split_weighted(8, &capacities);
    assert_eq!(plan.range(0), 0..2, "capacity 1 of 4 owns a quarter");
    assert_eq!(plan.range(1), 2..8, "capacity 3 of 4 owns three quarters");
    let merged = run_dispatched(&plan, &hosts, "sh", |s| echo_args(&plan, s)).expect("succeeds");
    assert_merged(&merged, 8);
}

/// The failover acceptance criterion: a shard whose first host *always*
/// fails completes on the second host within the bounded retry.
#[test]
fn a_shard_on_an_always_failing_host_fails_over_to_another_host() {
    // Host 'sick' dies before the worker starts, on every attempt; host
    // 'well' runs workers normally.  Shard 0 (assigned to 'sick') must be
    // re-dispatched to 'well' rather than retried on 'sick'.
    let hosts = shell_fleet(&[("sick", 1, "exit 1 #"), ("well", 1, "")]);
    let plan = ShardPlan::split_weighted(4, &[1, 1]);
    let merged = run_dispatched(&plan, &hosts, "sh", |s| echo_args(&plan, s))
        .expect("shard 0 completes on the second host");
    assert_merged(&merged, 4);
}

/// Every permutation of one sick host among three recovers: failover walks
/// the other hosts regardless of which shard was hit.
#[test]
fn failover_recovers_whichever_host_is_sick() {
    for sick in 0..3usize {
        let specs: Vec<(String, usize, &str)> = (0..3)
            .map(|i| (format!("h{i}"), 1, if i == sick { "exit 9 #" } else { "" }))
            .collect();
        let text: String = specs
            .iter()
            .map(|(n, c, p)| format!("{n} shell capacity={c} prefix=\"{p}\"\n"))
            .collect();
        let hosts = parse_hostfile(&text).unwrap();
        let plan = ShardPlan::split_weighted(6, &[1, 1, 1]);
        let merged = run_dispatched(&plan, &hosts, "sh", |s| echo_args(&plan, s))
            .unwrap_or_else(|e| panic!("sick host {sick}: {e}"));
        assert_merged(&merged, 6);
    }
}

/// A `DistError` is raised only when *all* hosts are exhausted.
#[test]
fn all_hosts_failing_exhausts_the_fleet_loudly() {
    let hosts = shell_fleet(&[("dead0", 1, "exit 1 #"), ("dead1", 1, "exit 2 #")]);
    let plan = ShardPlan::split_weighted(4, &[1, 1]);
    let err = run_dispatched(&plan, &hosts, "sh", |s| echo_args(&plan, s))
        .expect_err("no host can run anything");
    match &err {
        DistError::HostsExhausted { shard, hosts, last } => {
            assert_eq!(*hosts, 2);
            assert!(matches!(**last, DistError::WorkerFailed { .. }), "{last}");
            assert!(*shard < 2);
        }
        other => panic!("expected HostsExhausted, got {other}"),
    }
    assert!(err.to_string().contains("exhausted"), "{err}");
}

/// With a single host there is no alternative: a flaky worker (failing
/// its first attempt only) is retried once on the same host and recovers.
#[test]
fn a_single_host_fleet_still_retries_once_in_place() {
    let dir = scratch_dir("dispatch");
    let marker = dir.join("attempted");

    let hosts = shell_fleet(&[("only", 2, "")]);
    let plan = ShardPlan::split_weighted(2, &[2]);
    let flaky = format!(
        "if [ -e '{m}' ]; then printf '{{\"index\": 0, \"value\": 0}}\\n{{\"index\": 1, \"value\": 10}}\\n'; \
         else touch '{m}'; exit 1; fi",
        m = marker.display()
    );
    let merged = run_dispatched(&plan, &hosts, "sh", |_| script(&flaky))
        .expect("the same-host retry succeeds");
    assert_merged(&merged, 2);
    assert!(marker.exists(), "the first attempt ran and failed");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A host that corrupts the NDJSON stream (garbage before the records) is
/// failed over like any other launcher failure.
#[test]
fn a_host_corrupting_the_stream_is_failed_over() {
    let hosts = shell_fleet(&[("noisy", 1, "echo garbage;"), ("clean", 1, "")]);
    let plan = ShardPlan::split_weighted(2, &[1, 1]);
    let merged = run_dispatched(&plan, &hosts, "sh", |s| echo_args(&plan, s))
        .expect("shard 0 recovers on the clean host");
    assert_merged(&merged, 2);
}

/// Hosts beyond the item count get empty shards and spawn nothing — the
/// dispatcher only launches populated shards.
#[test]
fn empty_shards_spawn_no_workers() {
    let hosts = shell_fleet(&[("a", 1, ""), ("b", 1, "exit 1 #"), ("c", 1, "exit 1 #")]);
    // One item across three hosts: only shard 0 is populated, and it lands
    // on the healthy host, so the sick hosts are never touched.
    let plan = ShardPlan::split_weighted(1, &[1, 0, 0]);
    let merged = run_dispatched(&plan, &hosts, "sh", |s| echo_args(&plan, s)).expect("succeeds");
    assert_merged(&merged, 1);
}

#[test]
fn more_shards_than_items_spawns_only_populated_shards() {
    let hosts = local_fleet(6);
    let plan = plan_for(&hosts, 2);
    let spawned = Cell::new(0);
    let merged = run_dispatched(&plan, &hosts, "sh", |s| {
        spawned.set(spawned.get() + 1);
        echo_args(&plan, s)
    })
    .expect("succeeds");
    assert_merged(&merged, 2);
    assert_eq!(spawned.get(), 2, "empty shards must not spawn workers");
}

#[test]
fn empty_plan_spawns_nothing() {
    let hosts = local_fleet(4);
    let plan = plan_for(&hosts, 0);
    let merged = run_dispatched(&plan, &hosts, "sh", |_| {
        unreachable!("no shard is populated")
    })
    .expect("succeeds");
    assert!(merged.is_empty());
}

/// A flaky worker (failing its first attempt only) on a multi-slot local
/// fleet recovers on the next slot.
#[test]
fn a_flaky_shard_is_retried_once_and_recovers() {
    let dir = scratch_dir("retry");
    let marker = dir.join("attempted");
    let hosts = local_fleet(2);
    let plan = plan_for(&hosts, 4);
    let flaky = format!(
        "if [ -e '{m}' ]; then printf '{{\"index\": 2, \"value\": 20}}\\n{{\"index\": 3, \"value\": 30}}\\n'; \
         else touch '{m}'; exit 1; fi",
        m = marker.display()
    );
    let merged = run_dispatched(&plan, &hosts, "sh", |s| {
        if s == 1 {
            script(&flaky)
        } else {
            echo_args(&plan, s)
        }
    })
    .expect("the retry succeeds");
    assert_merged(&merged, 4);
    assert!(marker.exists(), "the first attempt ran and failed");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The retry budget of the one protocol: a shard whose worker always fails
/// is tried once on every slot of a local fleet — exactly `hosts.len()`
/// attempts — before the run dies with the worker's own error.
#[test]
fn an_always_failing_worker_costs_one_attempt_per_local_slot() {
    let dir = scratch_dir("budget");
    let marker = dir.join("attempts");
    let hosts = local_fleet(3);
    let plan = plan_for(&hosts, 3);
    // Shard 1's worker records the attempt, then dies by signal; the other
    // shards succeed.
    let doomed = format!("echo attempt >> '{}'; kill -9 $$", marker.display());
    let err = run_dispatched(&plan, &hosts, "sh", |s| {
        if s == 1 {
            script(&doomed)
        } else {
            echo_args(&plan, s)
        }
    })
    .expect_err("shard 1 never succeeds");
    assert!(err.to_string().contains("all 3 host(s) exhausted"), "{err}");
    match last_error(err, 1, 3) {
        DistError::WorkerFailed { shard, .. } => assert_eq!(shard, 1),
        other => panic!("expected WorkerFailed, got {other}"),
    }
    let attempts = std::fs::read_to_string(&marker).unwrap();
    assert_eq!(attempts.lines().count(), 3, "one attempt per local slot");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_shard_dropping_rows_fails_loudly() {
    let hosts = local_fleet(2);
    let plan = plan_for(&hosts, 4);
    // Shard 1 owns 2..4 but only reports index 2.
    let err = run_dispatched(&plan, &hosts, "sh", |s| {
        if s == 1 {
            script("printf '{\"index\": 2}\\n'")
        } else {
            echo_args(&plan, s)
        }
    })
    .expect_err("a dropped row must not merge");
    match last_error(err, 1, 2) {
        DistError::WrongIndices {
            shard,
            expected,
            got,
        } => {
            assert_eq!(shard, 1);
            assert_eq!(expected, 2..4);
            assert_eq!(got, vec![2]);
        }
        other => panic!("expected WrongIndices, got {other}"),
    }
}

#[test]
fn a_shard_double_emitting_a_row_fails_loudly() {
    let hosts = local_fleet(1);
    let plan = plan_for(&hosts, 2);
    // Covers 0..2 but reports index 1 twice: the duplicate must not
    // silently last-write-win.
    let err = run_dispatched(&plan, &hosts, "sh", |_| {
        script("printf '{\"index\": 0}\\n{\"index\": 1}\\n{\"index\": 1}\\n'")
    })
    .expect_err("duplicate records must not merge");
    match last_error(err, 0, 1) {
        DistError::WrongIndices {
            shard,
            expected,
            got,
        } => {
            assert_eq!(shard, 0);
            assert_eq!(expected, 0..2);
            assert_eq!(got, vec![0, 1, 1]);
        }
        other => panic!("expected WrongIndices, got {other}"),
    }
}

#[test]
fn a_shard_reporting_foreign_indices_fails_loudly() {
    let hosts = local_fleet(2);
    let plan = plan_for(&hosts, 2);
    // Both shards claim index 0: shard 0 is right, shard 1 trespasses.
    let err = run_dispatched(&plan, &hosts, "sh", |_| {
        script("printf '{\"index\": 0}\\n'")
    })
    .expect_err("trespassing records must not merge");
    match last_error(err, 1, 2) {
        DistError::WrongIndices {
            shard,
            expected,
            got,
        } => {
            assert_eq!(shard, 1);
            assert_eq!(expected, 1..2);
            assert_eq!(got, vec![0]);
        }
        other => panic!("expected WrongIndices, got {other}"),
    }
}

#[test]
fn malformed_worker_output_names_the_shard_and_line() {
    let hosts = local_fleet(1);
    let plan = plan_for(&hosts, 2);
    let err = run_dispatched(&plan, &hosts, "sh", |_| {
        script("printf '{\"index\": 0}\\nnot json at all\\n'")
    })
    .expect_err("malformed records must not merge");
    let last = last_error(err, 0, 1);
    match &last {
        DistError::Malformed { shard, line, .. } => {
            assert_eq!(*shard, 0);
            assert_eq!(*line, 2);
        }
        other => panic!("expected Malformed, got {other}"),
    }
    assert!(last.to_string().contains("shard 0"), "{last}");
}

#[test]
fn an_unspawnable_worker_surfaces_a_spawn_error() {
    let hosts = local_fleet(1);
    let plan = plan_for(&hosts, 1);
    let err = run_dispatched(&plan, &hosts, "/nonexistent/worker/binary", |_| Vec::new())
        .expect_err("spawn must fail");
    let last = last_error(err, 0, 1);
    assert!(matches!(last, DistError::Spawn { shard: 0, .. }), "{last}");
}

/// Worker payloads survive the pipe byte-for-byte: awkward labels written
/// with RFC 8259 escaping parse back to the original strings.
#[test]
fn payload_strings_round_trip_through_a_real_pipe() {
    let hosts = local_fleet(1);
    let plan = plan_for(&hosts, 1);
    let merged = run_dispatched(&plan, &hosts, "sh", |_| {
        script(r#"printf '{"index": 0, "label": "a\\"b\\\\c\\u0007d", "th": 0.75}\n'"#)
    })
    .expect("succeeds");
    assert_eq!(
        merged[0].get("label").unwrap().as_str(),
        Some("a\"b\\c\u{7}d")
    );
    assert_eq!(merged[0].get("th").unwrap().as_f64(), Some(0.75));
    // And the record re-serialises to parseable JSON.
    let reparsed = Json::parse(&merged[0].to_string()).unwrap();
    assert_eq!(&reparsed, &merged[0]);
}

#[test]
fn shard_spec_and_plan_agree_on_worker_ranges() {
    // A worker parsing `--shard 2/5` must own exactly the range the parent
    // planned for shard 2 of a five-slot local fleet.
    let plan = plan_for(&local_fleet(5), 13);
    for s in 0..5 {
        let spec = ShardSpec::parse(&format!("{s}/5")).unwrap();
        assert_eq!(spec.range(13), plan.range(s));
    }
}
