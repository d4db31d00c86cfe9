//! Process-level tests of the worker protocol, `run_dispatched`: real
//! children (`sh` scripts standing in for worker binaries) exercise
//! dispatch, the submission-order merge, retries and every loud-failure
//! class of the protocol — hermetically, with nothing but `sh`.

use std::cell::Cell;
use std::path::PathBuf;

use wp_dist::{run_dispatched, DistError, Json, ShardPlan, ShardSpec};

/// The worker argument list: `sh`-compatible args that print one NDJSON
/// record per index of the shard's plan range, the way a real worker
/// reports its rows.
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

/// The error of the last attempt inside a `RetriesExhausted`, after
/// checking the exhausted shard and attempt count.
fn last_error(err: DistError, shard: usize, attempts: usize) -> DistError {
    match err {
        DistError::RetriesExhausted {
            shard: s,
            attempts: a,
            last,
        } => {
            assert_eq!((s, a), (shard, attempts), "{last}");
            *last
        }
        other => panic!("expected RetriesExhausted, got {other}"),
    }
}

/// A fresh per-test scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wp_dist_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A `--shards n` run merges its shards' records in submission order.
#[test]
fn merges_shard_outputs_in_submission_order() {
    for shards in [1usize, 2, 3, 7] {
        let plan = ShardPlan::split(7, shards);
        let merged = run_dispatched(&plan, "sh", |s| echo_args(&plan, s))
            .unwrap_or_else(|e| panic!("shards = {shards}: {e}"));
        assert_merged(&merged, 7);
    }
}

/// A one-shard run still has a retry: a flaky worker (failing its first
/// attempt only) is re-run once and recovers.
#[test]
fn a_single_host_fleet_still_retries_once_in_place() {
    let dir = scratch_dir("dispatch");
    let marker = dir.join("attempted");

    let plan = ShardPlan::split(2, 1);
    let flaky = format!(
        "if [ -e '{m}' ]; then printf '{{\"index\": 0, \"value\": 0}}\\n{{\"index\": 1, \"value\": 10}}\\n'; \
         else touch '{m}'; exit 1; fi",
        m = marker.display()
    );
    let merged = run_dispatched(&plan, "sh", |_| script(&flaky)).expect("the retry succeeds");
    assert_merged(&merged, 2);
    assert!(marker.exists(), "the first attempt ran and failed");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn more_shards_than_items_spawns_only_populated_shards() {
    let plan = ShardPlan::split(2, 6);
    let spawned = Cell::new(0);
    let merged = run_dispatched(&plan, "sh", |s| {
        spawned.set(spawned.get() + 1);
        echo_args(&plan, s)
    })
    .expect("succeeds");
    assert_merged(&merged, 2);
    assert_eq!(spawned.get(), 2, "empty shards must not spawn workers");
}

#[test]
fn empty_plan_spawns_nothing() {
    let plan = ShardPlan::split(0, 4);
    let merged =
        run_dispatched(&plan, "sh", |_| unreachable!("no shard is populated")).expect("succeeds");
    assert!(merged.is_empty());
}

/// A flaky worker (failing its first attempt only) of a multi-shard run
/// recovers on its retry.
#[test]
fn a_flaky_shard_is_retried_once_and_recovers() {
    let dir = scratch_dir("retry");
    let marker = dir.join("attempted");
    let plan = ShardPlan::split(4, 2);
    let flaky = format!(
        "if [ -e '{m}' ]; then printf '{{\"index\": 2, \"value\": 20}}\\n{{\"index\": 3, \"value\": 30}}\\n'; \
         else touch '{m}'; exit 1; fi",
        m = marker.display()
    );
    let merged = run_dispatched(&plan, "sh", |s| {
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

/// The retry budget of the protocol: a shard whose worker always fails is
/// tried once per shard of the plan — exactly `plan.shards()` attempts —
/// before the run dies with the worker's own error.
#[test]
fn an_always_failing_worker_costs_one_attempt_per_local_slot() {
    let dir = scratch_dir("budget");
    let marker = dir.join("attempts");
    let plan = ShardPlan::split(3, 3);
    // Shard 1's worker records the attempt, then dies by signal; the other
    // shards succeed.
    let doomed = format!("echo attempt >> '{}'; kill -9 $$", marker.display());
    let err = run_dispatched(&plan, "sh", |s| {
        if s == 1 {
            script(&doomed)
        } else {
            echo_args(&plan, s)
        }
    })
    .expect_err("shard 1 never succeeds");
    assert!(err.to_string().contains("all 3 attempt(s) failed"), "{err}");
    match last_error(err, 1, 3) {
        DistError::WorkerFailed { shard, .. } => assert_eq!(shard, 1),
        other => panic!("expected WorkerFailed, got {other}"),
    }
    let attempts = std::fs::read_to_string(&marker).unwrap();
    assert_eq!(attempts.lines().count(), 3, "one attempt per shard");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_shard_dropping_rows_fails_loudly() {
    let plan = ShardPlan::split(4, 2);
    // Shard 1 owns 2..4 but only reports index 2.
    let err = run_dispatched(&plan, "sh", |s| {
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
    let plan = ShardPlan::split(2, 1);
    // Covers 0..2 but reports index 1 twice: the duplicate must not
    // silently last-write-win.
    let err = run_dispatched(&plan, "sh", |_| {
        script("printf '{\"index\": 0}\\n{\"index\": 1}\\n{\"index\": 1}\\n'")
    })
    .expect_err("duplicate records must not merge");
    match last_error(err, 0, 2) {
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
    let plan = ShardPlan::split(2, 2);
    // Both shards claim index 0: shard 0 is right, shard 1 trespasses.
    let err = run_dispatched(&plan, "sh", |_| script("printf '{\"index\": 0}\\n'"))
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
    let plan = ShardPlan::split(2, 1);
    let err = run_dispatched(&plan, "sh", |_| {
        script("printf '{\"index\": 0}\\nnot json at all\\n'")
    })
    .expect_err("malformed records must not merge");
    let last = last_error(err, 0, 2);
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
    let plan = ShardPlan::split(1, 1);
    let err = run_dispatched(&plan, "/nonexistent/worker/binary", |_| Vec::new())
        .expect_err("spawn must fail");
    let last = last_error(err, 0, 2);
    assert!(matches!(last, DistError::Spawn { shard: 0, .. }), "{last}");
}

/// Worker payloads survive the pipe byte-for-byte: awkward labels written
/// with RFC 8259 escaping parse back to the original strings.
#[test]
fn payload_strings_round_trip_through_a_real_pipe() {
    let plan = ShardPlan::split(1, 1);
    let merged = run_dispatched(&plan, "sh", |_| {
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
    // planned for shard 2 of five.
    let plan = ShardPlan::split(13, 5);
    for s in 0..5 {
        let spec = ShardSpec::parse(&format!("{s}/5")).unwrap();
        assert_eq!(spec.range(13), plan.range(s));
    }
}
