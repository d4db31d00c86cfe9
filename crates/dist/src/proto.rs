//! The parent side of the worker protocol: spawn, collect NDJSON, merge.
//!
//! A *worker* is a child process (normally a re-invocation of the current
//! executable with `--shard i/N --emit-ndjson`) that runs one contiguous
//! submission-order range of a sweep and prints one JSON object per
//! completed item to stdout — newline-delimited JSON (NDJSON).  Every
//! record carries the item's global submission index in an `"index"`
//! member; everything else is payload the caller interprets.
//!
//! The parent ([`run_dispatched`]) spawns all populated shards concurrently
//! as local child processes, validates each child's output (exit status,
//! well-formed records, and *exactly* the planned index set — no holes, no
//! duplicates, no trespassing into another shard's range) and merges the
//! payloads in submission order.  A shard that fails validation is re-run;
//! only when its retries are used up does the run abort with a
//! [`DistError`] naming the shard, so a lost worker can never silently drop
//! rows.

use std::fmt;
use std::io;
use std::ops::Range;
use std::process::{Child, Command, Output, Stdio};

use crate::json::{Json, JsonError};
use crate::plan::ShardPlan;

/// This worker's identity within a sharded run, as spelled on the command
/// line: `--shard i/N` with `0 <= i < N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// The zero-based shard index.
    pub index: usize,
    /// The total shard count.
    pub total: usize,
}

impl ShardSpec {
    /// Parses the `i/N` spelling (`0/4`, `3/4`, …).
    ///
    /// # Errors
    ///
    /// Returns [`DistError::BadSpec`] unless `value` is `i/N` with
    /// `i < N` and `N > 0`.
    pub fn parse(value: &str) -> Result<Self, DistError> {
        let bad = || DistError::BadSpec {
            value: value.to_string(),
        };
        let (index, total) = value.split_once('/').ok_or_else(bad)?;
        let index: usize = index.parse().map_err(|_| bad())?;
        let total: usize = total.parse().map_err(|_| bad())?;
        if total == 0 || index >= total {
            return Err(bad());
        }
        Ok(Self { index, total })
    }

    /// The submission-order range this worker owns within a plan over
    /// `n_items`: `i·n/N .. (i+1)·n/N`, the same split the parent computes
    /// with [`ShardPlan::split`], but without materialising the other
    /// `N − 1` ranges (`N` may be far larger than `n_items`).
    pub fn range(&self, n_items: usize) -> Range<usize> {
        let bound = |shard: usize| (shard as u128 * n_items as u128 / self.total as u128) as usize;
        bound(self.index)..bound(self.index + 1)
    }
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.total)
    }
}

/// One parsed NDJSON worker record: a submission index plus the record's
/// full JSON object (the `"index"` member included).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRecord {
    /// The global submission-order index the record reports.
    pub index: usize,
    /// The whole record object.
    pub payload: Json,
}

/// Why a sharded run failed.  Every variant names the offending shard, so
/// the operator can re-run it in isolation with `--shard i/N`.
#[derive(Debug)]
pub enum DistError {
    /// A malformed `--shard` value.
    BadSpec {
        /// The raw value given.
        value: String,
    },
    /// A worker could not be spawned.
    Spawn {
        /// The failing shard.
        shard: usize,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// A worker exited unsuccessfully (non-zero status or killed by a
    /// signal).
    WorkerFailed {
        /// The failing shard.
        shard: usize,
        /// The exit status description.
        status: String,
    },
    /// A worker's stdout line was not a valid NDJSON record.
    Malformed {
        /// The failing shard.
        shard: usize,
        /// The 1-based line number within the worker's output.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// A worker reported a different index set than its plan range
    /// (missing, duplicated or trespassing records).
    WrongIndices {
        /// The failing shard.
        shard: usize,
        /// The range the plan assigned to it.
        expected: Range<usize>,
        /// The indices it actually reported, in output order.
        got: Vec<usize>,
    },
    /// A dispatched shard failed on every attempt ([`run_dispatched`]).
    RetriesExhausted {
        /// The failing shard.
        shard: usize,
        /// How many times the shard's worker was run.
        attempts: usize,
        /// The error of the last attempt.
        last: Box<DistError>,
    },
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::BadSpec { value } => {
                write!(f, "--shard expects i/N with i < N, got '{value}'")
            }
            DistError::Spawn { shard, source } => {
                write!(f, "shard {shard}: failed to spawn worker: {source}")
            }
            DistError::WorkerFailed { shard, status } => {
                write!(f, "shard {shard}: worker failed ({status})")
            }
            DistError::Malformed {
                shard,
                line,
                message,
            } => write!(
                f,
                "shard {shard}: malformed record on line {line}: {message}"
            ),
            DistError::WrongIndices {
                shard,
                expected,
                got,
            } => write!(
                f,
                "shard {shard}: expected exactly indices {}..{}, got {got:?}",
                expected.start, expected.end
            ),
            DistError::RetriesExhausted {
                shard,
                attempts,
                last,
            } => write!(
                f,
                "shard {shard}: all {attempts} attempt(s) failed; last error: {last}"
            ),
        }
    }
}

impl std::error::Error for DistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DistError::Spawn { source, .. } => Some(source),
            DistError::RetriesExhausted { last, .. } => Some(last.as_ref()),
            _ => None,
        }
    }
}

/// Parses a worker's NDJSON stdout: one JSON object per non-empty line,
/// each with a non-negative integer `"index"` member.
///
/// # Errors
///
/// Returns [`DistError::Malformed`] (attributed to `shard`) on the first
/// undecodable line.
pub fn parse_ndjson(shard: usize, stdout: &str) -> Result<Vec<ShardRecord>, DistError> {
    let malformed = |line: usize, message: String| DistError::Malformed {
        shard,
        line,
        message,
    };
    let mut records = Vec::new();
    for (number, line) in stdout.lines().enumerate() {
        let number = number + 1;
        if line.trim().is_empty() {
            continue;
        }
        let payload = Json::parse(line).map_err(|e: JsonError| malformed(number, e.to_string()))?;
        let index = payload
            .get("index")
            .and_then(Json::as_usize)
            .ok_or_else(|| {
                malformed(
                    number,
                    "record has no non-negative integer \"index\" member".to_string(),
                )
            })?;
        records.push(ShardRecord { index, payload });
    }
    Ok(records)
}

/// Drains one spawned worker to completion (stdout to EOF, then the exit
/// status).
fn collect_output(shard: usize, child: Result<Child, io::Error>) -> Result<Output, DistError> {
    let child = child.map_err(|source| DistError::Spawn { shard, source })?;
    child
        .wait_with_output()
        .map_err(|source| DistError::Spawn { shard, source })
}

/// Validates one drained worker: exit status, well-formed NDJSON, and
/// exactly the planned index set.
fn validate_shard(
    shard: usize,
    expected: &Range<usize>,
    output: Output,
) -> Result<Vec<ShardRecord>, DistError> {
    if !output.status.success() {
        return Err(DistError::WorkerFailed {
            shard,
            status: output.status.to_string(),
        });
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let records = parse_ndjson(shard, &stdout)?;
    let mut got: Vec<usize> = records.iter().map(|r| r.index).collect();
    let mut sorted = got.clone();
    sorted.sort_unstable();
    sorted.dedup();
    // Exactly the planned index set: a deduplicated sorted list of
    // expected.len() integers whose min is expected.start and whose max is
    // expected.end - 1 must be exactly {start, .., end - 1}; requiring the
    // pre-dedup length to match too rejects duplicate records (a
    // double-emitted row must not silently last-write-win).
    let exact = got.len() == expected.len()
        && sorted.len() == expected.len()
        && sorted.first() == Some(&expected.start)
        && sorted.last() == Some(&(expected.end - 1));
    if !exact {
        got.sort_unstable();
        return Err(DistError::WrongIndices {
            shard,
            expected: expected.clone(),
            got,
        });
    }
    Ok(records)
}

/// Spawns one local worker process per populated shard of `plan` —
/// `program` with the argument list `make_args(shard)` — and merges their
/// records in submission order.
///
/// A shard whose worker fails (spawn error, crash, non-zero exit,
/// malformed or missing records) is re-run, up to one attempt per shard of
/// the plan and at least twice, so one flaky worker cannot kill a sweep.
/// Only when every attempt has failed does the shard's
/// [`DistError::RetriesExhausted`] abort the run.  The argument list
/// depends only on the shard, so a retried shard re-runs identical work
/// and the merge stays bit-identical to a single-process run.
///
/// Every worker's stdout is piped (stderr inherited, so worker progress
/// messages still reach the terminal).  On success the returned vector has
/// exactly `plan.items()` entries — the full record object of each
/// submission index, in submission order.
///
/// # Errors
///
/// Returns [`DistError::RetriesExhausted`] (wrapping the last attempt's
/// error) for the first shard that failed on every attempt.
pub fn run_dispatched(
    plan: &ShardPlan,
    program: &str,
    make_args: impl Fn(usize) -> Vec<String>,
) -> Result<Vec<Json>, DistError> {
    let spawn = |shard: usize| {
        Command::new(program)
            .args(make_args(shard))
            .stdout(Stdio::piped())
            .spawn()
    };

    // First wave, concurrently: every populated shard in its own process,
    // each child's stdout drained on its own thread — draining them one
    // after the other would let a not-yet-waited worker fill its OS pipe
    // buffer and block mid-sweep, serialising the wave.
    let children: Vec<(usize, Result<Child, io::Error>)> = plan
        .populated_shards()
        .map(|shard| (shard, spawn(shard)))
        .collect();
    let outputs: Vec<(usize, Result<Output, DistError>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = children
            .into_iter()
            .map(|(shard, child)| (shard, scope.spawn(move || collect_output(shard, child))))
            .collect();
        handles
            .into_iter()
            .map(|(shard, handle)| (shard, handle.join().expect("drain thread never panics")))
            .collect()
    });

    // Retries, sequentially in shard order.  A lone child's pipe is
    // drained to EOF by `wait_with_output`, so no second thread is needed
    // here.
    let attempts = plan.shards().max(2);
    let mut slots: Vec<Option<Json>> = (0..plan.items()).map(|_| None).collect();
    for (shard, output) in outputs {
        let expected = plan.range(shard);
        let mut result = output.and_then(|output| validate_shard(shard, &expected, output));
        for _ in 1..attempts {
            let Err(error) = &result else { break };
            eprintln!("wp_dist: {error}; re-running shard {shard}");
            result = collect_output(shard, spawn(shard))
                .and_then(|output| validate_shard(shard, &expected, output));
        }
        match result {
            Ok(records) => {
                for record in records {
                    slots[record.index] = Some(record.payload);
                }
            }
            Err(last) => {
                return Err(DistError::RetriesExhausted {
                    shard,
                    attempts,
                    last: Box::new(last),
                })
            }
        }
    }
    Ok(slots
        .into_iter()
        .map(|slot| slot.expect("every index was validated against its shard range"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_spec_parses_the_i_slash_n_spelling() {
        assert_eq!(
            ShardSpec::parse("0/4").unwrap(),
            ShardSpec { index: 0, total: 4 }
        );
        assert_eq!(
            ShardSpec::parse("3/4").unwrap(),
            ShardSpec { index: 3, total: 4 }
        );
        assert_eq!(ShardSpec::parse("3/4").unwrap().to_string(), "3/4");
        for bad in ["", "4", "4/4", "5/4", "0/0", "-1/4", "a/b", "1/2/3"] {
            let err = ShardSpec::parse(bad).unwrap_err();
            assert!(err.to_string().contains(bad), "{err}");
        }
    }

    #[test]
    fn shard_spec_range_matches_the_plan() {
        for (n_items, total) in [(10, 3), (0, 4), (3, 7), (13, 5), (12, 40), (1000, 999)] {
            let plan = ShardPlan::split(n_items, total);
            for index in 0..total {
                let spec = ShardSpec::parse(&format!("{index}/{total}")).unwrap();
                assert_eq!(
                    spec.range(n_items),
                    plan.range(index),
                    "{spec} of {n_items}"
                );
            }
        }
    }

    /// A shard count far beyond any plan that fits in memory still yields
    /// the worker's one range, without building the plan.
    #[test]
    fn a_huge_shard_count_computes_its_range_directly() {
        let first = ShardSpec::parse("0/18446744073709551615").unwrap();
        assert_eq!(first.total, usize::MAX);
        assert_eq!(first.range(12), 0..0);
        let last = ShardSpec {
            index: usize::MAX - 1,
            total: usize::MAX,
        };
        assert_eq!(last.range(12), 11..12);
        assert_eq!(last.range(usize::MAX), usize::MAX - 1..usize::MAX);
    }

    #[test]
    fn ndjson_parsing_skips_blank_lines_and_requires_an_index() {
        let records = parse_ndjson(0, "{\"index\": 1, \"x\": 2}\n\n{\"index\": 0}\n").unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].index, 1);
        assert_eq!(records[0].payload.get("x").unwrap().as_u64(), Some(2));
        assert_eq!(records[1].index, 0);

        let err = parse_ndjson(3, "{\"index\": 0}\n{\"nope\": 1}\n").unwrap_err();
        assert!(matches!(
            err,
            DistError::Malformed {
                shard: 3,
                line: 2,
                ..
            }
        ));
        let err = parse_ndjson(3, "{oops\n").unwrap_err();
        assert!(err.to_string().contains("shard 3"), "{err}");
    }
}
