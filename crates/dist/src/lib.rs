//! # wp-dist — process-sharded sweep front-end
//!
//! The experiments of the paper are *sweeps*: many independent scenarios
//! whose results are submission-ordered and scheduling-independent
//! (`wp_sim::SweepRunner`).  That contract makes them trivially
//! distributable: split the submission order into contiguous ranges, run one
//! range per worker **process**, and reassemble the per-scenario results in
//! submission order.  This crate is that front-end:
//!
//! * [`ShardPlan`] — the planner.  [`ShardPlan::split`]`(n_items, n_shards)`
//!   produces contiguous submission-order ranges (the same formula that
//!   seeds the in-process work-stealing deques), handling more shards than
//!   items (trailing shards get empty ranges) and empty plans;
//! * [`Json`] — a minimal RFC 8259 value type with a hand-rolled parser
//!   (the workspace builds without registry access, so no serde); workers
//!   emit newline-delimited JSON (NDJSON) records and the parent parses
//!   them back;
//! * [`run_dispatched`] — the parent side of the worker protocol: spawn
//!   one local child process per non-empty shard, collect each child's
//!   NDJSON stdout, verify that every shard reported exactly the indices
//!   it was assigned, and merge the payloads in submission order.  A failed
//!   shard (spawn error, crash, non-zero exit, malformed or missing
//!   records) is re-run, and only when its retries are used up does the
//!   run die loudly ([`DistError::RetriesExhausted`], naming the shard).
//!
//! The result merge is *bit-identical* to a single-process run by
//! construction: shard boundaries only decide which process executes a
//! scenario, never what the scenario computes, and the payloads are
//! reassembled purely by submission index.  `wp_bench`'s experiment
//! binaries build on this crate for their `--shards N` / `--shard i/N` /
//! `--emit-ndjson` flags, and its reports use [`Json`] too.
//!
//! ```
//! use wp_dist::ShardPlan;
//!
//! // 10 scenarios over 4 worker processes: contiguous, covering, ordered.
//! let plan = ShardPlan::split(10, 4);
//! let ranges: Vec<_> = plan.ranges().collect();
//! assert_eq!(ranges, vec![0..2, 2..5, 5..7, 7..10]);
//! // More shards than scenarios: the extra shards simply get empty ranges.
//! assert!(ShardPlan::split(2, 5).ranges().any(|r| r.is_empty()));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod json;
mod plan;
mod proto;

pub use json::{Json, JsonError};
pub use plan::ShardPlan;
pub use proto::{parse_ndjson, run_dispatched, DistError, ShardRecord, ShardSpec};
