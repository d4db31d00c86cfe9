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
//! * [`Transport`] — the pluggable launcher layer that runs a worker
//!   command line *somewhere*: [`LocalProcess`] (a plain child on this
//!   machine), [`Ssh`] (the argv shell-quoted behind `ssh host --`),
//!   [`Container`] (`docker|podman run` with the repo image) and
//!   [`ShellTransport`] (`sh -c` with an arbitrary prefix — the hermetic
//!   fake host the tests and the CI dispatch smoke use);
//! * [`Host`] / [`parse_hostfile`] / [`load_hostfile`] — the `--hosts
//!   hosts.conf` fleet declaration (name, transport, capacity, binary path
//!   per host; hand-rolled parser, every violation names its line);
//! * [`run_dispatched`] — the one parent side of the worker protocol: one
//!   shard per host, sized by [`ShardPlan::split_weighted`] over the
//!   declared capacities; spawn one child per non-empty shard, collect
//!   each child's NDJSON stdout, verify that every shard reported exactly
//!   the indices it was assigned, and merge the payloads in submission
//!   order.  A failed shard (spawn error, crash, non-zero exit, malformed
//!   or missing records) **fails over** to the other hosts in turn (a
//!   one-host fleet retries once in place), and only when every host is
//!   exhausted does the run die loudly
//!   ([`DistError::HostsExhausted`], naming the shard).  A local
//!   `--shards N` run is the same call over a fleet of `N` capacity-1
//!   [`LocalProcess`] hosts.
//!
//! The result merge is *bit-identical* to a single-process run by
//! construction: shard boundaries (and host assignment) only decide which
//! process executes a scenario, never what the scenario computes, and the
//! payloads are reassembled purely by submission index.  `wp_bench`'s
//! experiment binaries build on this crate for their `--shards N` /
//! `--shard i/N` / `--emit-ndjson` / `--hosts hosts.conf` flags.
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

mod hostfile;
mod json;
mod plan;
mod proto;
mod transport;

pub use hostfile::{load_hostfile, parse_hostfile, Host};
pub use json::{Json, JsonError};
pub use plan::ShardPlan;
pub use proto::{parse_ndjson, run_dispatched, DistError, ShardRecord, ShardSpec};
pub use transport::{shell_quote, Container, LocalProcess, ShellTransport, Ssh, Transport};
