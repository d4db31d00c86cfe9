//! # wp-dist — the JSON value type
//!
//! [`Json`] is a minimal RFC 8259 value with a hand-rolled parser (the
//! workspace builds without registry access, so there is no serde).
//! `wp_bench` uses it to read reports back: `bench_compare` parses the
//! metric records of the perf gate, and the tests parse `table1`'s
//! `--json` report.
//!
//! The crate once also held the process-sharding front-end of the
//! experiment binaries.  Every experiment now computes its rows in process
//! on `wp_sim::SweepRunner`'s threads, so only the value type is left.  It
//! keeps its own crate, and its name, because the benchmark package's
//! committed lock file records this crate and its dependency edges.
//!
//! ```
//! use wp_dist::Json;
//!
//! let doc = Json::parse(r#"{"name": "sim.lane_ns_per_cycle", "value": 12.5}"#).unwrap();
//! assert_eq!(doc.get("name").and_then(Json::as_str), Some("sim.lane_ns_per_cycle"));
//! assert_eq!(doc.get("value").and_then(Json::as_f64), Some(12.5));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod json;

pub use json::{Json, JsonError};
