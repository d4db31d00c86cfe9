//! # wire-pipelined-soc — umbrella crate
//!
//! Re-exports the public API of the workspace crates that reproduce
//! *"A New System Design Methodology for Wire Pipelined SoC"*
//! (Casu & Macchiarulo, DATE 2005):
//!
//! * [`lex`] (`wp_lex`) — tokenizer of the hand-rolled line-oriented
//!   netlist spec format;
//! * [`core`] (`wp_core`) — latency-insensitive protocol: tokens, relay
//!   stations, WP1/WP2 shells, oracles, equivalence checking;
//! * [`netlist`] (`wp_netlist`) — netlist graph, loop enumeration and the
//!   `m/(m+n)` throughput law;
//! * [`sim`] (`wp_sim`) — golden and wire-pipelined cycle-accurate
//!   simulators;
//! * [`spec`] (`wp_spec`) — the netlist description language (`*.nl`):
//!   parser, canonical printer and registry-checked lowering to every
//!   executable view (see `docs/NETLIST_FORMAT.md`);
//! * [`generator`] (`wp_gen`) — seeded random strongly-connected netlist
//!   specs (named `generator` here because `gen` is a reserved identifier
//!   in newer Rust editions);
//! * [`dse`] (`wp_dse`) — design-space exploration: analytic Pareto search
//!   over relay-station assignments (area cost vs effective throughput);
//! * [`proc`] (`wp_proc`) — the five-block case-study processor, its ISA,
//!   assembler and benchmark programs;
//! * [`floorplan`] (`wp_floorplan`) — placement, wire delay and
//!   relay-station budgeting;
//! * [`area`] (`wp_area`) — wrapper area overhead model;
//! * [`dist`] (`wp_dist`) — the JSON value type the bench reports are
//!   read back with.
//!
//! See the `examples/` directory for runnable entry points and the
//! `wp-bench` crate for the experiment harness that regenerates every table
//! and figure of the paper.

pub use wp_area as area;
pub use wp_core as core;
pub use wp_dist as dist;
pub use wp_dse as dse;
pub use wp_floorplan as floorplan;
pub use wp_gen as generator;
pub use wp_lex as lex;
pub use wp_netlist as netlist;
pub use wp_proc as proc;
pub use wp_sim as sim;
pub use wp_spec as spec;
