//! # wp_dse — design-space exploration over relay-station assignments
//!
//! The paper's end goal is not simulating one relay assignment but
//! *choosing* one: trading relay-station area against sustained throughput
//! across the whole assignment space.  This crate is the optimizer that
//! exploits the analytical machinery for that choice at
//! millions-of-configurations scale:
//!
//! * [`SearchSpace`] frames the problem (or says why a spec frames none,
//!   [`SpaceError`]).  Each channel carries a physical
//!   wire latency (declared `latency=`, or implied by its declared relay
//!   count at the reference clock — see
//!   `wp_spec::NetlistSpec::wire_latencies`); an assignment giving channel
//!   `i` `rᵢ` stations splits its wire into `rᵢ + 1` segments, each of
//!   which must fit in one clock period, so the assignment's fastest
//!   feasible clock is `T(r) = max(T_logic, maxᵢ ℓᵢ/(rᵢ+1))`.  More
//!   stations buy a faster clock but land on loops, where the law
//!   `Th = m/(m+n)` taxes every extra station — the genuinely conflicting
//!   pair the search trades off.
//! * [`Evaluator`] scores candidates analytically with the exact
//!   maximum-cycle-ratio solver (`wp_netlist::McrSolver`, built once per
//!   topology) for the cycle throughput, and the clock law converts it to
//!   the *effective* throughput `Th(r)/T(r)` in firings per time unit.
//!   An exhaustive range scores a whole block of candidates that differ
//!   only in channel 0 at once ([`Evaluator::score_block`]): one
//!   `McrSolver::solve_sweep` (a Karp pass plus one walk pass) gives every
//!   channel-0 count's throughput, and the periods come from a
//!   per-channel segment table.  A walk step costs one incremental
//!   re-solve ([`Evaluator::score`]).  No simulation anywhere in the
//!   search loop, and no allocation per candidate.
//! * [`CostMap`] and [`ParetoPoint`] rank candidates into an
//!   (area-cost, effective-throughput) Pareto frontier with a
//!   deterministic total order, so merging partial results is commutative
//!   and the frontier is byte-identical regardless of worker count or work
//!   chunking.
//! * [`search`] drives the whole thing over a deterministic [`WorkUnit`]
//!   plan: exhaustive enumeration for small spaces (contiguous index
//!   ranges, each decoded once and then stepped as an odometer), seeded
//!   neighborhood walks (mutate one channel's relay budget, re-solve
//!   incrementally) for large ones.
//!
//! Simulation is demoted to spot-verification of the reported frontier;
//! the `dse` binary in `wp_bench` re-runs only the frontier points through
//! the lane-packed kernel and fails loudly on analytic-vs-measured
//! divergence.

#![warn(missing_docs)]

mod pareto;
mod search;
mod space;

pub use pareto::{CostMap, ParetoPoint};
pub use search::{
    merge_outcomes, plan_units, run_unit, run_units, search, DseConfig, DseOutcome, SearchMode,
    UnitOutcome, WorkUnit, DEFAULT_EXHAUSTIVE_LIMIT, DEFAULT_STEPS, DEFAULT_UNITS, DEFAULT_WALKS,
};
pub use space::{Evaluator, Score, SearchSpace, SpaceError};
