//! # wp-sim — cycle-accurate simulators for wire-pipelined systems
//!
//! Two simulators share one system description ([`SystemBuilder`]):
//!
//! * [`GoldenSimulator`] executes the original, un-pipelined synchronous
//!   system (every process fires every cycle) and produces the reference
//!   cycle count and channel realisations;
//! * [`LidSimulator`] wraps every process in a latency-insensitive shell
//!   (WP1 strict or WP2 oracle, selected through
//!   [`wp_core::ShellConfig`]) and realises every channel as a chain of relay
//!   stations, reproducing the wire-pipelined implementations evaluated in
//!   the paper.
//!
//! Throughput is measured as firings per cycle of a designated process, and
//! functional correctness is established by comparing the τ-filtered channel
//! realisations of the two simulators with one checker,
//! [`wp_core::StreamingEquivalence`]: while the candidate runs (a sweep's
//! [`Scenario::with_equivalence_check`]), or over two finished recordings
//! ([`wp_core::check_equivalence`]).  Every simulator records into a
//! [`wp_core::TraceArena`], borrowed through its `traces()` accessor, which
//! stays allocation-free in steady state once capacity is reserved.
//!
//! Three more pieces support experiments at scale:
//!
//! * [`LaneLidSimulator`] steps up to 64 instances of one netlist at once
//!   on bit-packed control planes, and holds the one steady-state period
//!   oracle ([`LaneLidSimulator::run_until_firings_extrapolated`]): a
//!   single extrapolating run is a one-lane batch;
//! * [`SweepRunner`] runs many independent `(ShellConfig × relay-station
//!   assignment × program)` scenarios across `std::thread` workers with a
//!   work-stealing, batching scheduler and collects one [`LidReport`] per
//!   scenario, always in submission order; a scenario armed with
//!   [`Scenario::with_equivalence_check`] is additionally streamed against
//!   a demand-stepped golden twin while it runs, and its proven
//!   equivalence prefix lands in [`SweepOutcome::equivalence`];
//! * [`NaiveSimulator`] and [`NaiveGoldenSimulator`] preserve the seed
//!   (allocation-heavy) simulator steps as the references the
//!   allocation-free [`LidSimulator`] and [`GoldenSimulator`] kernels are
//!   property-tested and benchmarked against.
//!
//! Each kernel has one drive loop.  The scalar kernels run their goals
//! through their own `run_until_halt`/`run_until_firings`/`run_for`, and
//! the lane kernel runs every batch — plain, drained or extrapolating —
//! through one private loop over a per-lane status, with the period
//! oracle as phases of that loop.
//!
//! ```
//! use wp_core::{Process, ShellConfig};
//! use wp_sim::{GoldenSimulator, LidSimulator, SystemBuilder};
//!
//! // A trivial one-block system: a counter that feeds itself.
//! struct Counter { value: u64 }
//! impl Process<u64> for Counter {
//!     fn name(&self) -> &str { "counter" }
//!     fn num_inputs(&self) -> usize { 1 }
//!     fn num_outputs(&self) -> usize { 1 }
//!     fn output(&self, _p: usize) -> u64 { self.value }
//!     fn fire(&mut self, inputs: &[Option<u64>]) {
//!         if let Some(v) = inputs[0] { self.value = v + 1; }
//!     }
//!     fn reset(&mut self) { self.value = 0; }
//! }
//!
//! let mut builder = SystemBuilder::new();
//! let c = builder.add_process(Box::new(Counter { value: 0 }));
//! builder.connect("self_loop", c, 0, c, 0, 1);
//!
//! let mut sim = LidSimulator::new(builder, ShellConfig::strict())?;
//! sim.run_until_firings(c, 10, 1000)?;
//! // One process and one relay station in the loop: Th = 1/2.
//! assert_eq!(sim.cycles(), 20);
//! # Ok::<(), wp_sim::SimError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arena;
mod golden;
mod lane;
mod lid;
mod naive;
mod oracle;
mod spec;
mod sweep;
#[cfg(test)]
mod testutil;

pub use arena::{LanePlaneArena, PortArena, WireArena};
pub use golden::GoldenSimulator;
pub use lane::{LaneLidSimulator, LaneOutcome, LaneScenario, StallSchedule, MAX_LANES};
pub use lid::{LidReport, LidSimulator, DEFAULT_DEADLOCK_WINDOW};
pub use naive::{NaiveGoldenSimulator, NaiveSimulator};
pub use oracle::{OracleFallback, OracleRun, ORACLE_DETECTION_WINDOW};
pub use spec::{ChannelId, ChannelSpec, ProcessId, SimError, SystemBuilder};
pub use sweep::{RunGoal, Scenario, SweepError, SweepOutcome, SweepRunner, SweepStats};
