//! The golden simulator: the original, un-pipelined synchronous system.
//!
//! Every process fires every clock cycle and every channel behaves as a plain
//! registered wire (the consumer sees, at cycle *t*, the value the producer
//! presented at cycle *t*).  The golden run defines both the reference cycle
//! count used to compute wire-pipelined throughput and the reference channel
//! realisations used by the equivalence check.
//!
//! # The allocation-free step
//!
//! Golden runs are the shared denominator of every experiment (each table
//! row divides by a golden cycle count), so [`GoldenSimulator::step`]
//! follows the same discipline as the wire-pipelined kernel
//! ([`crate::LidSimulator`]): the per-cycle delivered values live in a
//! persistent [`PortArena`] built once at construction (flat slab +
//! precomputed per-process port offsets) instead of the seed's per-cycle
//! nested `Vec<Vec<Option<V>>>` scratch, and the sampling loop writes each
//! channel's value straight into its consumer's slot.  With channel traces
//! disabled the step performs **zero heap allocations in steady state**
//! (assuming `V: Clone` does not itself allocate, as for all workloads in
//! this workspace).
//!
//! The seed implementation survives as [`crate::NaiveGoldenSimulator`]; the
//! `golden_equivalence` property tests assert cycle-identical behaviour.

use wp_core::{Process, TraceArena};

use crate::arena::PortArena;
use crate::spec::{ChannelSpec, ProcessId, SimError, SystemBuilder};

/// The golden (zero relay station, always-firing) simulator.
pub struct GoldenSimulator<V> {
    processes: Vec<Box<dyn Process<V>>>,
    channels: Vec<ChannelSpec>,
    /// Arena-backed channel recordings: one shared payload slab plus
    /// per-channel `(cycle, slot)` index lists (see [`TraceArena`]).
    traces: TraceArena<V>,
    /// Persistent per-cycle delivered values (see the module docs):
    /// allocated once in [`GoldenSimulator::new`], reused by every
    /// [`GoldenSimulator::step`].
    arena: PortArena<Option<V>>,
    trace_enabled: bool,
    cycles: u64,
}

impl<V> std::fmt::Debug for GoldenSimulator<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GoldenSimulator")
            .field("processes", &self.processes.len())
            .field("channels", &self.channels.len())
            .field("cycles", &self.cycles)
            .finish()
    }
}

impl<V: Clone + PartialEq> GoldenSimulator<V> {
    /// Builds the golden simulator from a validated system description.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidSystem`] when the description is not fully
    /// and consistently connected.
    pub fn new(builder: SystemBuilder<V>) -> Result<Self, SimError> {
        builder.validate()?;
        let (processes, channels) = builder.into_parts();
        let traces = TraceArena::new(channels.iter().map(|c| c.name.clone()));
        let arena = PortArena::new(processes.iter().map(|p| p.num_inputs()), || None);
        Ok(Self {
            processes,
            channels,
            traces,
            arena,
            trace_enabled: true,
            cycles: 0,
        })
    }

    /// Enables or disables channel-trace recording (enabled by default).
    pub fn set_trace_enabled(&mut self, enabled: bool) {
        self.trace_enabled = enabled;
    }

    /// Number of cycles simulated so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Immutable access to a process (e.g. to read architectural state after
    /// the run).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn process(&self, id: ProcessId) -> &dyn Process<V> {
        self.processes[id].as_ref()
    }

    /// Returns `true` when the given process reports a halted state.
    pub fn is_halted(&self, id: ProcessId) -> bool {
        self.processes[id].is_halted()
    }

    /// Simulates one clock cycle: every channel transports the value its
    /// producer currently presents and every process fires.
    ///
    /// Performs no heap allocation in steady state: the delivered values
    /// live in the persistent [`PortArena`] and every process fires on a
    /// borrowed slice of it (see the module docs).  With traces enabled —
    /// the default — each transported value is additionally cloned into the
    /// [`TraceArena`], which itself records allocation-free once capacity
    /// is reserved ([`GoldenSimulator::reserve_traces`]).
    pub fn step(&mut self) {
        let Self {
            processes,
            channels,
            traces,
            arena,
            trace_enabled,
            ..
        } = self;

        // Phase 1: per channel, sample the producer's current output into
        // the consumer's arena slot.  Validation guarantees every
        // (process, input-port) slot is written by exactly one channel, so
        // the arena needs no clearing; no process fires until phase 2, so
        // every sample sees the pre-cycle outputs.
        for (idx, c) in channels.iter().enumerate() {
            let value = processes[c.src].output(c.src_port);
            if *trace_enabled {
                traces.record_valid(idx, value.clone());
            }
            arena.set(c.dst, c.dst_port, Some(value));
        }
        // Phase 2: fire every process on its borrowed arena slice.
        for (i, p) in processes.iter_mut().enumerate() {
            p.fire(arena.of(i));
        }
        self.cycles += 1;
    }

    /// Runs until the process `halt_on` reports [`Process::is_halted`] or the
    /// cycle limit is reached, and returns the number of cycles executed.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MaxCyclesExceeded`] when the limit is hit first.
    pub fn run_until_halt(&mut self, halt_on: ProcessId, max_cycles: u64) -> Result<u64, SimError> {
        while !self.processes[halt_on].is_halted() {
            if self.cycles >= max_cycles {
                return Err(SimError::MaxCyclesExceeded { max_cycles });
            }
            self.step();
        }
        Ok(self.cycles)
    }

    /// Runs for exactly `cycles` additional cycles.
    pub fn run_for(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step();
        }
    }
}

crate::arena::impl_trace_arena_accessors!(GoldenSimulator);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{Forward, Terminator};
    use wp_core::SequenceSource;

    /// src -> fwd -> term: a fully connected, halting pipeline.
    fn halting_pipeline() -> SystemBuilder<u64> {
        let mut b = SystemBuilder::new();
        let src = b.add_process(Box::new(SequenceSource::new("src", vec![1, 2, 3, 4], 0)));
        let fwd = b.add_process(Box::new(Forward::new("fwd")));
        let term = b.add_process(Box::new(Terminator::new("term")));
        b.connect("src_fwd", src, 0, fwd, 0, 0);
        b.connect("fwd_term", fwd, 0, term, 0, 0);
        b
    }

    /// Two forwarding blocks in a loop (never halts).
    fn ring() -> SystemBuilder<u64> {
        let mut b = SystemBuilder::new();
        let f1 = b.add_process(Box::new(Forward::new("f1")));
        let f2 = b.add_process(Box::new(Forward::new("f2")));
        b.connect("f1_f2", f1, 0, f2, 0, 0);
        b.connect("f2_f1", f2, 0, f1, 0, 0);
        b
    }

    #[test]
    fn unconnected_port_is_rejected() {
        let mut b = SystemBuilder::new();
        b.add_process(Box::new(Forward::new("lonely")));
        assert!(GoldenSimulator::new(b).is_err());
    }

    #[test]
    fn golden_fires_every_process_every_cycle() {
        let mut sim = GoldenSimulator::new(ring()).unwrap();
        sim.run_for(5);
        assert_eq!(sim.cycles(), 5);
        assert_eq!(sim.traces().num_channels(), 2);
        assert_eq!(sim.traces().channel(0).len(), 5);
        // In the golden system every cycle carries an informative token.
        assert_eq!(sim.traces().channel(0).valid_count(), 5);
    }

    #[test]
    fn halting_run_reports_cycle_count() {
        let mut sim = GoldenSimulator::new(halting_pipeline()).unwrap();
        let cycles = sim.run_until_halt(0, 1000).unwrap();
        // The source halts after emitting its 4 values (one per cycle).
        assert_eq!(cycles, 4);
        assert!(sim.is_halted(0));
        // The values observed on src_fwd are the emitted sequence.
        assert_eq!(sim.traces().channel(0).filtered(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn terminator_receives_values_with_pipeline_latency() {
        let mut sim = GoldenSimulator::new(halting_pipeline()).unwrap();
        sim.run_for(6);
        // fwd_term lags src_fwd by one firing (Forward resets to 0).
        assert_eq!(sim.traces().channel(1).filtered(), vec![0, 1, 2, 3, 4, 0]);
    }

    #[test]
    fn max_cycles_guard_triggers() {
        let mut sim = GoldenSimulator::new(ring()).unwrap();
        let err = sim.run_until_halt(0, 10).unwrap_err();
        assert!(matches!(
            err,
            SimError::MaxCyclesExceeded { max_cycles: 10 }
        ));
        assert_eq!(sim.cycles(), 10);
    }

    #[test]
    fn trace_recording_can_be_disabled() {
        let mut sim = GoldenSimulator::new(ring()).unwrap();
        sim.set_trace_enabled(false);
        sim.run_for(3);
        assert_eq!(sim.traces().channel(0).len(), 0);
        assert_eq!(sim.cycles(), 3);
    }

    #[test]
    fn process_accessor_exposes_state() {
        let sim = GoldenSimulator::new(halting_pipeline()).unwrap();
        assert_eq!(sim.process(1).name(), "fwd");
    }
}
