//! The seed (pre-arena) simulator steps, preserved as references.
//!
//! [`NaiveSimulator`] is behaviourally identical to [`LidSimulator`] — the
//! kernel-equivalence property tests assert cycle-identical reports and
//! channel traces on randomized netlists — but keeps the original
//! implementation strategy of the repository's seed:
//!
//! * two nested `Vec<Vec<_>>` scratch structures are heap-allocated on every
//!   simulated cycle;
//! * every producer token is cloned into a per-channel buffer for the relay
//!   chain update phase, and the chains buffer their inter-station wires in
//!   freshly allocated vectors ([`RelayChain::update_buffered`]);
//! * the system-wide firing count is recomputed by scanning every shell
//!   before and after each update phase.
//!
//! [`NaiveGoldenSimulator`] plays the same role for the golden path: it
//! keeps the seed `GoldenSimulator::step` (a per-cycle `Vec<V>` of sampled
//! values plus a nested `Vec<Vec<Option<V>>>` input scratch) as the oracle
//! the arena-based [`GoldenSimulator`] is property-tested against.
//!
//! They exist for two reasons: as the *oracles* the allocation-free kernels
//! are property-tested against, and as the *baselines* the criterion benches
//! measure the kernels' speedups over.  They should never be used for real
//! experiments.
//!
//! [`GoldenSimulator`]: crate::GoldenSimulator

use wp_core::{ChannelTrace, Process, RelayChain, Shell, ShellConfig, Token, TraceArena};

use crate::lid::LidReport;
use crate::spec::{check_shell_config, ChannelSpec, ProcessId, SimError, SystemBuilder};

/// The seed implementation of the latency-insensitive simulator: same
/// observable behaviour as [`LidSimulator`], per-cycle heap allocations and
/// shell re-scans included (see the module docs for why it is kept).
///
/// [`LidSimulator`]: crate::LidSimulator
pub struct NaiveSimulator<V> {
    shells: Vec<Shell<V>>,
    channels: Vec<ChannelSpec>,
    chains: Vec<RelayChain<V>>,
    traces: Vec<ChannelTrace<V>>,
    trace_enabled: bool,
    cycles: u64,
    cycles_since_firing: u64,
    deadlock_window: u64,
}

impl<V> std::fmt::Debug for NaiveSimulator<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NaiveSimulator")
            .field("shells", &self.shells.len())
            .field("channels", &self.channels.len())
            .field("cycles", &self.cycles)
            .finish()
    }
}

impl<V: Clone + PartialEq> NaiveSimulator<V> {
    /// Builds the simulator exactly like [`LidSimulator::new`].
    ///
    /// [`LidSimulator::new`]: crate::LidSimulator::new
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidSystem`] when the description is not fully
    /// and consistently connected, or when `config` asks for input queues
    /// of fewer than two slots.
    pub fn new(builder: SystemBuilder<V>, config: ShellConfig) -> Result<Self, SimError> {
        builder.validate()?;
        check_shell_config(&config)?;
        let (processes, channels) = builder.into_parts();
        let shells = processes
            .into_iter()
            .map(|p| Shell::new(p, config))
            .collect();
        let chains = channels
            .iter()
            .map(|c| RelayChain::new(c.relay_stations))
            .collect();
        let traces = channels
            .iter()
            .map(|c| ChannelTrace::new(c.name.clone()))
            .collect();
        Ok(Self {
            shells,
            channels,
            chains,
            traces,
            trace_enabled: true,
            cycles: 0,
            cycles_since_firing: 0,
            deadlock_window: crate::lid::DEFAULT_DEADLOCK_WINDOW,
        })
    }

    /// Enables or disables channel-trace recording (enabled by default).
    pub fn set_trace_enabled(&mut self, enabled: bool) {
        self.trace_enabled = enabled;
    }

    /// Changes the deadlock-detection window (consecutive firing-free cycles).
    pub fn set_deadlock_window(&mut self, cycles: u64) {
        self.deadlock_window = cycles;
    }

    /// Number of cycles simulated so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Number of firings performed by a process so far.
    pub fn firings(&self, id: ProcessId) -> u64 {
        self.shells[id].firings()
    }

    /// The recorded channel traces (one per channel, in channel order).
    pub fn traces(&self) -> &[ChannelTrace<V>] {
        &self.traces
    }

    /// Immutable access to the enclosed process.
    pub fn process(&self, id: ProcessId) -> &dyn Process<V> {
        self.shells[id].process()
    }

    /// Returns `true` when the given process reports a halted state.
    pub fn is_halted(&self, id: ProcessId) -> bool {
        self.shells[id].is_halted()
    }

    /// Simulates one clock cycle, allocating its scratch state on the heap
    /// like the seed implementation did.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Protocol`] on a latency-insensitive protocol
    /// violation.
    pub fn step(&mut self) -> Result<(), SimError> {
        let n_proc = self.shells.len();

        // Phase 1: sample every wire from the registered outputs.
        let mut shell_inputs: Vec<Vec<Token<V>>> = (0..n_proc)
            .map(|i| vec![Token::Void; self.shells[i].num_inputs()])
            .collect();
        let mut shell_out_stops: Vec<Vec<bool>> = (0..n_proc)
            .map(|i| vec![false; self.shells[i].num_outputs()])
            .collect();
        let mut producer_tokens: Vec<Token<V>> = Vec::with_capacity(self.channels.len());
        let mut consumer_stops: Vec<bool> = Vec::with_capacity(self.channels.len());

        for (idx, ch) in self.channels.iter().enumerate() {
            let prod_token = self.shells[ch.src].output(ch.src_port);
            let cons_stop = self.shells[ch.dst].stop_out(ch.dst_port);
            let delivered = self.chains[idx].output(&prod_token);
            let upstream_stop = self.chains[idx].stop_out(cons_stop);

            if self.trace_enabled {
                let accepted = delivered.is_valid() && !cons_stop;
                self.traces[idx].record(if accepted {
                    delivered.clone()
                } else {
                    Token::Void
                });
            }

            shell_inputs[ch.dst][ch.dst_port] = delivered;
            shell_out_stops[ch.src][ch.src_port] = upstream_stop;
            producer_tokens.push(prod_token);
            consumer_stops.push(cons_stop);
        }

        // Phase 2: update every shell and every relay chain, recomputing the
        // system firing count by scanning the shells before and after.
        let firings_before: u64 = self.shells.iter().map(Shell::firings).sum();
        for (i, shell) in self.shells.iter_mut().enumerate() {
            shell.update(&shell_inputs[i], &shell_out_stops[i])?;
        }
        for (idx, chain) in self.chains.iter_mut().enumerate() {
            chain.update_buffered(producer_tokens[idx].clone(), consumer_stops[idx])?;
        }
        let firings_after: u64 = self.shells.iter().map(Shell::firings).sum();

        self.cycles += 1;
        if firings_after > firings_before {
            self.cycles_since_firing = 0;
        } else {
            self.cycles_since_firing += 1;
        }
        Ok(())
    }

    /// Runs until the process `halt_on` reports a halted state (see
    /// [`LidSimulator::run_until_halt`]).
    ///
    /// [`LidSimulator::run_until_halt`]: crate::LidSimulator::run_until_halt
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MaxCyclesExceeded`], [`SimError::Deadlock`] or a
    /// protocol violation.
    pub fn run_until_halt(&mut self, halt_on: ProcessId, max_cycles: u64) -> Result<u64, SimError> {
        while !self.shells[halt_on].is_halted() {
            if self.cycles >= max_cycles {
                return Err(SimError::MaxCyclesExceeded { max_cycles });
            }
            if self.cycles_since_firing >= self.deadlock_window {
                return Err(SimError::Deadlock { cycle: self.cycles });
            }
            self.step()?;
        }
        Ok(self.cycles)
    }

    /// Runs until process `node` has fired `target` times (see
    /// [`LidSimulator::run_until_firings`]).
    ///
    /// [`LidSimulator::run_until_firings`]: crate::LidSimulator::run_until_firings
    ///
    /// # Errors
    ///
    /// Same conditions as [`NaiveSimulator::run_until_halt`].
    pub fn run_until_firings(
        &mut self,
        node: ProcessId,
        target: u64,
        max_cycles: u64,
    ) -> Result<u64, SimError> {
        while self.shells[node].firings() < target {
            if self.cycles >= max_cycles {
                return Err(SimError::MaxCyclesExceeded { max_cycles });
            }
            if self.cycles_since_firing >= self.deadlock_window {
                return Err(SimError::Deadlock { cycle: self.cycles });
            }
            self.step()?;
        }
        Ok(self.cycles)
    }

    /// Runs for exactly `cycles` additional cycles.
    ///
    /// # Errors
    ///
    /// Returns a protocol violation if one occurs.
    pub fn run_for(&mut self, cycles: u64) -> Result<(), SimError> {
        for _ in 0..cycles {
            self.step()?;
        }
        Ok(())
    }

    /// Lets in-flight computations drain, scanning every shell twice per
    /// cycle like the seed implementation (see [`LidSimulator::drain`]).
    ///
    /// [`LidSimulator::drain`]: crate::LidSimulator::drain
    ///
    /// # Errors
    ///
    /// Returns a protocol violation if one occurs while draining.
    pub fn drain(&mut self, idle_cycles: u64, max_extra: u64) -> Result<u64, SimError> {
        let mut extra = 0;
        let mut idle = 0;
        while idle < idle_cycles && extra < max_extra {
            let before: u64 = self.shells.iter().map(Shell::firings).sum();
            self.step()?;
            extra += 1;
            let after: u64 = self.shells.iter().map(Shell::firings).sum();
            if after > before {
                idle = 0;
            } else {
                idle += 1;
            }
        }
        Ok(extra)
    }

    /// Builds a summary report of the run so far, in the same shape as
    /// [`LidSimulator::report`] so the two are directly comparable.
    ///
    /// [`LidSimulator::report`]: crate::LidSimulator::report
    pub fn report(&self) -> LidReport {
        let firings: Vec<u64> = self.shells.iter().map(Shell::firings).collect();
        let total_firings = firings.iter().sum();
        let discarded: Vec<u64> = self
            .shells
            .iter()
            .map(|s| s.stats().total_discarded())
            .collect();
        let throughput = firings
            .iter()
            .map(|&f| {
                if self.cycles == 0 {
                    0.0
                } else {
                    f as f64 / self.cycles as f64
                }
            })
            .collect();
        LidReport {
            cycles: self.cycles,
            firings,
            total_firings,
            discarded,
            throughput,
        }
    }
}

/// The seed implementation of the golden (un-pipelined) simulator step: same
/// observable behaviour as [`GoldenSimulator`], per-cycle nested scratch
/// allocations included (see the module docs for why it is kept).
///
/// [`GoldenSimulator`]: crate::GoldenSimulator
pub struct NaiveGoldenSimulator<V> {
    processes: Vec<Box<dyn Process<V>>>,
    channels: Vec<ChannelSpec>,
    /// Even the naive golden step records into a [`TraceArena`]: the seed
    /// behaviour being preserved here is the *step* scratch allocation, not
    /// the recording format, and sharing the recorder keeps the
    /// golden-equivalence property tests comparing identical structures.
    traces: TraceArena<V>,
    trace_enabled: bool,
    cycles: u64,
}

impl<V> std::fmt::Debug for NaiveGoldenSimulator<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NaiveGoldenSimulator")
            .field("processes", &self.processes.len())
            .field("channels", &self.channels.len())
            .field("cycles", &self.cycles)
            .finish()
    }
}

impl<V: Clone + PartialEq> NaiveGoldenSimulator<V> {
    /// Builds the simulator exactly like [`GoldenSimulator::new`].
    ///
    /// [`GoldenSimulator::new`]: crate::GoldenSimulator::new
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidSystem`] when the description is not fully
    /// and consistently connected.
    pub fn new(builder: SystemBuilder<V>) -> Result<Self, SimError> {
        builder.validate()?;
        let (processes, channels) = builder.into_parts();
        let traces = TraceArena::new(channels.iter().map(|c| c.name.clone()));
        Ok(Self {
            processes,
            channels,
            traces,
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

    /// Immutable access to a process.
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

    /// Simulates one clock cycle, allocating its scratch state on the heap
    /// like the seed implementation did.
    pub fn step(&mut self) {
        // Phase 1: sample every channel from the producers' current outputs.
        let values: Vec<V> = self
            .channels
            .iter()
            .map(|c| self.processes[c.src].output(c.src_port))
            .collect();
        if self.trace_enabled {
            for (idx, v) in values.iter().enumerate() {
                self.traces.record_valid(idx, v.clone());
            }
        }
        // Phase 2: deliver and fire.
        let mut inputs: Vec<Vec<Option<V>>> = self
            .processes
            .iter()
            .map(|p| vec![None; p.num_inputs()])
            .collect();
        for (c, v) in self.channels.iter().zip(values) {
            inputs[c.dst][c.dst_port] = Some(v);
        }
        for (p, ins) in self.processes.iter_mut().zip(inputs.iter()) {
            p.fire(ins);
        }
        self.cycles += 1;
    }

    /// Runs until the process `halt_on` reports a halted state (see
    /// [`GoldenSimulator::run_until_halt`]).
    ///
    /// [`GoldenSimulator::run_until_halt`]: crate::GoldenSimulator::run_until_halt
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

crate::simulator::impl_trace_arena_accessors!(NaiveGoldenSimulator);

impl<V: Clone + PartialEq> crate::Simulator<V> for NaiveSimulator<V> {
    fn step(&mut self) -> Result<(), SimError> {
        NaiveSimulator::step(self)
    }
    fn cycles(&self) -> u64 {
        self.cycles
    }
    fn is_halted(&self, id: ProcessId) -> bool {
        self.shells[id].is_halted()
    }
    fn process(&self, id: ProcessId) -> &dyn Process<V> {
        self.shells[id].process()
    }
    fn set_trace_enabled(&mut self, enabled: bool) {
        self.trace_enabled = enabled;
    }
    fn channel_traces(&self) -> Vec<ChannelTrace<V>> {
        self.traces.clone()
    }
    fn halt_guard(&self) -> Option<SimError> {
        (self.cycles_since_firing >= self.deadlock_window)
            .then_some(SimError::Deadlock { cycle: self.cycles })
    }
}

impl<V: Clone + PartialEq> crate::Simulator<V> for NaiveGoldenSimulator<V> {
    fn step(&mut self) -> Result<(), SimError> {
        NaiveGoldenSimulator::step(self);
        Ok(())
    }
    fn cycles(&self) -> u64 {
        self.cycles
    }
    fn is_halted(&self, id: ProcessId) -> bool {
        self.processes[id].is_halted()
    }
    fn process(&self, id: ProcessId) -> &dyn Process<V> {
        self.processes[id].as_ref()
    }
    fn set_trace_enabled(&mut self, enabled: bool) {
        self.trace_enabled = enabled;
    }
    fn channel_traces(&self) -> Vec<ChannelTrace<V>> {
        self.traces.to_channel_traces()
    }
}
