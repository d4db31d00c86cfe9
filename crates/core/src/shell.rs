//! Shells (wrappers): the heart of the methodology.
//!
//! A shell encloses an unmodified IP block ([`crate::Process`]) and makes it
//! latency-insensitive:
//!
//! * τ-filtered inputs are buffered in per-port queues;
//! * a *synchroniser* keeps distributed lag counters instead of explicit tags
//!   (only a validity bit travels on the wires);
//! * when the inputs needed for the next computation are available, the block
//!   is fired and the queues updated; otherwise the block is stalled and τ is
//!   emitted on every output;
//! * finite queues are protected by back-pressure (stop signals) towards the
//!   upstream relay stations.
//!
//! Two synchronisation policies are provided:
//!
//! * [`SyncPolicy::Strict`] — the classical behaviour (called **WP1** in the
//!   paper): the block fires only when *every* input port holds the token with
//!   the current tag.
//! * [`SyncPolicy::Oracle`] — the paper's contribution (**WP2**): an *oracle*
//!   ([`crate::Process::required_inputs`]) tells the synchroniser which inputs
//!   the next computation actually reads; the block fires as soon as those are
//!   available, and tokens whose tag is older than the firing counter ("old
//!   tags") are discarded on arrival because the process was blind to them.
//!
//! The firing path costs what the firing needs, not what the port space
//! allows: a [`PortSet`] iterates its set bits only, so the synchroniser's
//! readiness check and the pop loop each take one step per required port.

use crate::error::ProtocolError;
use crate::fifo::BoundedFifo;
use crate::port::PortSet;
use crate::process::Process;
use crate::token::Token;

/// Synchronisation policy of a shell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SyncPolicy {
    /// WP1: fire only when all inputs with the current tag are present.
    #[default]
    Strict,
    /// WP2: fire when the inputs required by the oracle are present; stale
    /// inputs are discarded.
    Oracle,
}

impl SyncPolicy {
    /// Short label used in reports ("WP1" / "WP2").
    pub fn label(&self) -> &'static str {
        match self {
            SyncPolicy::Strict => "WP1",
            SyncPolicy::Oracle => "WP2",
        }
    }
}

/// Construction parameters of a shell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShellConfig {
    /// Synchronisation policy (WP1 strict or WP2 oracle).
    pub policy: SyncPolicy,
    /// Capacity of each input queue (≥ 2).
    pub fifo_capacity: usize,
}

impl ShellConfig {
    /// Configuration for the classical WP1 shell.
    pub fn strict() -> Self {
        Self {
            policy: SyncPolicy::Strict,
            fifo_capacity: Self::DEFAULT_FIFO_CAPACITY,
        }
    }

    /// Configuration for the oracle-based WP2 shell.
    pub fn oracle() -> Self {
        Self {
            policy: SyncPolicy::Oracle,
            fifo_capacity: Self::DEFAULT_FIFO_CAPACITY,
        }
    }

    /// The default configuration for a policy ([`ShellConfig::strict`] for
    /// WP1, [`ShellConfig::oracle`] for WP2).
    pub fn for_policy(policy: SyncPolicy) -> Self {
        match policy {
            SyncPolicy::Strict => Self::strict(),
            SyncPolicy::Oracle => Self::oracle(),
        }
    }

    /// Replaces the input-queue capacity.
    pub fn with_fifo_capacity(mut self, capacity: usize) -> Self {
        self.fifo_capacity = capacity;
        self
    }

    /// Default input-queue depth.
    pub const DEFAULT_FIFO_CAPACITY: usize = 8;
}

impl Default for ShellConfig {
    fn default() -> Self {
        Self::strict()
    }
}

/// Why a shell did not fire in a given cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallCause {
    /// A required input token had not arrived yet.
    MissingInput {
        /// First missing input port.
        port: usize,
    },
    /// A previously produced output token has not been accepted downstream.
    OutputBlocked {
        /// First blocked output port.
        port: usize,
    },
    /// The enclosed process reported [`Process::is_halted`].
    Halted,
    /// An external gate (e.g. a deterministic stall schedule) withheld the
    /// firing this cycle even though the protocol would have allowed it.
    Gated,
}

/// Running counters describing the activity of a shell.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShellStats {
    /// Number of process firings performed.
    pub firings: u64,
    /// Cycles stalled because a required input was missing.
    pub stalls_missing_input: u64,
    /// Cycles stalled because a produced output was still blocked downstream.
    pub stalls_output_blocked: u64,
    /// Cycles in which the process was already halted.
    pub halted_cycles: u64,
    /// Cycles in which an external gate withheld an otherwise possible firing
    /// (see [`StallCause::Gated`]).
    pub stalls_gated: u64,
    /// Stale (old-tag) tokens discarded, per input port.
    pub discarded: Vec<u64>,
    /// Valid tokens accepted, per input port.
    pub accepted: Vec<u64>,
}

impl ShellStats {
    fn new(num_inputs: usize) -> Self {
        Self {
            discarded: vec![0; num_inputs],
            accepted: vec![0; num_inputs],
            ..Self::default()
        }
    }

    /// Total cycles observed (firings + stalls + halted cycles).
    pub fn cycles(&self) -> u64 {
        self.firings
            + self.stalls_missing_input
            + self.stalls_output_blocked
            + self.halted_cycles
            + self.stalls_gated
    }

    /// Average number of firings per cycle (the block throughput).
    pub fn throughput(&self) -> f64 {
        let cycles = self.cycles();
        if cycles == 0 {
            0.0
        } else {
            self.firings as f64 / cycles as f64
        }
    }

    /// Total number of stale tokens discarded across all ports.
    pub fn total_discarded(&self) -> u64 {
        self.discarded.iter().sum()
    }
}

/// A latency-insensitive shell enclosing one IP block.
///
/// The shell follows the same two-phase (Moore) clocking discipline as
/// [`crate::RelayStation`]: during a cycle, [`Shell::output`] and
/// [`Shell::stop_out`] expose registered values; at the end of the cycle
/// [`Shell::update`] consumes the observed inputs and downstream stops and
/// advances the state.
pub struct Shell<V> {
    process: Box<dyn Process<V>>,
    config: ShellConfig,
    /// Per-input queues of τ-filtered payloads.
    in_queues: Vec<BoundedFifo<V>>,
    /// Lag counters: number of tokens consumed or discarded per input port.
    /// The head of queue `i` therefore carries (implicit) tag `consumed[i]`.
    consumed: Vec<u64>,
    /// Registered stop signals towards each upstream channel.
    stop_reg: Vec<bool>,
    /// Registered output tokens currently presented downstream.
    out_reg: Vec<Token<V>>,
    /// Number of firings performed so far (the current tag of the process).
    fired: u64,
    /// Persistent scratch handed to [`Process::fire`]: one slot per input
    /// port, `None` except during a firing, which fills and then clears the
    /// required slots only.  Keeping it in the shell makes [`Shell::update`]
    /// allocation-free in steady state.
    fire_buf: Vec<Option<V>>,
    stats: ShellStats,
    last_stall: Option<StallCause>,
}

impl<V: Clone> Shell<V> {
    /// Wraps `process` in a shell with the given configuration.
    pub fn new(process: Box<dyn Process<V>>, config: ShellConfig) -> Self {
        let num_inputs = process.num_inputs();
        let num_outputs = process.num_outputs();
        let in_queues = (0..num_inputs)
            .map(|_| BoundedFifo::new(config.fifo_capacity))
            .collect();
        // The initial outputs correspond to firing 0 of the original system
        // (the value each block drives out of reset).
        let out_reg = (0..num_outputs)
            .map(|p| Token::Valid(process.output(p)))
            .collect();
        Self {
            stats: ShellStats::new(num_inputs),
            in_queues,
            consumed: vec![0; num_inputs],
            stop_reg: vec![false; num_inputs],
            out_reg,
            fired: 0,
            fire_buf: vec![None; num_inputs],
            process,
            config,
            last_stall: None,
        }
    }

    /// The shell configuration.
    pub fn config(&self) -> &ShellConfig {
        &self.config
    }

    /// Name of the enclosed block.
    pub fn name(&self) -> &str {
        self.process.name()
    }

    /// Number of input channels.
    pub fn num_inputs(&self) -> usize {
        self.in_queues.len()
    }

    /// Number of output channels.
    pub fn num_outputs(&self) -> usize {
        self.out_reg.len()
    }

    /// Token presented on output channel `port` this cycle.
    pub fn output(&self, port: usize) -> Token<V> {
        self.out_reg[port].clone()
    }

    /// Borrows the token presented on output channel `port` this cycle.
    ///
    /// The simulator hot path samples every wire through this accessor so
    /// that a token is cloned only where it genuinely fans out (into a relay
    /// station, an input queue or a trace), never just to be inspected.
    pub fn output_ref(&self, port: usize) -> &Token<V> {
        &self.out_reg[port]
    }

    /// Stop signal presented to the upstream of input channel `port` this
    /// cycle.
    pub fn stop_out(&self, port: usize) -> bool {
        self.stop_reg[port]
    }

    /// Number of firings performed so far.
    pub fn firings(&self) -> u64 {
        self.fired
    }

    /// Activity counters of the shell.
    pub fn stats(&self) -> &ShellStats {
        &self.stats
    }

    /// The reason the previous cycle did not fire, if it did not.
    pub fn last_stall(&self) -> Option<StallCause> {
        self.last_stall
    }

    /// Whether the enclosed block has reached a terminal state.
    pub fn is_halted(&self) -> bool {
        self.process.is_halted()
    }

    /// Immutable access to the enclosed block.
    pub fn process(&self) -> &dyn Process<V> {
        self.process.as_ref()
    }

    /// End-of-cycle update.
    ///
    /// * `inputs[i]` — token observed this cycle on input channel `i` (driven
    ///   by the upstream shell or the last relay station of the channel);
    /// * `out_stops[j]` — stop observed this cycle on output channel `j`
    ///   (driven by the first relay station of the channel or the consumer
    ///   shell).
    ///
    /// Returns `true` when the enclosed process fired this cycle, so callers
    /// (the simulator kernel) can maintain a monotonic system-wide firing
    /// counter without re-scanning every shell.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtocolError`] if the supplied slices do not match the
    /// port counts or if a queue overflows (protocol violation).
    pub fn update(
        &mut self,
        inputs: &[Token<V>],
        out_stops: &[bool],
    ) -> Result<bool, ProtocolError> {
        self.update_gated(inputs, out_stops, true)
    }

    /// [`Shell::update`] with an external firing gate.
    ///
    /// When `allow_fire` is `false` the accept / discard / release / stop
    /// phases still run (the protocol side of the shell is unchanged), but the
    /// firing decision is withheld for this cycle and recorded as
    /// [`StallCause::Gated`].  Gating is protocol-safe: to every neighbour the
    /// shell is indistinguishable from a block whose computation simply takes
    /// longer, which is exactly the class of perturbation latency-insensitive
    /// design tolerates.  Deterministic stall schedules use this to perturb a
    /// system identically under the scalar and the lane-packed kernels.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtocolError`] if the supplied slices do not match the
    /// port counts or if a queue overflows (protocol violation).
    pub fn update_gated(
        &mut self,
        inputs: &[Token<V>],
        out_stops: &[bool],
        allow_fire: bool,
    ) -> Result<bool, ProtocolError> {
        if inputs.len() != self.num_inputs() {
            return Err(ProtocolError::PortCountMismatch {
                expected: self.num_inputs(),
                actual: inputs.len(),
            });
        }
        if out_stops.len() != self.num_outputs() {
            return Err(ProtocolError::PortCountMismatch {
                expected: self.num_outputs(),
                actual: out_stops.len(),
            });
        }

        // 1. Accept arriving valid tokens on channels where we had not
        //    asserted stop (the producer observed `stop_reg[i]` this cycle).
        for (i, token) in inputs.iter().enumerate() {
            if let Token::Valid(v) = token {
                if !self.stop_reg[i] {
                    self.in_queues[i].push(v.clone())?;
                    self.stats.accepted[i] += 1;
                }
            }
        }

        // 2. Oracle policy: discard stale tokens ("old tags") — tokens whose
        //    tag is smaller than the current firing counter were not needed by
        //    the firing they belonged to, the process is blind to them.
        if self.config.policy == SyncPolicy::Oracle {
            for i in 0..self.in_queues.len() {
                while self.consumed[i] < self.fired && !self.in_queues[i].is_empty() {
                    self.in_queues[i].pop();
                    self.consumed[i] += 1;
                    self.stats.discarded[i] += 1;
                }
            }
        }

        // 3. Release output tokens accepted by the downstream this cycle.
        for (j, stop) in out_stops.iter().enumerate() {
            if self.out_reg[j].is_valid() && !*stop {
                self.out_reg[j] = Token::Void;
            }
        }

        // 4. Decide whether the process can fire.
        let decision = if allow_fire {
            self.firing_decision()
        } else {
            Err(StallCause::Gated)
        };
        let fired = match decision {
            Ok(required) => {
                // Pop the consumed tokens into the persistent scratch slots
                // and fire (no allocation on this path).  Every slot is
                // `None` between firings, so only the required ones need
                // clearing afterwards.
                for i in required.iter() {
                    let value = self.in_queues[i]
                        .pop()
                        .ok_or(ProtocolError::MissingRequiredInput { port: i })?;
                    self.consumed[i] += 1;
                    self.fire_buf[i] = Some(value);
                }
                self.process.fire(&self.fire_buf);
                for i in required.iter() {
                    self.fire_buf[i] = None;
                }
                self.fired += 1;
                self.stats.firings += 1;
                self.last_stall = None;
                for j in 0..self.out_reg.len() {
                    self.out_reg[j] = Token::Valid(self.process.output(j));
                }
                true
            }
            Err(cause) => {
                self.last_stall = Some(cause);
                match cause {
                    StallCause::MissingInput { .. } => self.stats.stalls_missing_input += 1,
                    StallCause::OutputBlocked { .. } => self.stats.stalls_output_blocked += 1,
                    StallCause::Halted => self.stats.halted_cycles += 1,
                    StallCause::Gated => self.stats.stalls_gated += 1,
                }
                false
            }
        };

        // 5. Refresh the registered stop signals from the new queue occupancy.
        for (i, queue) in self.in_queues.iter().enumerate() {
            self.stop_reg[i] = queue.is_almost_full();
        }
        Ok(fired)
    }

    /// Determines whether the process may fire this cycle, returning either
    /// the set of ports to consume or the stall cause.
    fn firing_decision(&self) -> Result<PortSet, StallCause> {
        if self.process.is_halted() {
            return Err(StallCause::Halted);
        }
        // All previously produced outputs must have been accepted before a new
        // computation may overwrite them.
        if let Some(port) = (0..self.out_reg.len()).find(|&j| self.out_reg[j].is_valid()) {
            return Err(StallCause::OutputBlocked { port });
        }
        let required = match self.config.policy {
            SyncPolicy::Strict => PortSet::all(self.num_inputs()),
            SyncPolicy::Oracle => self.process.required_inputs(),
        };
        for i in required.iter() {
            // After stale discarding, a non-empty queue head always carries
            // tag `consumed[i] == fired` (tokens arrive in order and are never
            // consumed ahead of the firing counter).
            if self.in_queues[i].is_empty() {
                return Err(StallCause::MissingInput { port: i });
            }
            debug_assert_eq!(
                self.consumed[i], self.fired,
                "head tag must equal the firing counter for a required port"
            );
        }
        Ok(required)
    }

    /// Resets the shell and the enclosed block to their initial state.
    pub fn reset(&mut self) {
        self.process.reset();
        for q in &mut self.in_queues {
            q.clear();
        }
        self.consumed.iter_mut().for_each(|c| *c = 0);
        self.stop_reg.iter_mut().for_each(|s| *s = false);
        self.fire_buf.iter_mut().for_each(|slot| *slot = None);
        for (p, slot) in self.out_reg.iter_mut().enumerate() {
            *slot = Token::Valid(self.process.output(p));
        }
        self.fired = 0;
        self.stats = ShellStats::new(self.num_inputs());
        self.last_stall = None;
    }
}

impl<V: Clone> std::fmt::Debug for Shell<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shell")
            .field("name", &self.process.name())
            .field("policy", &self.config.policy)
            .field("fired", &self.fired)
            .field(
                "queue_lens",
                &self
                    .in_queues
                    .iter()
                    .map(BoundedFifo::len)
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{RecordingSink, SequenceSource};

    /// A two-input process that adds its inputs; input 1 is only required on
    /// even firings (odd firings reuse the previous value of input 1).
    struct SelectiveAdder {
        acc: u64,
        held: u64,
        fires: u64,
    }

    impl SelectiveAdder {
        fn new() -> Self {
            Self {
                acc: 0,
                held: 0,
                fires: 0,
            }
        }
    }

    impl Process<u64> for SelectiveAdder {
        fn name(&self) -> &str {
            "selective_adder"
        }
        fn num_inputs(&self) -> usize {
            2
        }
        fn num_outputs(&self) -> usize {
            1
        }
        fn output(&self, _port: usize) -> u64 {
            self.acc
        }
        fn required_inputs(&self) -> PortSet {
            if self.fires.is_multiple_of(2) {
                PortSet::all(2)
            } else {
                PortSet::single(0)
            }
        }
        fn fire(&mut self, inputs: &[Option<u64>]) {
            let a = inputs[0].expect("port 0 always required");
            if self.fires.is_multiple_of(2) {
                self.held = inputs[1].expect("port 1 required on even firings");
            }
            self.acc = self.acc.wrapping_add(a).wrapping_add(self.held);
            self.fires += 1;
        }
        fn reset(&mut self) {
            *self = Self::new();
        }
    }

    fn valid(v: u64) -> Token<u64> {
        Token::Valid(v)
    }

    #[test]
    fn initial_outputs_are_the_reset_values() {
        let shell = Shell::new(
            Box::new(SequenceSource::new("src", vec![7u64, 8], 0)),
            ShellConfig::strict(),
        );
        assert_eq!(shell.output(0), Token::Valid(7));
        assert!(!shell.is_halted());
    }

    #[test]
    fn strict_shell_fires_when_all_inputs_present() {
        let mut shell = Shell::new(Box::new(SelectiveAdder::new()), ShellConfig::strict());
        // Only port 0 present: stall.
        shell.update(&[valid(1), Token::Void], &[false]).unwrap();
        assert_eq!(shell.firings(), 0);
        assert!(matches!(
            shell.last_stall(),
            Some(StallCause::MissingInput { port: 1 })
        ));
        // Port 1 arrives: fire (port 0 token still queued).
        shell.update(&[Token::Void, valid(10)], &[false]).unwrap();
        assert_eq!(shell.firings(), 1);
        assert_eq!(shell.output(0), Token::Valid(11));
    }

    #[test]
    fn oracle_shell_fires_without_unneeded_inputs() {
        let mut shell = Shell::new(Box::new(SelectiveAdder::new()), ShellConfig::oracle());
        // Firing 0 needs both ports.
        shell.update(&[valid(1), valid(10)], &[false]).unwrap();
        assert_eq!(shell.firings(), 1);
        // Firing 1 needs only port 0: fires even though port 1 is absent.
        shell.update(&[valid(2), Token::Void], &[false]).unwrap();
        assert_eq!(shell.firings(), 2);
        // The port-1 token with tag 1 arrives late: it must be discarded.
        shell.update(&[Token::Void, valid(99)], &[false]).unwrap();
        assert_eq!(shell.stats().discarded[1], 1);
        // Firing 2 needs both ports again; supply them and check the value:
        // acc = (1+10) + (2+10) = 23, then +3+20 = 46.
        shell.update(&[valid(3), valid(20)], &[false]).unwrap();
        assert_eq!(shell.firings(), 3);
        assert_eq!(shell.output(0), Token::Valid(46));
    }

    #[test]
    fn strict_shell_never_discards() {
        let mut shell = Shell::new(Box::new(SelectiveAdder::new()), ShellConfig::strict());
        shell.update(&[valid(1), valid(10)], &[false]).unwrap();
        shell.update(&[valid(2), valid(20)], &[false]).unwrap();
        shell.update(&[valid(3), valid(30)], &[false]).unwrap();
        assert_eq!(shell.stats().total_discarded(), 0);
        assert_eq!(shell.firings(), 3);
    }

    #[test]
    fn output_backpressure_blocks_firing() {
        let mut shell = Shell::new(Box::new(SelectiveAdder::new()), ShellConfig::strict());
        // Downstream refuses the initial output token: no firing possible.
        shell.update(&[valid(1), valid(1)], &[true]).unwrap();
        assert_eq!(shell.firings(), 0);
        assert!(matches!(
            shell.last_stall(),
            Some(StallCause::OutputBlocked { port: 0 })
        ));
        // Downstream accepts: the pending output drains and the firing happens
        // in the same cycle.
        shell.update(&[Token::Void, Token::Void], &[false]).unwrap();
        assert_eq!(shell.firings(), 1);
    }

    #[test]
    fn stop_is_asserted_when_queue_fills() {
        let mut shell = Shell::new(
            Box::new(SelectiveAdder::new()),
            ShellConfig::strict().with_fifo_capacity(2),
        );
        // Fill port 0 while port 1 stays empty so the shell cannot fire.
        shell.update(&[valid(1), Token::Void], &[false]).unwrap();
        assert!(shell.stop_out(0), "almost-full queue must raise stop");
        // While the stop stays asserted, tokens presented on the wire are not
        // latched (the upstream must hold and re-present them), so nothing is
        // lost and nothing is double-counted.
        shell.update(&[valid(2), Token::Void], &[false]).unwrap();
        assert!(shell.stop_out(0));
        assert_eq!(shell.stats().accepted[0], 1);
        shell.update(&[valid(2), Token::Void], &[false]).unwrap();
        assert_eq!(shell.stats().accepted[0], 1);
    }

    #[test]
    fn halted_process_stops_firing() {
        let mut shell = Shell::new(
            Box::new(SequenceSource::new("src", vec![1u64], 0)),
            ShellConfig::strict(),
        );
        shell.update(&[], &[false]).unwrap();
        assert_eq!(shell.firings(), 1);
        assert!(shell.is_halted());
        shell.update(&[], &[false]).unwrap();
        assert_eq!(shell.firings(), 1);
        assert!(matches!(shell.last_stall(), Some(StallCause::Halted)));
        assert_eq!(shell.stats().halted_cycles, 1);
    }

    #[test]
    fn sink_shell_records_filtered_values() {
        let mut shell = Shell::new(
            Box::new(RecordingSink::new("sink", 0u64)),
            ShellConfig::strict(),
        );
        for t in [valid(1), Token::Void, valid(2), valid(3)] {
            shell.update(&[t], &[false]).unwrap();
        }
        // Downcast is not exposed; check via stats instead.
        assert_eq!(shell.firings(), 3);
        assert_eq!(shell.stats().accepted[0], 3);
    }

    #[test]
    fn port_count_mismatch_is_an_error() {
        let mut shell = Shell::new(Box::new(SelectiveAdder::new()), ShellConfig::strict());
        let err = shell.update(&[valid(1)], &[false]).unwrap_err();
        assert!(matches!(err, ProtocolError::PortCountMismatch { .. }));
        let err = shell.update(&[valid(1), valid(2)], &[]).unwrap_err();
        assert!(matches!(err, ProtocolError::PortCountMismatch { .. }));
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut shell = Shell::new(Box::new(SelectiveAdder::new()), ShellConfig::oracle());
        shell.update(&[valid(1), valid(10)], &[false]).unwrap();
        assert_eq!(shell.firings(), 1);
        shell.reset();
        assert_eq!(shell.firings(), 0);
        assert_eq!(shell.output(0), Token::Valid(0));
        assert_eq!(shell.stats().firings, 0);
    }

    #[test]
    fn throughput_accounting_matches_firings() {
        let mut shell = Shell::new(Box::new(SelectiveAdder::new()), ShellConfig::strict());
        for cycle in 0..10u64 {
            // Inputs arrive only every other cycle.
            let toks = if cycle % 2 == 0 {
                [valid(1), valid(1)]
            } else {
                [Token::Void, Token::Void]
            };
            shell.update(&toks, &[false]).unwrap();
        }
        let stats = shell.stats();
        assert_eq!(stats.cycles(), 10);
        assert_eq!(stats.firings, 5);
        assert!((stats.throughput() - 0.5).abs() < 1e-12);
    }
}
