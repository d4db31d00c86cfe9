//! Relay stations: the wire-pipeline element.
//!
//! A relay station (RS) is the finite-state machine of Carloni et al. that
//! replaces a plain pipeline register on a long wire.  It contains the
//! pipeline register proper (*main*) plus one auxiliary register used to save
//! an in-flight valid token when a stop arrives, so that no data is ever
//! lost.  When the auxiliary register is also full, the stop is propagated to
//! the previous relay station, and ultimately to the source shell.
//!
//! The RS in this crate uses *registered* stop signals, i.e. the stop a
//! station asserts is observed by its upstream neighbour one clock cycle
//! later.  This matches the hardware implementation (no combinational
//! back-pressure path across the chip) and is why the auxiliary register is
//! needed.

use crate::error::ProtocolError;
use crate::token::Token;

/// One relay station on a latency-insensitive channel.
///
/// The station is clocked in two phases, mirroring a Moore machine:
///
/// 1. during the cycle, [`RelayStation::output`] and [`RelayStation::stop_out`]
///    expose the values driven on the downstream data wire and the upstream
///    stop wire (both come from registers);
/// 2. at the end of the cycle, [`RelayStation::update`] latches the upstream
///    data observed this cycle and the downstream stop observed this cycle.
///
/// # Examples
///
/// ```
/// use wp_core::{RelayStation, Token};
///
/// let mut rs = RelayStation::new();
/// // cycle 0: empty, upstream sends 7, downstream does not stop
/// assert_eq!(rs.output(), Token::Void);
/// rs.update(Token::Valid(7u32), false)?;
/// // cycle 1: the token is now visible downstream
/// assert_eq!(rs.output(), Token::Valid(7));
/// # Ok::<(), wp_core::ProtocolError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RelayStation<V> {
    main: Token<V>,
    aux: Token<V>,
    stop_reg: bool,
}

impl<V: Clone> RelayStation<V> {
    /// Creates an empty relay station (both registers void, stop deasserted).
    pub fn new() -> Self {
        Self {
            main: Token::Void,
            aux: Token::Void,
            stop_reg: false,
        }
    }

    /// The token driven on the downstream data wire this cycle.
    pub fn output(&self) -> Token<V> {
        self.main.clone()
    }

    /// Borrows the token driven on the downstream data wire this cycle.
    pub fn output_ref(&self) -> &Token<V> {
        &self.main
    }

    /// The stop signal driven towards the upstream neighbour this cycle.
    pub fn stop_out(&self) -> bool {
        self.stop_reg
    }

    /// Number of valid tokens currently stored (0, 1 or 2).
    pub fn occupancy(&self) -> usize {
        usize::from(self.main.is_valid()) + usize::from(self.aux.is_valid())
    }

    /// Returns `true` when the station stores no valid token.
    pub fn is_empty(&self) -> bool {
        self.occupancy() == 0
    }

    /// End-of-cycle state update.
    ///
    /// `input` is the token observed on the upstream data wire during this
    /// cycle and `stop_in` the stop observed on the downstream stop wire.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::RelayOverflow`] if a valid token arrives
    /// while both registers are full and the upstream was allowed to send
    /// (this indicates a protocol violation, not a normal condition).
    pub fn update(&mut self, input: Token<V>, stop_in: bool) -> Result<(), ProtocolError> {
        // The upstream neighbour observed `stop_reg` this cycle, so it was
        // allowed to send only when `stop_reg` was false.  A valid token seen
        // while we asserted stop is simply the upstream re-presenting the same
        // datum (it must hold it until we deassert), so it is ignored here.
        let accept = !self.stop_reg && input.is_valid();
        // The downstream neighbour latches our main token this cycle unless it
        // asserted stop.
        let send = !stop_in && self.main.is_valid();

        if send {
            // The main register frees: promote aux if present, else take the
            // incoming token directly.
            if self.aux.is_valid() {
                self.main = self.aux.take();
                if accept {
                    self.aux = input;
                }
            } else {
                self.main = if accept { input } else { Token::Void };
            }
        } else if self.main.is_void() {
            // Nothing stored and nothing sent: an accepted token lands in main.
            if accept {
                self.main = input;
            }
        } else if accept {
            // Blocked downstream with main occupied: the token must go to aux.
            if self.aux.is_valid() {
                return Err(ProtocolError::RelayOverflow);
            }
            self.aux = input;
        }

        // Assert the stop towards upstream whenever both registers are now
        // occupied: one more token could still arrive next cycle only if we
        // had left the stop deasserted.
        self.stop_reg = self.occupancy() == 2;
        Ok(())
    }

    /// Resets the station to the empty state.
    pub fn reset(&mut self) {
        self.main = Token::Void;
        self.aux = Token::Void;
        self.stop_reg = false;
    }
}

/// A chain of relay stations placed on one channel.
///
/// Wire pipelining segments a long wire into `n` stages; this type manages
/// the per-cycle update of the whole chain and exposes the chain's endpoints
/// (data out of the last station, stop out of the first station).
///
/// An empty chain (`n = 0`) degenerates to a plain wire: the output equals
/// the input of the same cycle and the stop is forwarded combinationally.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RelayChain<V> {
    stations: Vec<RelayStation<V>>,
}

impl<V: Clone> RelayChain<V> {
    /// Creates a chain of `n` empty relay stations.
    pub fn new(n: usize) -> Self {
        Self {
            stations: (0..n).map(|_| RelayStation::new()).collect(),
        }
    }

    /// Number of relay stations in the chain.
    pub fn len(&self) -> usize {
        self.stations.len()
    }

    /// Returns `true` when the chain contains no relay station (plain wire).
    pub fn is_empty(&self) -> bool {
        self.stations.is_empty()
    }

    /// Total number of valid tokens stored in the chain.
    pub fn occupancy(&self) -> usize {
        self.stations.iter().map(RelayStation::occupancy).sum()
    }

    /// Token presented to the consumer this cycle, given the producer's token
    /// `input` for this cycle.
    ///
    /// With at least one station, the consumer sees the last station's main
    /// register; with zero stations the wire is transparent and the consumer
    /// sees `input` directly.
    pub fn output(&self, input: &Token<V>) -> Token<V> {
        self.output_ref(input).clone()
    }

    /// Borrows the token presented to the consumer this cycle (the borrowed
    /// counterpart of [`RelayChain::output`], used by the simulator kernel to
    /// sample wires without cloning payloads).
    pub fn output_ref<'a>(&'a self, input: &'a Token<V>) -> &'a Token<V> {
        match self.stations.last() {
            Some(last) => last.output_ref(),
            None => input,
        }
    }

    /// Stop presented to the producer this cycle, given the consumer's stop
    /// `stop_in` for this cycle.
    pub fn stop_out(&self, stop_in: bool) -> bool {
        match self.stations.first() {
            Some(first) => first.stop_out(),
            None => stop_in,
        }
    }

    /// End-of-cycle update of every station in the chain.
    ///
    /// `input` is the producer's token this cycle and `stop_in` the
    /// consumer's stop this cycle.
    ///
    /// The chain is walked from the consumer end back to the producer end so
    /// that every station still observes its neighbours' *pre-update* wires
    /// (the whole chain advances on the same clock edge) without buffering
    /// them: the only state carried across iterations is the one stop bit a
    /// station drove towards its upstream neighbour.  This keeps the
    /// per-cycle update allocation-free; a token is cloned only when it
    /// actually enters a station.
    ///
    /// # Errors
    ///
    /// Propagates [`ProtocolError::RelayOverflow`] from any station.
    pub fn update(&mut self, input: &Token<V>, stop_in: bool) -> Result<(), ProtocolError> {
        let n = self.stations.len();
        // The stop observed by the station being updated, i.e. the
        // pre-update stop of its downstream neighbour (the consumer's stop
        // for the last station).
        let mut downstream_stop = stop_in;
        for i in (0..n).rev() {
            // Save this station's pre-update stop: it is what the upstream
            // neighbour (updated next) observed this cycle.
            let upstream_observes = self.stations[i].stop_out();
            // A station ignores its data wire while it asserts stop, so the
            // clone of the upstream token is skipped entirely in that case.
            let data_in = if upstream_observes {
                Token::Void
            } else if i == 0 {
                input.clone()
            } else {
                self.stations[i - 1].output()
            };
            self.stations[i].update(data_in, downstream_stop)?;
            downstream_stop = upstream_observes;
        }
        Ok(())
    }

    /// The seed implementation of [`RelayChain::update`]: buffers every
    /// inter-station wire in freshly allocated vectors before updating the
    /// stations front-to-back.
    ///
    /// Behaviourally identical to `update` (the kernel-equivalence property
    /// tests assert this); kept as the reference step for
    /// `wp_sim::NaiveSimulator`, which the criterion benches use as the
    /// baseline the arena kernel is measured against.
    ///
    /// # Errors
    ///
    /// Propagates [`ProtocolError::RelayOverflow`] from any station.
    pub fn update_buffered(&mut self, input: Token<V>, stop_in: bool) -> Result<(), ProtocolError> {
        if self.stations.is_empty() {
            return Ok(());
        }
        // Values currently driven between stations (station i drives its
        // successor); captured before any update so the whole chain advances
        // consistently within the same clock edge.
        let inter_data: Vec<Token<V>> = self.stations.iter().map(RelayStation::output).collect();
        let inter_stop: Vec<bool> = self.stations.iter().map(RelayStation::stop_out).collect();

        let n = self.stations.len();
        for (i, station) in self.stations.iter_mut().enumerate() {
            let data_in = if i == 0 {
                input.clone()
            } else {
                inter_data[i - 1].clone()
            };
            let stop_from_downstream = if i == n - 1 {
                stop_in
            } else {
                inter_stop[i + 1]
            };
            station.update(data_in, stop_from_downstream)?;
        }
        Ok(())
    }

    /// Resets every station to the empty state.
    pub fn reset(&mut self) {
        for s in &mut self.stations {
            s.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Streams `values` into a relay station with no back-pressure and
    /// returns the valid tokens observed at the output over `cycles` cycles.
    fn stream_through(values: &[u32], cycles: usize) -> Vec<u32> {
        let mut rs = RelayStation::new();
        let mut seen = Vec::new();
        for cycle in 0..cycles {
            if let Token::Valid(v) = rs.output() {
                seen.push(v);
            }
            let input = values.get(cycle).copied().map_or(Token::Void, Token::Valid);
            rs.update(input, false).unwrap();
        }
        seen
    }

    #[test]
    fn passes_tokens_with_one_cycle_latency() {
        let seen = stream_through(&[1, 2, 3, 4], 8);
        assert_eq!(seen, vec![1, 2, 3, 4]);
    }

    #[test]
    fn empty_station_outputs_void() {
        let rs: RelayStation<u32> = RelayStation::new();
        assert_eq!(rs.output(), Token::Void);
        assert!(!rs.stop_out());
        assert!(rs.is_empty());
    }

    #[test]
    fn stop_holds_data_without_loss() {
        let mut rs = RelayStation::new();
        // Cycle 0: receive 1 while downstream stops.
        rs.update(Token::Valid(1u32), true).unwrap();
        assert_eq!(rs.output(), Token::Valid(1));
        assert_eq!(rs.occupancy(), 1);
        // Cycle 1: receive 2 while still stopped -> goes to aux, stop raised.
        rs.update(Token::Valid(2), true).unwrap();
        assert_eq!(rs.occupancy(), 2);
        assert!(rs.stop_out());
        // Cycle 2: upstream saw the stop, sends nothing; downstream unblocks.
        rs.update(Token::Void, false).unwrap();
        assert_eq!(rs.output(), Token::Valid(2));
        assert_eq!(rs.occupancy(), 1);
        // Cycle 3: drain the second token.
        rs.update(Token::Void, false).unwrap();
        assert_eq!(rs.output(), Token::Void);
        assert!(rs.is_empty());
    }

    #[test]
    fn ignores_input_while_stop_asserted() {
        let mut rs = RelayStation::new();
        rs.update(Token::Valid(1u32), true).unwrap();
        rs.update(Token::Valid(2), true).unwrap();
        assert!(rs.stop_out());
        // Upstream re-presents 2 because it saw our stop only now; the station
        // must not double-store it.
        rs.update(Token::Valid(2), true).unwrap();
        assert_eq!(rs.occupancy(), 2);
    }

    #[test]
    fn overflow_detected_when_protocol_violated() {
        let mut rs = RelayStation::new();
        rs.update(Token::Valid(1u32), true).unwrap();
        // Force a violation: clear the stop register as if the upstream were
        // allowed to send, then push two more while blocked.
        rs.stop_reg = false;
        rs.update(Token::Valid(2), true).unwrap();
        rs.stop_reg = false;
        let err = rs.update(Token::Valid(3), true).unwrap_err();
        assert_eq!(err, ProtocolError::RelayOverflow);
    }

    #[test]
    fn reset_clears_state() {
        let mut rs = RelayStation::new();
        rs.update(Token::Valid(1u32), true).unwrap();
        rs.update(Token::Valid(2), true).unwrap();
        rs.reset();
        assert!(rs.is_empty());
        assert!(!rs.stop_out());
    }

    #[test]
    fn chain_of_zero_is_transparent() {
        let chain: RelayChain<u32> = RelayChain::new(0);
        assert!(chain.is_empty());
        assert_eq!(chain.output(&Token::Valid(9)), Token::Valid(9));
        assert!(chain.stop_out(true));
        assert!(!chain.stop_out(false));
    }

    #[test]
    fn chain_latency_equals_length() {
        for n in 1..5usize {
            let mut chain = RelayChain::new(n);
            let mut first_seen = None;
            for cycle in 0..20 {
                let input = if cycle == 0 {
                    Token::Valid(42u32)
                } else {
                    Token::Void
                };
                if chain.output(&input).is_valid() && first_seen.is_none() {
                    first_seen = Some(cycle);
                }
                chain.update(&input, false).unwrap();
            }
            // A token injected at cycle 0 appears at the output after n cycles.
            assert_eq!(first_seen, Some(n), "chain of {n} stations");
        }
    }

    #[test]
    fn chain_streams_at_full_rate() {
        let mut chain = RelayChain::new(3);
        let mut received = Vec::new();
        for cycle in 0..40u32 {
            if let Token::Valid(v) = chain.output(&Token::Valid(cycle)) {
                received.push(v);
            }
            chain.update(&Token::Valid(cycle), false).unwrap();
        }
        // After the 3-cycle fill latency the chain sustains one token/cycle.
        assert_eq!(received, (0..37).collect::<Vec<_>>());
    }

    #[test]
    fn chain_backpressure_preserves_all_tokens() {
        let mut chain = RelayChain::new(2);
        let mut received = Vec::new();
        let mut next_to_send = 0u32;
        for cycle in 0..60 {
            // Downstream accepts only every third cycle.
            let stop_in = cycle % 3 != 0;
            let producer_blocked = chain.stop_out(stop_in);
            let input = if producer_blocked || next_to_send >= 10 {
                Token::Void
            } else {
                let t = Token::Valid(next_to_send);
                next_to_send += 1;
                t
            };
            if !stop_in {
                if let Token::Valid(v) = chain.output(&input) {
                    received.push(v);
                }
            }
            chain.update(&input, stop_in).unwrap();
        }
        assert_eq!(received, (0..10).collect::<Vec<_>>());
    }
}
