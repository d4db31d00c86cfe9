//! # wp-core — latency-insensitive protocol core for wire-pipelined SoCs
//!
//! This crate implements the primary contribution of
//! *"A New System Design Methodology for Wire Pipelined SoC"*
//! (M. R. Casu, L. Macchiarulo, DATE 2005): latency-insensitive **shells**
//! (wrappers) that let unmodified IP blocks tolerate the extra channel latency
//! introduced by wire pipelining, including the paper's **oracle** extension
//! (*WP2*) which exploits a minimal knowledge of each block's communication
//! profile to fire blocks before all their inputs have arrived.
//!
//! The building blocks are:
//!
//! * [`Token`] — the per-cycle content of a channel wire (a value or the void
//!   symbol τ);
//! * [`Process`] — the interface an IP block exposes (Moore outputs, a firing
//!   function and, optionally, the oracle [`Process::required_inputs`]);
//! * [`RelayStation`] / [`RelayChain`] — the wire-pipeline elements with
//!   main + auxiliary registers and registered back-pressure;
//! * [`BoundedFifo`] — the finite input queues of the shells;
//! * [`Shell`] — the wrapper itself, in the strict (WP1) or oracle (WP2)
//!   flavour selected by [`SyncPolicy`];
//! * [`TraceArena`] and [`StreamingEquivalence`] — the channel recorder
//!   and the one N-equivalence checker used to prove that wrapping
//!   preserved functionality ([`check_equivalence`] runs the checker over
//!   two finished recordings).
//!
//! Higher-level crates assemble these pieces into full systems:
//! `wp-netlist` (graph analysis and the m/(m+n) loop-throughput law),
//! `wp-sim` (cycle-accurate golden and wire-pipelined simulators),
//! `wp-proc` (the five-block processor case study of the paper),
//! `wp-floorplan` (relay-station budgeting from physical wire lengths) and
//! `wp-area` (shell area overhead model).
//!
//! ## Quick example
//!
//! ```
//! use wp_core::{Process, PortSet, Shell, ShellConfig, Token};
//!
//! /// A block that doubles its input.
//! struct Doubler { last: u64 }
//! impl Process<u64> for Doubler {
//!     fn name(&self) -> &str { "doubler" }
//!     fn num_inputs(&self) -> usize { 1 }
//!     fn num_outputs(&self) -> usize { 1 }
//!     fn output(&self, _p: usize) -> u64 { self.last }
//!     fn fire(&mut self, inputs: &[Option<u64>]) {
//!         if let Some(v) = inputs[0] { self.last = 2 * v; }
//!     }
//!     fn reset(&mut self) { self.last = 0; }
//! }
//!
//! let mut shell = Shell::new(Box::new(Doubler { last: 0 }), ShellConfig::strict());
//! // Cycle 0: a token arrives and the block fires at the end of the cycle.
//! let fired = shell.update(&[Token::Valid(21)], &[false])?;
//! assert!(fired);
//! assert_eq!(shell.output(0), Token::Valid(42));
//! // Cycle 1: no token: the shell stalls and presents τ downstream
//! // (the previous token was accepted, so the slot was released).
//! shell.update(&[Token::Void], &[false])?;
//! assert_eq!(shell.firings(), 1);
//! # Ok::<(), wp_core::ProtocolError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod control;
mod equivalence;
mod error;
mod fifo;
mod port;
mod process;
mod relay;
mod shell;
mod token;
mod trace;

pub use control::{
    relay_station_control, shell_fire_control, shell_release_control, ControlWord, RelayControl,
};
pub use equivalence::{check_equivalence, ChannelVerdict, EquivalenceReport, StreamingEquivalence};
pub use error::ProtocolError;
pub use fifo::BoundedFifo;
pub use port::{Iter as PortSetIter, PortSet, MAX_PORTS};
pub use process::{collect_outputs, Process, RecordingSink, SequenceSource};
pub use relay::{RelayChain, RelayStation};
pub use shell::{Shell, ShellConfig, ShellStats, StallCause, SyncPolicy};
pub use token::Token;
pub use trace::{TraceArena, TraceEntry, TraceRef};
