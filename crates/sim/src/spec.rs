//! System description: processes, channels and the builder shared by the
//! golden and the wire-pipelined simulators.

use std::error::Error;
use std::fmt;

use wp_core::{Process, ProtocolError, ShellConfig};
use wp_netlist::{Netlist, NodeId};

/// Identifier of a process inside a [`SystemBuilder`] (also its index).
pub type ProcessId = usize;

/// Identifier of a channel inside a [`SystemBuilder`] (also its index).
pub type ChannelId = usize;

/// One point-to-point channel of the system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelSpec {
    /// Channel name (used in traces, reports and the netlist export).
    pub name: String,
    /// Producer process.
    pub src: ProcessId,
    /// Output port of the producer driving this channel.
    pub src_port: usize,
    /// Consumer process.
    pub dst: ProcessId,
    /// Input port of the consumer fed by this channel.
    pub dst_port: usize,
    /// Number of relay stations inserted on the channel.
    pub relay_stations: usize,
}

/// Errors raised while assembling or simulating a system.
#[derive(Debug)]
#[non_exhaustive]
pub enum SimError {
    /// The system description is inconsistent (unconnected or doubly
    /// connected ports, out-of-range identifiers, …).
    InvalidSystem(String),
    /// A latency-insensitive protocol violation occurred during simulation.
    Protocol(ProtocolError),
    /// No process fired for a long interval although the system had not
    /// halted.
    Deadlock {
        /// Cycle at which the deadlock was declared.
        cycle: u64,
    },
    /// The run did not complete within the allowed number of cycles.
    MaxCyclesExceeded {
        /// The configured cycle limit.
        max_cycles: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidSystem(msg) => write!(f, "invalid system description: {msg}"),
            SimError::Protocol(e) => write!(f, "protocol violation: {e}"),
            SimError::Deadlock { cycle } => write!(f, "deadlock detected at cycle {cycle}"),
            SimError::MaxCyclesExceeded { max_cycles } => {
                write!(f, "simulation exceeded the limit of {max_cycles} cycles")
            }
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Protocol(e) => Some(e),
            _ => None,
        }
    }
}

/// Rejects a shell configuration no kernel can simulate: the protocol's
/// registered stop lets one more token arrive after the stop is asserted,
/// so every input queue needs at least two slots.
pub(crate) fn check_shell_config(config: &ShellConfig) -> Result<(), SimError> {
    if config.fifo_capacity < 2 {
        return Err(SimError::InvalidSystem(format!(
            "shell queues need a capacity of at least 2, got {}",
            config.fifo_capacity
        )));
    }
    Ok(())
}

impl From<ProtocolError> for SimError {
    fn from(e: ProtocolError) -> Self {
        SimError::Protocol(e)
    }
}

/// Describes a complete system: a set of processes and the point-to-point
/// channels connecting their ports.
///
/// The same description can be turned into a golden (zero-latency,
/// fully synchronous) simulator or into a wire-pipelined latency-insensitive
/// simulator; experiment harnesses therefore build the description once per
/// run through a factory function.
pub struct SystemBuilder<V> {
    processes: Vec<Box<dyn Process<V>>>,
    channels: Vec<ChannelSpec>,
}

impl<V> fmt::Debug for SystemBuilder<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SystemBuilder")
            .field("processes", &self.processes.len())
            .field("channels", &self.channels.len())
            .finish()
    }
}

impl<V> Default for SystemBuilder<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> SystemBuilder<V> {
    /// Creates an empty system description.
    pub fn new() -> Self {
        Self {
            processes: Vec::new(),
            channels: Vec::new(),
        }
    }

    /// Adds a process and returns its identifier.
    pub fn add_process(&mut self, process: Box<dyn Process<V>>) -> ProcessId {
        self.processes.push(process);
        self.processes.len() - 1
    }

    /// Connects output `src_port` of `src` to input `dst_port` of `dst`
    /// through `relay_stations` relay stations, and returns the channel
    /// identifier.
    pub fn connect(
        &mut self,
        name: impl Into<String>,
        src: ProcessId,
        src_port: usize,
        dst: ProcessId,
        dst_port: usize,
        relay_stations: usize,
    ) -> ChannelId {
        self.channels.push(ChannelSpec {
            name: name.into(),
            src,
            src_port,
            dst,
            dst_port,
            relay_stations,
        });
        self.channels.len() - 1
    }

    /// Number of processes added so far.
    pub fn process_count(&self) -> usize {
        self.processes.len()
    }

    /// Number of channels added so far.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// The channel descriptions.
    pub fn channels(&self) -> &[ChannelSpec] {
        &self.channels
    }

    /// Overrides the number of relay stations on a channel.
    ///
    /// # Panics
    ///
    /// Panics if the channel identifier is out of range.
    pub fn set_relay_stations(&mut self, channel: ChannelId, n: usize) {
        self.channels[channel].relay_stations = n;
    }

    /// Finds a channel by name.
    pub fn find_channel(&self, name: &str) -> Option<ChannelId> {
        self.channels.iter().position(|c| c.name == name)
    }

    /// Borrow the processes (the lane batcher's structural defense compares
    /// names and port counts across the built descriptions of one batch).
    pub(crate) fn processes(&self) -> &[Box<dyn Process<V>>] {
        &self.processes
    }

    /// Borrow the processes (used by the simulators after validation).
    pub(crate) fn into_parts(self) -> (Vec<Box<dyn Process<V>>>, Vec<ChannelSpec>) {
        (self.processes, self.channels)
    }

    /// Builds the [`Netlist`] view of the system (one node per process, one
    /// edge per channel, annotated with the current relay-station counts).
    ///
    /// The node/edge insertion order matches the process/channel identifiers,
    /// so `NodeId::index()` equals the [`ProcessId`].
    pub fn to_netlist(&self) -> Netlist {
        let mut net = Netlist::new();
        let nodes: Vec<NodeId> = self
            .processes
            .iter()
            .map(|p| net.add_node(p.name().to_string()))
            .collect();
        for ch in &self.channels {
            let e = net.add_edge(ch.name.clone(), nodes[ch.src], nodes[ch.dst]);
            net.set_relay_stations(e, ch.relay_stations);
        }
        net
    }

    /// Validates the description: every port referenced exists, every input
    /// port is driven by exactly one channel and every output port drives
    /// exactly one channel.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidSystem`] with a human-readable explanation.
    pub fn validate(&self) -> Result<(), SimError> {
        let mut in_driven = vec![Vec::new(); self.processes.len()];
        let mut out_driven = vec![Vec::new(); self.processes.len()];
        for (i, p) in self.processes.iter().enumerate() {
            in_driven[i] = vec![0usize; p.num_inputs()];
            out_driven[i] = vec![0usize; p.num_outputs()];
        }
        for ch in &self.channels {
            if ch.src >= self.processes.len() || ch.dst >= self.processes.len() {
                return Err(SimError::InvalidSystem(format!(
                    "channel '{}' references an unknown process",
                    ch.name
                )));
            }
            if ch.src_port >= self.processes[ch.src].num_outputs() {
                return Err(SimError::InvalidSystem(format!(
                    "channel '{}' uses output port {} of '{}' which only has {} outputs",
                    ch.name,
                    ch.src_port,
                    self.processes[ch.src].name(),
                    self.processes[ch.src].num_outputs()
                )));
            }
            if ch.dst_port >= self.processes[ch.dst].num_inputs() {
                return Err(SimError::InvalidSystem(format!(
                    "channel '{}' uses input port {} of '{}' which only has {} inputs",
                    ch.name,
                    ch.dst_port,
                    self.processes[ch.dst].name(),
                    self.processes[ch.dst].num_inputs()
                )));
            }
            out_driven[ch.src][ch.src_port] += 1;
            in_driven[ch.dst][ch.dst_port] += 1;
        }
        for (i, p) in self.processes.iter().enumerate() {
            for (port, count) in in_driven[i].iter().enumerate() {
                if *count != 1 {
                    return Err(SimError::InvalidSystem(format!(
                        "input port {port} of '{}' is driven by {count} channels (expected 1)",
                        p.name()
                    )));
                }
            }
            for (port, count) in out_driven[i].iter().enumerate() {
                if *count != 1 {
                    return Err(SimError::InvalidSystem(format!(
                        "output port {port} of '{}' drives {count} channels (expected 1)",
                        p.name()
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_core::{RecordingSink, SequenceSource};

    fn simple_builder() -> SystemBuilder<u64> {
        let mut b = SystemBuilder::new();
        let src = b.add_process(Box::new(SequenceSource::new("src", vec![1, 2, 3], 0)));
        let sink = b.add_process(Box::new(RecordingSink::new("sink", 0)));
        b.connect("data", src, 0, sink, 0, 0);
        // The sink's unused output must also be tied off to satisfy the
        // point-to-point rule: route it to a second sink? Instead use a
        // dedicated terminator below in tests that need full validity.
        b
    }

    #[test]
    fn builder_accumulates_processes_and_channels() {
        let b = simple_builder();
        assert_eq!(b.process_count(), 2);
        assert_eq!(b.channel_count(), 1);
        assert_eq!(b.find_channel("data"), Some(0));
        assert_eq!(b.find_channel("nope"), None);
    }

    #[test]
    fn validation_catches_unconnected_output() {
        let b = simple_builder();
        // The sink exposes one output which is not connected anywhere.
        let err = b.validate().unwrap_err();
        assert!(matches!(err, SimError::InvalidSystem(_)));
        assert!(err.to_string().contains("output port"));
    }

    #[test]
    fn validation_accepts_fully_connected_loop() {
        let mut b = SystemBuilder::new();
        let a = b.add_process(Box::new(RecordingSink::new("a", 0u64)));
        let c = b.add_process(Box::new(RecordingSink::new("b", 0u64)));
        b.connect("ab", a, 0, c, 0, 1);
        b.connect("ba", c, 0, a, 0, 0);
        assert!(b.validate().is_ok());
        let net = b.to_netlist();
        assert_eq!(net.node_count(), 2);
        assert_eq!(net.edge_count(), 2);
        assert_eq!(net.edge(net.find_edge("ab").unwrap()).relay_stations(), 1);
    }

    #[test]
    fn validation_catches_bad_port_index() {
        let mut b = SystemBuilder::new();
        let a = b.add_process(Box::new(RecordingSink::new("a", 0u64)));
        let c = b.add_process(Box::new(RecordingSink::new("b", 0u64)));
        b.connect("ab", a, 3, c, 0, 0);
        let err = b.validate().unwrap_err();
        assert!(err.to_string().contains("output port 3"));
    }

    #[test]
    fn sim_error_display_and_source() {
        let e: SimError = ProtocolError::RelayOverflow.into();
        assert!(e.to_string().contains("protocol violation"));
        assert!(std::error::Error::source(&e).is_some());
        let d = SimError::Deadlock { cycle: 42 };
        assert!(d.to_string().contains("42"));
    }
}
