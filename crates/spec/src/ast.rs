//! The netlist description data model: blocks, ports, channels and the
//! relay budget, plus the canonical printer and the registry-free
//! [`Netlist`] export.

use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

use wp_netlist::{relay_stations_for_delay, Netlist};

/// The most relay stations one channel may carry, whether declared with
/// `relay=` or derived from `latency=` by [`NetlistSpec::insert_relays`].
/// Every simulator allocates each station, so a count read from spec text
/// must be bounded before it reaches one: an unbounded count aborts the
/// process on allocation instead of failing with a [`SpecError`].  The
/// paper's wires need a handful of stations; this leaves ample headroom.
pub const MAX_RELAY_STATIONS: usize = 4096;

/// Errors raised while parsing or lowering a netlist spec.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SpecError {
    /// The spec text violates the format; `line` is 1-based (0 for
    /// whole-spec violations detected after the last line).
    Parse {
        /// 1-based offending line (0 for end-of-spec checks).
        line: usize,
        /// Human-readable explanation.
        message: String,
    },
    /// A well-formed spec could not be lowered to a system: unknown block
    /// kind, port-count mismatch with the constructed process, budget
    /// overrun, or an inconsistency reported by the system builder.
    Build {
        /// Human-readable explanation.
        message: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Parse { line, message } => write!(f, "spec line {line}: {message}"),
            SpecError::Build { message } => write!(f, "spec lowering failed: {message}"),
        }
    }
}

impl Error for SpecError {}

/// One endpoint of a channel: a block and one of its named ports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Endpoint {
    /// Referenced block name.
    pub block: String,
    /// Referenced port name (an output for `from=`, an input for `to=`).
    pub port: String,
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.block, self.port)
    }
}

/// One `block` directive: a named block of some registry-interpreted kind,
/// its open attribute list and its declared ports (declaration order is
/// port index).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockSpec {
    /// Unique block name.
    pub name: String,
    /// Block kind, resolved by a [`crate::BlockRegistry`] at lowering.
    pub kind: String,
    /// Remaining `key=value` attributes, in declaration order; their
    /// meaning is owned by the registry constructor for `kind`.
    pub attrs: Vec<(String, String)>,
    /// Declared input ports, in order (index = position).
    pub inputs: Vec<String>,
    /// Declared output ports, in order (index = position).
    pub outputs: Vec<String>,
}

impl BlockSpec {
    /// The value of attribute `key`, when present.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// One `channel` directive: a named point-to-point connection with its
/// relay-station count and optional wire latency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelDecl {
    /// Unique channel name.
    pub name: String,
    /// Producer endpoint (an output port).
    pub from: Endpoint,
    /// Consumer endpoint (an input port).
    pub to: Endpoint,
    /// Relay stations on the channel (default 0; `relay=` or a `relay`
    /// directive).
    pub relay_stations: usize,
    /// Wire latency in clock periods (`latency=` or a `latency`
    /// directive), consumed by [`NetlistSpec::insert_relays`].
    pub latency: Option<u64>,
}

/// A parsed netlist description: the data every executable view is built
/// from (scalar/golden/lane simulators via [`crate::lower`], the
/// throughput graph via [`NetlistSpec::to_netlist`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetlistSpec {
    /// Declared blocks, in order (index = process identifier after
    /// lowering).
    pub blocks: Vec<BlockSpec>,
    /// Declared channels, in order (index = channel identifier after
    /// lowering).
    pub channels: Vec<ChannelDecl>,
    /// Total relay-station budget (`budget` directive), when declared.
    pub budget: Option<usize>,
}

impl NetlistSpec {
    /// Finds a block by name.
    pub fn find_block(&self, name: &str) -> Option<&BlockSpec> {
        self.blocks.iter().find(|b| b.name == name)
    }

    /// Finds a channel by name.
    pub fn find_channel(&self, name: &str) -> Option<&ChannelDecl> {
        self.channels.iter().find(|c| c.name == name)
    }

    /// Total relay stations over all channels.
    pub fn total_relay_stations(&self) -> usize {
        self.channels.iter().map(|c| c.relay_stations).sum()
    }

    /// The per-channel relay-station assignment, indexed like the channel
    /// declarations — and therefore exactly like the edges of
    /// [`NetlistSpec::to_netlist`], whose insertion order matches the
    /// declaration order.  This is the vector a design-space search mutates
    /// (see `wp_dse`).
    pub fn relay_assignment(&self) -> Vec<usize> {
        self.channels.iter().map(|c| c.relay_stations).collect()
    }

    /// Applies a relay-station assignment produced by
    /// [`NetlistSpec::relay_assignment`] (or by a search over that space),
    /// one count per declared channel.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len()` differs from the channel count.
    pub fn apply_relay_assignment(&mut self, assignment: &[usize]) {
        assert_eq!(
            assignment.len(),
            self.channels.len(),
            "assignment length must equal the channel count"
        );
        for (channel, &rs) in self.channels.iter_mut().zip(assignment) {
            channel.relay_stations = rs;
        }
    }

    /// The per-channel wire latencies implied by the declarations at the
    /// given reference clock period: the declared `latency=` when present,
    /// otherwise the longest wire delay consistent with the declared relay
    /// count under the paper's budgeting rule
    /// (`relay = ⌈latency/period⌉ − 1`, so `latency =
    /// (relay + 1) · reference_period`).
    ///
    /// A design-space search reads these as the *physical* wire delays of
    /// the netlist: an assignment giving channel `i` `r` stations splits
    /// its wire into `r + 1` segments, each of which must fit in one clock
    /// period, so the assignment's fastest feasible clock is
    /// `max(reference_period, maxᵢ latencyᵢ/(rᵢ+1))`.
    ///
    /// # Panics
    ///
    /// Panics when `reference_period` is not positive.
    pub fn wire_latencies(&self, reference_period: f64) -> Vec<f64> {
        assert!(
            reference_period > 0.0,
            "reference clock period must be positive"
        );
        self.channels
            .iter()
            .map(|c| match c.latency {
                Some(latency) => latency as f64,
                None => (c.relay_stations + 1) as f64 * reference_period,
            })
            .collect()
    }

    /// Converts every declared channel latency into a relay-station count
    /// (`⌈latency / clock_period⌉ − 1`, the paper's wire-pipelining rule)
    /// and clears the latency, keeping whatever explicit count is larger.
    /// A count above [`MAX_RELAY_STATIONS`] (a latency parsed at the unit
    /// period, inserted at a shorter one) fails [`NetlistSpec::check`], so
    /// lowering rejects it.
    ///
    /// # Panics
    ///
    /// Panics when `clock_period` is not positive (propagated from
    /// [`relay_stations_for_delay`]).
    pub fn insert_relays(&mut self, clock_period: f64) {
        for channel in &mut self.channels {
            if let Some(latency) = channel.latency.take() {
                let rs = relay_stations_for_delay(latency as f64, clock_period);
                channel.relay_stations = channel.relay_stations.max(rs);
            }
        }
    }

    /// Validates the whole-spec invariants that individual directive lines
    /// cannot: at least one block, every channel endpoint resolving to a
    /// declared port of the right direction, every declared port used by
    /// exactly one channel, at most [`MAX_RELAY_STATIONS`] stations per
    /// channel (also after [`NetlistSpec::insert_relays`]), and the relay
    /// total within the budget.
    ///
    /// Parsing runs this before returning; it is public because specs can
    /// also be built programmatically (the `wp_gen` generator) or mutated
    /// after parsing.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for the first violation.
    pub fn check(&self) -> Result<(), String> {
        if self.blocks.is_empty() {
            return Err("the spec declares no blocks".to_string());
        }
        // Usage counters, indexed like the declarations.
        let mut in_counts: Vec<Vec<usize>> = self
            .blocks
            .iter()
            .map(|b| vec![0; b.inputs.len()])
            .collect();
        let mut out_counts: Vec<Vec<usize>> = self
            .blocks
            .iter()
            .map(|b| vec![0; b.outputs.len()])
            .collect();
        for channel in &self.channels {
            let (src, src_port) = self
                .resolve(&channel.from, Direction::Out)
                .map_err(|e| format!("channel '{}': {e}", channel.name))?;
            let (dst, dst_port) = self
                .resolve(&channel.to, Direction::In)
                .map_err(|e| format!("channel '{}': {e}", channel.name))?;
            out_counts[src][src_port] += 1;
            in_counts[dst][dst_port] += 1;
            if channel.relay_stations > MAX_RELAY_STATIONS {
                return Err(format!(
                    "channel '{}' has {} relay stations; at most {MAX_RELAY_STATIONS} per channel",
                    channel.name, channel.relay_stations
                ));
            }
        }
        for (b, block) in self.blocks.iter().enumerate() {
            for (p, count) in in_counts[b].iter().enumerate() {
                if *count != 1 {
                    return Err(format!(
                        "input port '{}.{}' is fed by {count} channels (expected 1)",
                        block.name, block.inputs[p]
                    ));
                }
            }
            for (p, count) in out_counts[b].iter().enumerate() {
                if *count != 1 {
                    return Err(format!(
                        "output port '{}.{}' drives {count} channels (expected 1)",
                        block.name, block.outputs[p]
                    ));
                }
            }
        }
        if let Some(budget) = self.budget {
            let total = self.total_relay_stations();
            if total > budget {
                return Err(format!(
                    "total relay stations {total} exceed budget {budget}"
                ));
            }
        }
        Ok(())
    }

    /// Resolves an endpoint to `(block index, port index)` in the given
    /// direction.
    pub(crate) fn resolve(
        &self,
        endpoint: &Endpoint,
        direction: Direction,
    ) -> Result<(usize, usize), String> {
        let block = self
            .blocks
            .iter()
            .position(|b| b.name == endpoint.block)
            .ok_or_else(|| format!("endpoint '{endpoint}' references unknown block"))?;
        let ports = match direction {
            Direction::In => &self.blocks[block].inputs,
            Direction::Out => &self.blocks[block].outputs,
        };
        let port = ports
            .iter()
            .position(|p| *p == endpoint.port)
            .ok_or_else(|| {
                format!(
                    "block '{}' has no {} port '{}'",
                    endpoint.block,
                    direction.label(),
                    endpoint.port
                )
            })?;
        Ok((block, port))
    }

    /// Builds the [`Netlist`] view of the spec without constructing any
    /// process: one node per block (named after it), one edge per channel,
    /// annotated with the relay-station counts.  Node/edge insertion order
    /// matches the declaration order, so `NodeId::index()` is the block
    /// index.
    pub fn to_netlist(&self) -> Netlist {
        let mut net = Netlist::new();
        let nodes: Vec<_> = self
            .blocks
            .iter()
            .map(|b| net.add_node(b.name.clone()))
            .collect();
        for channel in &self.channels {
            let src = self
                .blocks
                .iter()
                .position(|b| b.name == channel.from.block)
                .expect("checked spec: every endpoint block is declared");
            let dst = self
                .blocks
                .iter()
                .position(|b| b.name == channel.to.block)
                .expect("checked spec: every endpoint block is declared");
            let e = net.add_edge(channel.name.clone(), nodes[src], nodes[dst]);
            net.set_relay_stations(e, channel.relay_stations);
        }
        net
    }

    /// Prints the spec in canonical form: each block followed by its ports,
    /// then the channels (relay/latency inlined as `relay=`/`latency=`),
    /// then the budget.  Parsing the printed text yields an identical spec
    /// (`parse(print(s)) == s`), which the round-trip property tests pin.
    pub fn print(&self) -> String {
        let mut out = String::new();
        for block in &self.blocks {
            let _ = write!(out, "block {} kind={}", block.name, fmt_value(&block.kind));
            for (key, value) in &block.attrs {
                let _ = write!(out, " {key}={}", fmt_value(value));
            }
            let _ = writeln!(out);
            for port in &block.inputs {
                let _ = writeln!(out, "port {} in {port}", block.name);
            }
            for port in &block.outputs {
                let _ = writeln!(out, "port {} out {port}", block.name);
            }
        }
        if !self.channels.is_empty() {
            let _ = writeln!(out);
        }
        for channel in &self.channels {
            let _ = write!(
                out,
                "channel {} from={} to={}",
                channel.name, channel.from, channel.to
            );
            if channel.relay_stations > 0 {
                let _ = write!(out, " relay={}", channel.relay_stations);
            }
            if let Some(latency) = channel.latency {
                let _ = write!(out, " latency={latency}");
            }
            let _ = writeln!(out);
        }
        if let Some(budget) = self.budget {
            let _ = writeln!(out, "\nbudget {budget}");
        }
        out
    }
}

impl fmt::Display for NetlistSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.print())
    }
}

/// Port direction of an endpoint resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Direction {
    /// Input port (`to=` endpoints).
    In,
    /// Output port (`from=` endpoints).
    Out,
}

impl Direction {
    pub(crate) fn label(self) -> &'static str {
        match self {
            Direction::In => "input",
            Direction::Out => "output",
        }
    }
}

/// Quotes a value for the canonical printer when the plain form would not
/// re-tokenize to it (whitespace or empty).
fn fmt_value(value: &str) -> String {
    if value.is_empty() || value.chars().any(char::is_whitespace) {
        format!("\"{value}\"")
    } else {
        value.to_string()
    }
}
