//! # wp_spec — the netlist description language
//!
//! A small hand-rolled text format (`*.nl`) describing latency-insensitive
//! netlists — blocks, ports, channels, relay stations, wire latencies and a
//! relay budget — plus the checked lowering that turns one spec into every
//! executable view the workspace knows: the scalar `wp_sim::LidSimulator`,
//! the `GoldenSimulator`/`NaiveGoldenSimulator` reference twins, 64-lane
//! `LaneLidSimulator` batches (all via the lowered `SystemBuilder`), and
//! the `wp_netlist` throughput graph for the exact max-cycle-ratio solver.
//!
//! The format is line-oriented (tokenizer: [`wp_lex`]; no serde — the
//! workspace builds without registry access), with line-numbered errors:
//!
//! ```text
//! # A two-stage loop with one relay station.
//! block a kind=fan
//! port a in loop
//! port a out next
//! block b kind=fan
//! port b in prev
//! port b out back
//!
//! channel ab from=a.next to=b.prev relay=1
//! channel ba from=b.back to=a.loop
//!
//! budget 1
//! ```
//!
//! * `block <name> kind=<kind> [key=value ...]` — a block; the kind and the
//!   open attribute set are interpreted by a [`BlockRegistry`] at lowering
//!   ([`synthetic_registry`] for self-contained `u64` netlists; `wp_proc`
//!   registers the case-study processor kinds).
//! * `port <block> in|out <name>` — declares a port; declaration order is
//!   the port index of the lowered process.
//! * `channel <name> from=<block>.<port> to=<block>.<port> [relay=N]
//!   [latency=L]` — a point-to-point channel with `N` relay stations
//!   and/or a wire latency of `L` clock periods (each bounded by
//!   [`MAX_RELAY_STATIONS`], so a spec cannot ask a simulator for an
//!   unbounded allocation).
//! * `relay <channel> <N>` / `latency <channel> <L>` — standalone
//!   overrides, so a base topology can be re-budgeted without editing the
//!   channel lines.
//! * `budget <N>` — the total relay-station budget the spec must not
//!   exceed.
//!
//! Parsing is strict (duplicate names, dangling references, malformed
//! values and whole-spec violations all fail with their line), printing is
//! canonical (`parse(print(s)) == s`, pinned by property tests), and
//! lowering is [`SpecError`]-checked end to end.

#![warn(missing_docs)]

mod ast;
mod lower;
mod parse;
mod synth;

pub use ast::{BlockSpec, ChannelDecl, Endpoint, NetlistSpec, SpecError, MAX_RELAY_STATIONS};
pub use lower::{lower, BlockRegistry};
pub use synth::{synthetic_registry, FanBlock};

use wp_netlist::to_dot_with;

/// Renders a spec as a Graphviz `digraph` via its [`NetlistSpec::to_netlist`]
/// view: relay placements on the edge labels, wire latencies as per-edge
/// notes, and the block/channel/relay totals (with the budget, when
/// declared) as the graph caption — so failing generated netlists are
/// inspectable at a glance.
pub fn spec_to_dot(spec: &NetlistSpec, graph_name: &str) -> String {
    let net = spec.to_netlist();
    let total = spec.total_relay_stations();
    let caption = match spec.budget {
        Some(budget) => format!(
            "{} blocks, {} channels, {total} of {budget} RS budget",
            spec.blocks.len(),
            spec.channels.len()
        ),
        None => format!(
            "{} blocks, {} channels, {total} RS",
            spec.blocks.len(),
            spec.channels.len()
        ),
    };
    to_dot_with(&net, graph_name, Some(&caption), |edge| {
        spec.channels[edge.index()]
            .latency
            .map(|l| format!("lat {l}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOOP: &str = "block a kind=fan\n\
                        port a in loop\n\
                        port a out next\n\
                        block b kind=fan\n\
                        port b in prev\n\
                        port b out back\n\
                        channel ab from=a.next to=b.prev relay=1\n\
                        channel ba from=b.back to=a.loop latency=3\n\
                        budget 4\n";

    #[test]
    fn spec_to_dot_annotates_relays_latencies_and_budget() {
        let spec = NetlistSpec::parse(LOOP).expect("parses");
        let dot = spec_to_dot(&spec, "g");
        assert!(dot.contains("digraph g {"), "{dot}");
        assert!(dot.contains("ab [1 RS]"), "{dot}");
        assert!(dot.contains("ba (lat 3)"), "{dot}");
        assert!(
            dot.contains("2 blocks, 2 channels, 1 of 4 RS budget"),
            "{dot}"
        );
    }

    #[test]
    fn lowered_spec_drives_all_four_executable_views() {
        use wp_core::ShellConfig;
        use wp_sim::{
            GoldenSimulator, LaneLidSimulator, LaneScenario, LidSimulator, NaiveGoldenSimulator,
        };

        let spec = NetlistSpec::parse(LOOP).expect("parses");
        let registry = synthetic_registry();
        let build = || lower(&spec, &registry).expect("lowers");

        // Scalar wire-pipelined run.
        let mut lid = LidSimulator::new(build(), ShellConfig::strict()).expect("assembles");
        let cycles = lid
            .run_until_firings(0, 100, 10_000)
            .expect("loop never deadlocks");
        assert!(cycles >= 100);

        // Golden twins (demand-stepped and naive).
        GoldenSimulator::new(build()).expect("golden assembles");
        NaiveGoldenSimulator::new(build()).expect("naive golden assembles");

        // Lane-packed batch.
        let lanes = vec![
            LaneScenario {
                relay_stations: vec![1, 0],
                stall: None,
            };
            3
        ];
        let mut lane = LaneLidSimulator::new(build(), &lanes, ShellConfig::strict())
            .expect("lane batch assembles");
        for outcome in lane.run_until_firings_extrapolated(0, 100, 10_000) {
            outcome.expect("loop never deadlocks");
        }

        // Throughput graph: a 2-process loop with 1 RS sustains 2/3.
        let predicted = wp_netlist::ThroughputModel::Exact.predict(&spec.to_netlist());
        assert!((predicted - 2.0 / 3.0).abs() < 1e-9, "{predicted}");
    }
}
