//! # wp-netlist — netlist graph analysis for wire-pipelined systems
//!
//! This crate is the graph substrate of
//! *"A New System Design Methodology for Wire Pipelined SoC"*
//! (M. R. Casu, L. Macchiarulo, DATE 2005): it represents a system as a
//! directed multigraph of processes (IP blocks) and channels, enumerates
//! the netlist loops that limit the throughput of a latency-insensitive
//! implementation, applies the paper's loop throughput law
//! `Th = m / (m + n)` and searches relay-station placements.
//!
//! ## Paper map
//!
//! * [`Netlist`] / [`to_dot`] — the system graph of the paper's **Figure 1**
//!   (five blocks, nine channel bundles); `to_dot` regenerates the figure
//!   as Graphviz input (`figure1` binary of `wp-bench`);
//! * [`ThroughputModel`] — the **Section 2** loop law: a loop with `m`
//!   processes and `n` relay stations sustains `Th = m/(m+n)` under strict
//!   (WP1) shells ([`ThroughputModel::law`]), and the worst loop bounds the
//!   system (the "law WP1" column of **Table 1**; validated end-to-end by
//!   the `loop_law` binary).  The default [`ThroughputModel::Exact`]
//!   backend finds the worst loop by Karp's maximum-cycle-ratio algorithm
//!   (no enumeration, no cap); [`ThroughputModel::Enumerated`] lists every
//!   loop up to a cap and reports truncation
//!   ([`ThroughputAnalysis::is_exhaustive`]);
//! * [`McrSolver`] — the exact solver as a reusable workspace for
//!   incremental re-solves over a fixed topology (placement search);
//! * [`enumerate_cycles`] / [`strongly_connected_components`] — the loop
//!   inventory behind the enumerated backend (Johnson-style enumeration
//!   restricted to cyclic SCCs);
//! * [`optimize_assignment`] / [`optimize_assignment_greedy`] — the
//!   relay-station *placement* search of **Section 3**: distribute a fixed
//!   relay-station budget so the predicted worst-loop throughput is
//!   maximised (the "Optimal k" rows of **Table 1**);
//! * [`relay_stations_for_delay`] — the physical lower bound per channel
//!   (wire delay ⇒ minimum stations), the **Section 1** premise that wires
//!   no longer cross the die in one clock; `wp-floorplan` supplies the
//!   delays.
//!
//! ## Quick example
//!
//! ```
//! use wp_netlist::{Netlist, ThroughputModel};
//!
//! // A two-block loop with one relay station on one direction.
//! let mut net = Netlist::new();
//! let cu = net.add_node("CU");
//! let alu = net.add_node("ALU");
//! let fwd = net.add_edge("opcode", cu, alu);
//! net.add_edge("flags", alu, cu);
//! net.set_relay_stations(fwd, 1);
//!
//! let analysis = ThroughputModel::Exact.analyze(&net);
//! // One loop with m = 2 processes and n = 1 relay station: Th = 2/3.
//! assert_eq!(analysis.loops().len(), 1);
//! assert!((analysis.system_throughput() - 2.0 / 3.0).abs() < 1e-12);
//! assert!(analysis.is_exhaustive());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cycles;
mod dot;
mod graph;
mod insertion;
mod scc;
mod throughput;

pub use cycles::{enumerate_cycles, Cycle, CycleEnumeration};
pub use dot::{loop_inventory, to_dot, to_dot_with};
pub use graph::{Edge, EdgeId, Netlist, Node, NodeId};
pub use insertion::{
    assign_single_link, assign_uniform, optimize_assignment, optimize_assignment_greedy,
    relay_stations_for_delay, OptimizedAssignment,
};
pub use scc::{cyclic_components, strongly_connected_components};
pub use throughput::{LoopInfo, McrSolver, ThroughputAnalysis, ThroughputModel, DEFAULT_MAX_LOOPS};
