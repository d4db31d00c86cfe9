//! Enumeration of the simple cycles (netlist loops) of a netlist.
//!
//! "The responsible of performance pitfalls are the netlist loops": every
//! loop containing `m` processes and `n` relay stations limits the system
//! throughput to `m/(m+n)` when shells do not implement oracles.  This module
//! enumerates the simple cycles so that [`crate::throughput`] can apply the
//! law loop by loop.
//!
//! The enumeration is a depth-first search anchored at each node in turn
//! (only visiting nodes with an index not smaller than the anchor), which
//! yields every simple cycle exactly once.  The number of simple cycles can be
//! exponential in pathological graphs, so a hard cap is always supplied.

use crate::graph::{EdgeId, Netlist, NodeId};

/// One simple cycle (netlist loop).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cycle {
    /// The nodes of the loop in traversal order (no repetition; the edge from
    /// the last node back to the first closes the loop).
    pub nodes: Vec<NodeId>,
    /// For each hop `nodes[i] -> nodes[(i+1) % len]`, the edge chosen for the
    /// loop.  When parallel edges exist, the one with the most relay stations
    /// is selected, because that is the binding constraint for the loop
    /// throughput law.
    pub edges: Vec<EdgeId>,
}

impl Cycle {
    /// Number of processes `m` in the loop.
    pub fn process_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of relay stations `n` currently assigned along the loop.
    pub fn relay_station_count(&self, net: &Netlist) -> usize {
        self.edges
            .iter()
            .map(|&e| net.edge(e).relay_stations())
            .sum()
    }

    /// Returns `true` when the loop traverses the given node.
    pub fn contains_node(&self, node: NodeId) -> bool {
        self.nodes.contains(&node)
    }

    /// Returns `true` when the loop traverses the given edge.
    pub fn contains_edge(&self, edge: EdgeId) -> bool {
        self.edges.contains(&edge)
    }

    /// Returns `true` when the loop traverses any edge between `src` and
    /// `dst` (in that direction).
    pub fn contains_hop(&self, net: &Netlist, src: NodeId, dst: NodeId) -> bool {
        self.edges
            .iter()
            .any(|&e| net.edge(e).src() == src && net.edge(e).dst() == dst)
    }

    /// Human-readable form, e.g. `CU -> ALU -> CU`.
    pub fn describe(&self, net: &Netlist) -> String {
        let mut s = String::new();
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                s.push_str(" -> ");
            }
            s.push_str(net.node(*n).name());
        }
        if let Some(first) = self.nodes.first() {
            s.push_str(" -> ");
            s.push_str(net.node(*first).name());
        }
        s
    }
}

/// The outcome of a bounded cycle enumeration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleEnumeration {
    /// The cycles found, at most `max_cycles` of them.
    pub cycles: Vec<Cycle>,
    /// `true` when the cap stopped the enumeration with at least one
    /// simple cycle still unvisited, i.e. `cycles` is incomplete and a
    /// worse loop than any listed may exist.
    pub truncated: bool,
}

/// Enumerates the simple cycles of `net`, visiting at most `max_cycles`
/// cycles, and reports whether the cap truncated the inventory.
///
/// Self-loops (an edge from a node to itself) are reported as cycles of one
/// node and one edge.
pub fn enumerate_cycles(net: &Netlist, max_cycles: usize) -> CycleEnumeration {
    // Probe one past the cap: finding a (max + 1)-th cycle is the exact
    // witness that the enumeration is incomplete.
    let mut finder = CycleFinder {
        net,
        max_cycles: max_cycles.saturating_add(1),
        cycles: Vec::new(),
        on_path: vec![false; net.node_count()],
        path_nodes: Vec::new(),
        path_edges: Vec::new(),
    };
    for anchor in net.node_ids() {
        if finder.cycles.len() >= finder.max_cycles {
            break;
        }
        finder.search(anchor, anchor);
    }
    let mut cycles = finder.cycles;
    let truncated = cycles.len() > max_cycles;
    cycles.truncate(max_cycles);
    CycleEnumeration { cycles, truncated }
}

struct CycleFinder<'a> {
    net: &'a Netlist,
    max_cycles: usize,
    cycles: Vec<Cycle>,
    on_path: Vec<bool>,
    path_nodes: Vec<NodeId>,
    path_edges: Vec<EdgeId>,
}

impl CycleFinder<'_> {
    /// Depth-first search from `current`, only via nodes `>= anchor`.
    fn search(&mut self, anchor: NodeId, current: NodeId) {
        if self.cycles.len() >= self.max_cycles {
            return;
        }
        self.on_path[current.index()] = true;
        self.path_nodes.push(current);

        // Group out-edges by destination so parallel edges collapse onto the
        // worst (most relay stations) representative.
        let mut dests: Vec<(NodeId, EdgeId)> = Vec::new();
        for &edge in self.net.out_edges(current) {
            let dst = self.net.edge(edge).dst();
            if dst < anchor {
                continue;
            }
            match dests.iter_mut().find(|(d, _)| *d == dst) {
                Some((_, best)) => {
                    if self.net.edge(edge).relay_stations() > self.net.edge(*best).relay_stations()
                    {
                        *best = edge;
                    }
                }
                None => dests.push((dst, edge)),
            }
        }

        for (dst, edge) in dests {
            if self.cycles.len() >= self.max_cycles {
                break;
            }
            if dst == anchor {
                let mut edges = self.path_edges.clone();
                edges.push(edge);
                self.cycles.push(Cycle {
                    nodes: self.path_nodes.clone(),
                    edges,
                });
            } else if !self.on_path[dst.index()] {
                self.path_edges.push(edge);
                self.search(anchor, dst);
                self.path_edges.pop();
            }
        }

        self.path_nodes.pop();
        self.on_path[current.index()] = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(cycle: &Cycle, net: &Netlist) -> Vec<String> {
        cycle
            .nodes
            .iter()
            .map(|&n| net.node(n).name().to_string())
            .collect()
    }

    #[test]
    fn two_node_loop() {
        let mut net = Netlist::new();
        let a = net.add_node("A");
        let b = net.add_node("B");
        net.add_edge("ab", a, b);
        net.add_edge("ba", b, a);
        let cycles = enumerate_cycles(&net, 100).cycles;
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].process_count(), 2);
        assert_eq!(cycles[0].describe(&net), "A -> B -> A");
    }

    #[test]
    fn self_loop_is_a_cycle_of_one() {
        let mut net = Netlist::new();
        let a = net.add_node("A");
        net.add_edge("aa", a, a);
        let cycles = enumerate_cycles(&net, 10).cycles;
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].process_count(), 1);
        assert_eq!(cycles[0].edges.len(), 1);
    }

    #[test]
    fn dag_has_no_cycles() {
        let mut net = Netlist::new();
        let a = net.add_node("A");
        let b = net.add_node("B");
        let c = net.add_node("C");
        net.add_edge("ab", a, b);
        net.add_edge("ac", a, c);
        net.add_edge("bc", b, c);
        assert!(enumerate_cycles(&net, 10).cycles.is_empty());
    }

    #[test]
    fn nested_loops_are_all_found() {
        // A -> B -> A, B -> C -> B, A -> B -> C -> A
        let mut net = Netlist::new();
        let a = net.add_node("A");
        let b = net.add_node("B");
        let c = net.add_node("C");
        net.add_edge("ab", a, b);
        net.add_edge("ba", b, a);
        net.add_edge("bc", b, c);
        net.add_edge("cb", c, b);
        net.add_edge("ca", c, a);
        let cycles = enumerate_cycles(&net, 100).cycles;
        let mut found: Vec<Vec<String>> = cycles.iter().map(|c| names(c, &net)).collect();
        found.sort();
        assert_eq!(cycles.len(), 3);
        assert!(found.contains(&vec!["A".to_string(), "B".to_string()]));
        assert!(found.contains(&vec!["B".to_string(), "C".to_string()]));
        assert!(found.contains(&vec!["A".to_string(), "B".to_string(), "C".to_string()]));
    }

    #[test]
    fn parallel_edges_collapse_to_worst() {
        let mut net = Netlist::new();
        let a = net.add_node("A");
        let b = net.add_node("B");
        let w0 = net.add_edge("w0", a, b);
        let w1 = net.add_edge("w1", a, b);
        net.add_edge("ba", b, a);
        net.set_relay_stations(w0, 1);
        net.set_relay_stations(w1, 3);
        let cycles = enumerate_cycles(&net, 10).cycles;
        assert_eq!(cycles.len(), 1);
        assert!(cycles[0].contains_edge(w1));
        assert!(!cycles[0].contains_edge(w0));
        assert_eq!(cycles[0].relay_station_count(&net), 3);
        assert!(cycles[0].contains_hop(&net, a, b));
        assert!(cycles[0].contains_hop(&net, b, a));
    }

    #[test]
    fn cap_limits_enumeration() {
        // Complete digraph on 5 nodes has many cycles; the cap must hold.
        let mut net = Netlist::new();
        let nodes: Vec<_> = (0..5).map(|i| net.add_node(format!("N{i}"))).collect();
        for &x in &nodes {
            for &y in &nodes {
                if x != y {
                    net.add_edge(format!("{x}->{y}"), x, y);
                }
            }
        }
        let cycles = enumerate_cycles(&net, 7).cycles;
        assert_eq!(cycles.len(), 7);
        let all = enumerate_cycles(&net, 10_000).cycles;
        // Number of simple cycles of K5 (directed, all ordered pairs) is 84.
        assert_eq!(all.len(), 84);
    }

    #[test]
    fn enumeration_reports_truncation_exactly() {
        let mut net = Netlist::new();
        let nodes: Vec<_> = (0..4).map(|i| net.add_node(format!("N{i}"))).collect();
        for &x in &nodes {
            for &y in &nodes {
                if x != y {
                    net.add_edge(format!("{x}->{y}"), x, y);
                }
            }
        }
        // K4 (directed) has 20 simple cycles.
        let full = enumerate_cycles(&net, 1_000);
        assert_eq!(full.cycles.len(), 20);
        assert!(!full.truncated);
        let capped = enumerate_cycles(&net, 5);
        assert_eq!(capped.cycles.len(), 5);
        assert!(capped.truncated);
        // A cap equal to the cycle count is not a truncation.
        let exact_cap = enumerate_cycles(&net, 20);
        assert_eq!(exact_cap.cycles.len(), 20);
        assert!(!exact_cap.truncated);
    }
}
