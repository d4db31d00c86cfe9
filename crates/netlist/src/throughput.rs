//! The loop throughput law, the worst-loop analysis and the exact
//! maximum-cycle-ratio solver.
//!
//! For shells without oracles (WP1) the paper states that a loop containing
//! `m` processes and `n` pipeline delays sustains a throughput
//! `Th = m / (m + n)` and that the worst loop dominates the system
//! throughput.  These are upper bounds under the oracle policy (WP2), which
//! can do better whenever a loop is not exercised by every computation.
//!
//! Two backends compute the worst loop, unified behind [`ThroughputModel`]:
//!
//! * [`ThroughputModel::Exact`] — Karp's maximum cycle mean algorithm per
//!   cyclic strongly connected component.  Minimising `m/(m+n)` over the
//!   loops is the same as maximising the mean number of relay stations per
//!   hop, `n/m`, so the worst ratio is found in `O(V·E)` per component with
//!   **no cycle enumeration**; comparisons are exact rationals, never
//!   floats.  [`McrSolver`] exposes the same solver as a reusable workspace
//!   so a placement search re-scores thousands of assignments per second.
//! * [`ThroughputModel::Enumerated`] — the legacy bounded enumeration of
//!   simple cycles, still useful when the full loop inventory is wanted.
//!   Unlike the exact solver it can truncate; the analysis now says so
//!   ([`ThroughputAnalysis::is_exhaustive`]) instead of silently
//!   under-reporting the worst loop.

use crate::cycles::{enumerate_cycles, Cycle};
use crate::graph::{EdgeId, Netlist, NodeId};
use crate::scc::cyclic_components;

/// Default cap on the number of enumerated loops.
pub const DEFAULT_MAX_LOOPS: usize = 100_000;

/// The loop law, shared by both backends.
fn law(m: usize, n: usize) -> f64 {
    if m == 0 {
        return 1.0;
    }
    m as f64 / (m + n) as f64
}

/// The Karp-table weight of a walk that does not exist.  Real walk weights
/// are sums of relay-station counts, so at least 0; a walk extended from
/// this entry stays below 0 without overflowing, so the relaxation runs
/// without branching on reachability.
const UNREACHED: i64 = i64::MIN / 4;

/// Whether the rational `a.0 / a.1` exceeds `b.0 / b.1` (positive
/// denominators), by exact cross-multiplication.
fn exceeds(a: (i64, i64), b: (i64, i64)) -> bool {
    (a.0 as i128) * (b.1 as i128) > (b.0 as i128) * (a.1 as i128)
}

/// One analysed loop: the cycle plus the quantities of the law.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopInfo {
    /// The underlying cycle.
    pub cycle: Cycle,
    /// Number of processes `m`.
    pub processes: usize,
    /// Number of relay stations `n` along the loop.
    pub relay_stations: usize,
    /// `m / (m + n)`.
    pub throughput: f64,
}

/// The complete loop analysis of a netlist under a given relay-station
/// assignment.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ThroughputAnalysis {
    loops: Vec<LoopInfo>,
    truncated: bool,
}

impl ThroughputAnalysis {
    /// The analysed loops.
    ///
    /// Under [`ThroughputModel::Enumerated`] this is every simple cycle (up
    /// to the cap), in enumeration order.  Under [`ThroughputModel::Exact`]
    /// it is one *critical* loop per cyclic strongly connected component —
    /// a loop attaining that component's worst ratio — so the worst loop is
    /// always present but the inventory is deliberately not exhaustive.
    pub fn loops(&self) -> &[LoopInfo] {
        &self.loops
    }

    /// The loop with the lowest throughput, if any loop exists.
    pub fn worst_loop(&self) -> Option<&LoopInfo> {
        self.loops
            .iter()
            .min_by(|a, b| a.throughput.total_cmp(&b.throughput))
    }

    /// The system throughput predicted by the law: the minimum loop
    /// throughput, or 1.0 for an acyclic netlist.
    pub fn system_throughput(&self) -> f64 {
        self.worst_loop().map_or(1.0, |l| l.throughput)
    }

    /// Returns `true` when [`ThroughputAnalysis::system_throughput`] is
    /// trustworthy: no loop was dropped by the enumeration cap, so no
    /// unexamined loop can be worse than the reported worst.
    ///
    /// The exact backend is always exhaustive in this sense.  The
    /// enumerated backend reports `false` when it hit `max_loops` with
    /// cycles still unvisited, in which case the prediction is only an
    /// upper bound on the true worst-loop throughput.
    pub fn is_exhaustive(&self) -> bool {
        !self.truncated
    }

    /// Loops traversing the given edge (among [`ThroughputAnalysis::loops`]).
    pub fn loops_through_edge(&self, edge: EdgeId) -> Vec<&LoopInfo> {
        self.loops
            .iter()
            .filter(|l| l.cycle.contains_edge(edge))
            .collect()
    }

    /// Loops traversing the given node (among [`ThroughputAnalysis::loops`]).
    pub fn loops_through_node(&self, node: NodeId) -> Vec<&LoopInfo> {
        self.loops
            .iter()
            .filter(|l| l.cycle.contains_node(node))
            .collect()
    }
}

/// The single entry point of the throughput analysis.
///
/// # Examples
///
/// ```
/// use wp_netlist::{Netlist, ThroughputModel};
///
/// let mut net = Netlist::new();
/// let cu = net.add_node("CU");
/// let alu = net.add_node("ALU");
/// let fwd = net.add_edge("opcode", cu, alu);
/// net.add_edge("flags", alu, cu);
/// net.set_relay_stations(fwd, 1);
///
/// // One loop with m = 2 processes and n = 1 relay station: Th = 2/3.
/// let exact = ThroughputModel::Exact.predict(&net);
/// assert!((exact - 2.0 / 3.0).abs() < 1e-12);
/// let enumerated = ThroughputModel::Enumerated { max_loops: 1000 }.analyze(&net);
/// assert!(enumerated.is_exhaustive());
/// assert_eq!(enumerated.system_throughput(), exact);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ThroughputModel {
    /// Exact maximum-cycle-ratio solver (Karp's algorithm per cyclic SCC):
    /// the true worst loop ratio, with no cycle enumeration and no cap.
    /// This is the default prediction backend.
    #[default]
    Exact,
    /// Bounded enumeration of simple cycles; yields the full loop
    /// inventory but may truncate at `max_loops` (see
    /// [`ThroughputAnalysis::is_exhaustive`]).
    Enumerated {
        /// Cap on the number of enumerated loops.
        max_loops: usize,
    },
}

impl ThroughputModel {
    /// Throughput of a single loop with `m` processes and `n` relay
    /// stations under strict (WP1) synchronisation — the paper's loop law.
    ///
    /// # Examples
    ///
    /// ```
    /// use wp_netlist::ThroughputModel;
    /// assert_eq!(ThroughputModel::law(2, 1), 2.0 / 3.0);
    /// assert_eq!(ThroughputModel::law(3, 0), 1.0);
    /// ```
    pub fn law(m: usize, n: usize) -> f64 {
        law(m, n)
    }

    /// Analyses the loops of `net` under the current relay-station
    /// assignment with this backend.
    pub fn analyze(&self, net: &Netlist) -> ThroughputAnalysis {
        match *self {
            ThroughputModel::Exact => McrSolver::new(net).analyze(net),
            ThroughputModel::Enumerated { max_loops } => {
                let enumeration = enumerate_cycles(net, max_loops);
                let loops = enumeration
                    .cycles
                    .into_iter()
                    .map(|cycle| {
                        let processes = cycle.process_count();
                        let relay_stations = cycle.relay_station_count(net);
                        LoopInfo {
                            processes,
                            relay_stations,
                            throughput: law(processes, relay_stations),
                            cycle,
                        }
                    })
                    .collect();
                ThroughputAnalysis {
                    loops,
                    truncated: enumeration.truncated,
                }
            }
        }
    }

    /// The system throughput predicted by the law for the current
    /// relay-station assignment of `net` (the minimum loop throughput, or
    /// 1.0 for an acyclic netlist).
    pub fn predict(&self, net: &Netlist) -> f64 {
        self.analyze(net).system_throughput()
    }
}

/// One collapsed hop of a component subgraph: the parallel edges between a
/// fixed (src, dst) pair, of which the one with the most relay stations is
/// the binding constraint (the convention of [`crate::cycles`]).
#[derive(Debug)]
struct Hop {
    src: u32,
    dst: u32,
    edges: Vec<EdgeId>,
}

/// The per-component workspace of the exact solver.
#[derive(Debug)]
struct SccGraph {
    /// Local index -> global node, in Tarjan output order.
    nodes: Vec<NodeId>,
    hops: Vec<Hop>,
    /// Per hop: relay stations of the heaviest parallel edge (refreshed on
    /// every solve — only the weights change between solves).
    weights: Vec<i64>,
    /// Karp table `D[l][v]`, flattened as `dist[l * k + v]`: the maximum
    /// weight of an `l`-edge walk from the source of the last
    /// [`SccGraph::relax`] (local node 0 for a solve) to `v`, or below 0
    /// when no such walk exists.
    dist: Vec<i64>,
    /// The vertex attaining the maximum mean in the last solve.
    critical: usize,
}

impl SccGraph {
    /// Re-reads the hop weights from `net`, counting edge `zeroed` (if
    /// any) as carrying no station.
    fn refresh_weights(&mut self, net: &Netlist, zeroed: Option<EdgeId>) {
        for (weight, hop) in self.weights.iter_mut().zip(&self.hops) {
            let stations = hop.edges.iter().map(|&e| {
                if Some(e) == zeroed {
                    0
                } else {
                    net.edge(e).relay_stations()
                }
            });
            *weight = stations.max().expect("a hop has an edge") as i64;
        }
    }

    /// Fills the Karp table `D[l][v]` for `l` in `1..=k` from the initial
    /// row that starts every walk at `source`, with weight 0.
    fn relax(&mut self, source: usize) {
        let k = self.nodes.len();
        self.dist.fill(UNREACHED);
        self.dist[source] = 0;
        for l in 1..=k {
            let (prev, row) = self.dist[(l - 1) * k..(l + 1) * k].split_at_mut(k);
            for (hop, &w) in self.hops.iter().zip(&self.weights) {
                let dst = hop.dst as usize;
                row[dst] = row[dst].max(prev[hop.src as usize] + w);
            }
        }
    }

    /// Karp's algorithm: the maximum cycle mean (relay stations per
    /// process) of this component as an exact rational `(num, den)`, with
    /// edge `zeroed` (if any) counted as carrying no station.
    fn max_cycle_mean(&mut self, net: &Netlist, zeroed: Option<EdgeId>) -> (i64, i64) {
        self.refresh_weights(net, zeroed);
        self.relax(0); // source = local node 0
        let k = self.nodes.len();
        // Karp's theorem: the maximum cycle mean is
        //   max_v min_l (D[k][v] - D[l][v]) / (k - l)
        // over vertices with a k-edge walk.  All comparisons are exact
        // cross-multiplications; no float touches the search.
        let mut best: Option<(i64, i64)> = None;
        for v in 0..k {
            let dk = self.dist[k * k + v];
            if dk < 0 {
                continue;
            }
            let mut vmin: Option<(i64, i64)> = None;
            for l in 0..k {
                let dl = self.dist[l * k + v];
                if dl < 0 {
                    continue;
                }
                let mean = (dk - dl, (k - l) as i64);
                if vmin.is_none_or(|m| exceeds(m, mean)) {
                    vmin = Some(mean);
                }
            }
            if let Some(mean) = vmin {
                if best.is_none_or(|b| exceeds(mean, b)) {
                    best = Some(mean);
                    self.critical = v;
                }
            }
        }
        // Every node of a cyclic SCC has an out-edge inside the component,
        // so a k-edge walk from the source always exists.
        best.expect("cyclic SCC must admit a k-edge walk")
    }

    /// Extracts a critical cycle from the tables of the last
    /// [`SccGraph::max_cycle_mean`]: the optimal k-edge walk ending at the
    /// critical vertex must contain a cycle, and every cycle it contains
    /// attains the maximum mean.
    fn critical_cycle(&self, net: &Netlist) -> (Vec<NodeId>, Vec<EdgeId>) {
        let k = self.nodes.len();
        // Walk the optimal walk back from level k; walk_nodes[i] is the
        // node at level k - i, walk_hops[i] the hop that *entered*
        // walk_nodes[i]: the first hop, in hop order, whose walk attains
        // `D[l][cur]`.
        let mut walk_nodes = Vec::with_capacity(k + 1);
        let mut walk_hops = Vec::with_capacity(k);
        let mut cur = self.critical;
        for l in (1..=k).rev() {
            walk_nodes.push(cur);
            let reached = self.dist[l * k + cur];
            let hop = self
                .hops
                .iter()
                .zip(&self.weights)
                .position(|(hop, &w)| {
                    hop.dst as usize == cur
                        && self.dist[(l - 1) * k + hop.src as usize] + w == reached
                })
                .expect("a reached table entry has a predecessor");
            walk_hops.push(hop);
            cur = self.hops[hop].src as usize;
        }
        walk_nodes.push(cur);
        // k + 1 nodes over k distinct values: a repetition exists.
        let mut seen = vec![usize::MAX; k];
        let (mut lo, mut hi) = (0, 0);
        for (i, &n) in walk_nodes.iter().enumerate() {
            if seen[n] != usize::MAX {
                lo = seen[n];
                hi = i;
                break;
            }
            seen[n] = i;
        }
        debug_assert!(hi > lo, "pigeonhole repetition not found");
        // The walk is recorded end-to-start; reverse the repeated span to
        // get the cycle in traversal order.
        let nodes: Vec<NodeId> = walk_nodes[lo..hi]
            .iter()
            .rev()
            .map(|&local| self.nodes[local])
            .collect();
        let edges: Vec<EdgeId> = walk_hops[lo..hi]
            .iter()
            .rev()
            .map(|&h| {
                // The first of the heaviest parallel edges binds the hop.
                let edges = &self.hops[h].edges;
                let stations = |e: EdgeId| net.edge(e).relay_stations();
                edges[1..].iter().fold(edges[0], |best, &e| {
                    if stations(e) > stations(best) {
                        e
                    } else {
                        best
                    }
                })
            })
            .collect();
        // Rotate edges so edges[i] leaves nodes[i]: reversed walk edges
        // enter nodes one step behind, i.e. the edge entering nodes[0]
        // (closing the loop) is currently first.
        let mut edges = edges;
        edges.rotate_left(1);
        (nodes, edges)
    }
}

/// Reusable workspace of the exact maximum-cycle-ratio solver.
///
/// Construction pays for the SCC decomposition and the collapsed adjacency
/// of the topology; [`McrSolver::solve`] then re-reads only the
/// relay-station weights.  A placement search that mutates stations on a
/// fixed topology (as [`crate::optimize_assignment`] does) therefore scores
/// each candidate with one allocation-free Karp pass, and
/// [`McrSolver::solve_sweep`] scores every station count of one edge with
/// two.
///
/// # Examples
///
/// ```
/// use wp_netlist::{McrSolver, Netlist};
///
/// let mut net = Netlist::new();
/// let a = net.add_node("A");
/// let b = net.add_node("B");
/// let ab = net.add_edge("ab", a, b);
/// net.add_edge("ba", b, a);
///
/// let mut solver = McrSolver::new(&net);
/// assert_eq!(solver.solve(&net), 1.0);
/// net.set_relay_stations(ab, 2);
/// assert_eq!(solver.solve(&net), 0.5); // incremental re-solve
/// ```
#[derive(Debug)]
pub struct McrSolver {
    node_count: usize,
    edge_count: usize,
    comps: Vec<SccGraph>,
}

impl McrSolver {
    /// Builds the solver for the topology of `net` (nodes and edges; the
    /// relay-station assignment is read again on every solve).
    pub fn new(net: &Netlist) -> Self {
        let mut comps = Vec::new();
        let mut local = vec![usize::MAX; net.node_count()];
        for comp_nodes in cyclic_components(net) {
            for (i, &n) in comp_nodes.iter().enumerate() {
                local[n.index()] = i;
            }
            let mut hops: Vec<Hop> = Vec::new();
            let mut hop_of: std::collections::HashMap<(u32, u32), usize> =
                std::collections::HashMap::new();
            for &n in &comp_nodes {
                let s = local[n.index()] as u32;
                for &e in net.out_edges(n) {
                    // `local` holds only the current component, so a
                    // non-sentinel index means the edge stays inside it.
                    let d = local[net.edge(e).dst().index()];
                    if d == usize::MAX {
                        continue;
                    }
                    let hop = *hop_of.entry((s, d as u32)).or_insert_with(|| {
                        hops.push(Hop {
                            src: s,
                            dst: d as u32,
                            // Parallel edges are rare: size for one.
                            edges: Vec::with_capacity(1),
                        });
                        hops.len() - 1
                    });
                    hops[hop].edges.push(e);
                }
            }
            let k = comp_nodes.len();
            comps.push(SccGraph {
                nodes: comp_nodes.clone(),
                weights: vec![0; hops.len()],
                hops,
                dist: vec![UNREACHED; (k + 1) * k],
                critical: 0,
            });
            // Reset the scratch map for the next component (components are
            // disjoint, but stale entries would alias local indices).
            for &n in &comps.last().expect("just pushed").nodes {
                local[n.index()] = usize::MAX;
            }
        }
        Self {
            node_count: net.node_count(),
            edge_count: net.edge_count(),
            comps,
        }
    }

    fn check_topology(&self, net: &Netlist) {
        assert_eq!(
            (self.node_count, self.edge_count),
            (net.node_count(), net.edge_count()),
            "McrSolver must be given the topology it was built from"
        );
    }

    /// Exact system throughput of `net` under its current relay-station
    /// assignment: `m/(m+n)` of the globally worst loop, or 1.0 when the
    /// netlist is acyclic.
    ///
    /// # Panics
    ///
    /// Panics if the node or edge count of `net` differs from the netlist
    /// the solver was built from.
    pub fn solve(&mut self, net: &Netlist) -> f64 {
        self.check_topology(net);
        let mut worst: Option<(i64, i64)> = None;
        for comp in &mut self.comps {
            let mean = comp.max_cycle_mean(net, None);
            if worst.is_none_or(|w| exceeds(mean, w)) {
                worst = Some(mean);
            }
        }
        // The mean is n/m of the worst loop, so the law gives m/(m+n);
        // equal rationals divide to bit-identical floats, matching the
        // enumerated backend exactly.
        match worst {
            None => 1.0,
            Some((num, den)) => law(den as usize, num as usize),
        }
    }

    /// Exact system throughput of `net` for every relay-station count of
    /// one edge: `out[r]` is what [`McrSolver::solve`] returns, bit for bit,
    /// once `edge` carries `r` stations (its count in `net` is ignored).
    ///
    /// Two passes serve the whole sweep: a plain solve with `edge` at 0
    /// stations gives the worst mean `λ(0)`, and one walk pass from the
    /// edge's head gives `W_m`, the heaviest (m−1)-hop walk back to its
    /// tail (with `edge` still at 0).  Then, compared as exact rationals,
    ///   `λ(r) = max(λ(0), maxₘ (W_m + r)/m)`.
    /// Each term `(W_m + r)/m` is the mean of a closed walk through `edge`
    /// that is at least that heavy, and a closed walk splits into simple
    /// loops, so no term exceeds `λ(r)`.  A simple loop through `edge` is
    /// the edge plus a walk that avoids it, which its term counts exactly,
    /// and a loop that avoids `edge` has a mean of at most `λ(0)`, itself
    /// at most `λ(r)`.  The worst loop at `r` stations is one of the two.
    ///
    /// # Panics
    ///
    /// Panics if the node or edge count of `net` differs from the netlist
    /// the solver was built from.
    pub fn solve_sweep(&mut self, net: &Netlist, edge: EdgeId, out: &mut [f64]) {
        self.check_topology(net);
        let mut floor: Option<(i64, i64)> = None;
        // The component whose table holds the walks from the edge's head,
        // and the edge's tail in it.
        let mut through = None;
        for (c, comp) in self.comps.iter_mut().enumerate() {
            let mean = comp.max_cycle_mean(net, Some(edge));
            if floor.is_none_or(|w| exceeds(mean, w)) {
                floor = Some(mean);
            }
            let ends = comp
                .hops
                .iter()
                .find(|hop| hop.edges.contains(&edge))
                .map(|hop| (hop.dst as usize, hop.src as usize));
            if let Some((head, tail)) = ends {
                comp.relax(head);
                through = Some((c, tail));
            }
        }
        for (r, slot) in out.iter_mut().enumerate() {
            let mut worst = floor;
            if let Some((c, tail)) = through {
                let comp = &self.comps[c];
                let k = comp.nodes.len();
                for m in 1..=k {
                    let walk = comp.dist[(m - 1) * k + tail];
                    if walk < 0 {
                        continue;
                    }
                    let mean = (walk + r as i64, m as i64);
                    if worst.is_none_or(|w| exceeds(mean, w)) {
                        worst = Some(mean);
                    }
                }
            }
            *slot = match worst {
                None => 1.0,
                Some((num, den)) => law(den as usize, num as usize),
            };
        }
    }

    /// Full analysis: one critical loop per cyclic component, with the
    /// actual cycle extracted (see [`ThroughputAnalysis::loops`]).
    ///
    /// # Panics
    ///
    /// Panics if the node or edge count of `net` differs from the netlist
    /// the solver was built from.
    pub fn analyze(&mut self, net: &Netlist) -> ThroughputAnalysis {
        self.check_topology(net);
        let mut loops = Vec::with_capacity(self.comps.len());
        for comp in &mut self.comps {
            let (num, den) = comp.max_cycle_mean(net, None);
            let (nodes, edges) = comp.critical_cycle(net);
            let processes = nodes.len();
            let relay_stations: usize = edges.iter().map(|&e| net.edge(e).relay_stations()).sum();
            debug_assert_eq!(
                (relay_stations as i128) * (den as i128),
                (num as i128) * (processes as i128),
                "extracted cycle must attain the component's maximum mean"
            );
            loops.push(LoopInfo {
                cycle: Cycle { nodes, edges },
                processes,
                relay_stations,
                throughput: law(processes, relay_stations),
            });
        }
        ThroughputAnalysis {
            loops,
            truncated: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> Netlist {
        let mut net = Netlist::new();
        let nodes: Vec<_> = (0..n).map(|i| net.add_node(format!("P{i}"))).collect();
        for i in 0..n {
            net.add_edge(format!("e{i}"), nodes[i], nodes[(i + 1) % n]);
        }
        net
    }

    fn enumerated(net: &Netlist, max_loops: usize) -> ThroughputAnalysis {
        ThroughputModel::Enumerated { max_loops }.analyze(net)
    }

    #[test]
    fn law_matches_paper_examples() {
        // The paper's single-link experiments: a 2-process loop with one RS
        // gives 0.667, a 3-process loop with one RS gives 0.75.
        assert!((ThroughputModel::law(2, 1) - 0.667).abs() < 1e-3);
        assert!((ThroughputModel::law(3, 1) - 0.75).abs() < 1e-12);
        assert!((ThroughputModel::law(2, 2) - 0.5).abs() < 1e-12);
        assert_eq!(ThroughputModel::law(4, 0), 1.0);
        assert_eq!(ThroughputModel::law(0, 5), 1.0);
    }

    #[test]
    fn acyclic_netlist_has_unit_throughput() {
        let mut net = Netlist::new();
        let a = net.add_node("A");
        let b = net.add_node("B");
        let e = net.add_edge("ab", a, b);
        net.set_relay_stations(e, 7);
        for model in [
            ThroughputModel::Exact,
            ThroughputModel::Enumerated { max_loops: 100 },
        ] {
            let analysis = model.analyze(&net);
            assert!(analysis.loops().is_empty());
            assert_eq!(analysis.system_throughput(), 1.0);
            assert!(analysis.worst_loop().is_none());
            assert!(analysis.is_exhaustive());
        }
    }

    #[test]
    fn ring_throughput_follows_law() {
        for m in 1..6usize {
            for n in 0..4usize {
                let mut net = ring(m);
                let first_edge = net.edge_ids().next().unwrap();
                net.set_relay_stations(first_edge, n);
                let expected = ThroughputModel::law(m, n);
                let analysis = enumerated(&net, 100);
                assert_eq!(analysis.loops().len(), 1);
                assert!((analysis.system_throughput() - expected).abs() < 1e-12);
                // The exact solver returns the bit-identical prediction.
                let exact = ThroughputModel::Exact.analyze(&net);
                assert_eq!(exact.system_throughput(), analysis.system_throughput());
                assert_eq!(exact.loops().len(), 1);
                assert_eq!(exact.loops()[0].processes, m);
                assert_eq!(exact.loops()[0].relay_stations, n);
            }
        }
    }

    #[test]
    fn worst_loop_dominates() {
        // Two loops sharing node A: A<->B (no RS) and A<->C (2 RS).
        let mut net = Netlist::new();
        let a = net.add_node("A");
        let b = net.add_node("B");
        let c = net.add_node("C");
        net.add_edge("ab", a, b);
        net.add_edge("ba", b, a);
        let ac = net.add_edge("ac", a, c);
        net.add_edge("ca", c, a);
        net.set_relay_stations(ac, 2);
        let analysis = enumerated(&net, 100);
        assert_eq!(analysis.loops().len(), 2);
        assert_eq!(analysis.system_throughput(), 0.5);
        let worst = analysis.worst_loop().unwrap();
        assert_eq!(worst.relay_stations, 2);
        assert_eq!(analysis.loops_through_edge(ac).len(), 1);
        assert_eq!(analysis.loops_through_node(a).len(), 2);
        // A, B and C are one SCC: the exact analysis reports its critical
        // loop only, which must be the A<->C loop.
        let exact = ThroughputModel::Exact.analyze(&net);
        assert_eq!(exact.loops().len(), 1);
        assert_eq!(exact.system_throughput(), 0.5);
        assert_eq!(exact.loops()[0].processes, 2);
        assert_eq!(exact.loops()[0].relay_stations, 2);
        assert!(exact.loops()[0].cycle.contains_edge(ac));
    }

    #[test]
    fn truncated_enumeration_says_so() {
        // Complete digraph on 5 nodes: 84 simple cycles.
        let mut net = Netlist::new();
        let nodes: Vec<_> = (0..5).map(|i| net.add_node(format!("N{i}"))).collect();
        for &x in &nodes {
            for &y in &nodes {
                if x != y {
                    net.add_edge(format!("{x}->{y}"), x, y);
                }
            }
        }
        let capped = enumerated(&net, 7);
        assert_eq!(capped.loops().len(), 7);
        assert!(!capped.is_exhaustive());
        let full = enumerated(&net, 10_000);
        assert_eq!(full.loops().len(), 84);
        assert!(full.is_exhaustive());
        // The boundary case: exactly as many loops as the cap allows.
        assert!(enumerated(&net, 84).is_exhaustive());
        assert!(!enumerated(&net, 83).is_exhaustive());
    }

    #[test]
    fn exact_matches_exhaustive_enumeration_on_dense_graph() {
        // Complete digraph on 5 nodes with varied weights: the exact
        // solver must find the same worst ratio the exhaustive
        // enumeration does, bit for bit.
        let mut net = Netlist::new();
        let nodes: Vec<_> = (0..5).map(|i| net.add_node(format!("N{i}"))).collect();
        let mut seed: u64 = 0x9e3779b97f4a7c15;
        for &x in &nodes {
            for &y in &nodes {
                if x != y {
                    let e = net.add_edge(format!("{x}->{y}"), x, y);
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                    net.set_relay_stations(e, (seed >> 60) as usize);
                }
            }
        }
        let full = enumerated(&net, 10_000);
        assert!(full.is_exhaustive());
        assert_eq!(
            ThroughputModel::Exact.predict(&net),
            full.system_throughput()
        );
    }

    #[test]
    fn exact_handles_self_loops_and_parallel_edges() {
        let mut net = Netlist::new();
        let a = net.add_node("A");
        let b = net.add_node("B");
        let aa = net.add_edge("aa", a, a);
        let w0 = net.add_edge("w0", a, b);
        let w1 = net.add_edge("w1", a, b);
        net.add_edge("ba", b, a);
        net.set_relay_stations(aa, 1);
        net.set_relay_stations(w0, 1);
        net.set_relay_stations(w1, 3);
        // Worst loop: the self-loop (1/2 = 0.5) vs A->B->A over w1
        // (2/(2+3) = 0.4).  The parallel-edge collapse must pick w1.
        let exact = ThroughputModel::Exact.analyze(&net);
        assert_eq!(exact.system_throughput(), 0.4);
        assert_eq!(
            exact.system_throughput(),
            enumerated(&net, 1000).system_throughput()
        );
    }

    #[test]
    fn solver_reuses_workspace_across_assignments() {
        let mut net = ring(4);
        let edges: Vec<_> = net.edge_ids().collect();
        let mut solver = McrSolver::new(&net);
        for (i, &e) in edges.iter().enumerate() {
            net.set_relay_stations(e, i);
            assert_eq!(solver.solve(&net), ThroughputModel::Exact.predict(&net));
        }
        net.clear_relay_stations();
        assert_eq!(solver.solve(&net), 1.0);
    }

    #[test]
    fn multiple_components_take_the_global_worst() {
        // Two disjoint rings: 2 nodes with 2 RS (0.5) and 3 nodes with
        // 1 RS (0.75), joined by an acyclic bridge.
        let mut net = Netlist::new();
        let a = net.add_node("A");
        let b = net.add_node("B");
        let c = net.add_node("C");
        let d = net.add_node("D");
        let e = net.add_node("E");
        let ab = net.add_edge("ab", a, b);
        net.add_edge("ba", b, a);
        let cd = net.add_edge("cd", c, d);
        net.add_edge("de", d, e);
        net.add_edge("ec", e, c);
        net.add_edge("bridge", b, c);
        net.set_relay_stations(ab, 2);
        net.set_relay_stations(cd, 1);
        let exact = ThroughputModel::Exact.analyze(&net);
        assert_eq!(exact.loops().len(), 2);
        assert_eq!(exact.system_throughput(), 0.5);
        assert!(exact.is_exhaustive());
    }
}
