//! Property tests tying the two halves of the analytical throughput oracle
//! together, end to end across crates:
//!
//! * the **exact max-cycle-ratio solver** (`wp_netlist::ThroughputModel::
//!   Exact`) must predict the steady-state throughput the **lane kernel
//!   actually measures** on seeded random strongly-connected netlists, and
//! * the **period-detection extrapolation** of the lane kernel must be
//!   bit-identical to plain scalar simulation for every lane count from 1
//!   to `MAX_LANES`.

use wp_bench::build_ring;
use wp_core::{PortSet, Process, ShellConfig};
use wp_netlist::ThroughputModel;
use wp_sim::{LaneLidSimulator, LaneScenario, LidSimulator, SystemBuilder, MAX_LANES};

/// Deterministic splitmix64 — the same generator the stall schedules use,
/// re-implemented here so the test owns its sequence.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A strict-firing stage with arbitrary port counts: needs every input,
/// sums them and forwards the sum on every output.  Only the control plane
/// matters to these tests; the values just have to flow.
#[derive(Debug)]
struct FanStage {
    name: String,
    ins: usize,
    outs: usize,
    value: u64,
}

impl Process<u64> for FanStage {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        self.ins
    }
    fn num_outputs(&self) -> usize {
        self.outs
    }
    fn output(&self, _port: usize) -> u64 {
        self.value
    }
    fn required_inputs(&self) -> PortSet {
        PortSet::all(self.ins)
    }
    fn fire(&mut self, inputs: &[Option<u64>]) {
        self.value = inputs
            .iter()
            .flatten()
            .fold(1u64, |acc, &v| acc.wrapping_add(v));
    }
    fn reset(&mut self) {
        self.value = 0;
    }
}

/// One seeded random strongly-connected system: a backbone ring of `n`
/// stages (which guarantees strong connectivity) plus a few random chord
/// edges, every edge carrying a random relay-station budget.  Returns the
/// edge list as `(from, to, relay_stations)` so the caller can rebuild the
/// same topology with different budgets.
fn random_edges(seed: u64) -> Vec<(usize, usize, usize)> {
    let mut state = seed;
    let n = 3 + (splitmix64(&mut state) % 5) as usize;
    let chords = 1 + (splitmix64(&mut state) % 3) as usize;
    let mut edges: Vec<(usize, usize, usize)> = (0..n)
        .map(|i| {
            let rs = (splitmix64(&mut state) % 3) as usize;
            (i, (i + 1) % n, rs)
        })
        .collect();
    for _ in 0..chords {
        let from = (splitmix64(&mut state) % n as u64) as usize;
        let mut to = (splitmix64(&mut state) % n as u64) as usize;
        if to == from {
            to = (to + 1) % n;
        }
        let rs = (splitmix64(&mut state) % 4) as usize;
        edges.push((from, to, rs));
    }
    edges
}

/// Builds the system for an edge list: one [`FanStage`] per node with port
/// counts matching its degree, one channel per edge.
fn build_graph(edges: &[(usize, usize, usize)]) -> SystemBuilder<u64> {
    let n = edges
        .iter()
        .map(|&(from, to, _)| from.max(to) + 1)
        .max()
        .expect("at least one edge");
    let outs: Vec<usize> = (0..n)
        .map(|p| edges.iter().filter(|&&(from, _, _)| from == p).count())
        .collect();
    let ins: Vec<usize> = (0..n)
        .map(|p| edges.iter().filter(|&&(_, to, _)| to == p).count())
        .collect();
    let mut b = SystemBuilder::new();
    let ids: Vec<_> = (0..n)
        .map(|p| {
            b.add_process(Box::new(FanStage {
                name: format!("p{p}"),
                ins: ins[p],
                outs: outs[p],
                value: 0,
            }))
        })
        .collect();
    let mut next_out = vec![0usize; n];
    let mut next_in = vec![0usize; n];
    for (e, &(from, to, rs)) in edges.iter().enumerate() {
        b.connect(
            format!("e{e}"),
            ids[from],
            next_out[from],
            ids[to],
            next_in[to],
            rs,
        );
        next_out[from] += 1;
        next_in[to] += 1;
    }
    b
}

/// The exact max-cycle-ratio solver must predict what the lane kernel
/// measures: for seeded random strongly-connected netlists, every lane
/// runs the same topology under a different relay budget on the backbone
/// edge, and the measured steady-state throughput of each lane must match
/// `ThroughputModel::Exact` on that lane's netlist.
#[test]
fn exact_mcr_matches_the_lane_kernel_steady_state_on_random_netlists() {
    const TARGET: u64 = 20_000;
    const LANES: usize = 8;
    for seed in [1u64, 7, 23, 2005, 40_289] {
        let edges = random_edges(seed);
        let relay_base: Vec<usize> = edges.iter().map(|&(_, _, rs)| rs).collect();
        let lanes: Vec<LaneScenario> = (0..LANES)
            .map(|lane| {
                let mut relay_stations = relay_base.clone();
                relay_stations[0] += lane;
                LaneScenario {
                    relay_stations,
                    stall: None,
                }
            })
            .collect();
        let mut sim = LaneLidSimulator::new(build_graph(&edges), &lanes, ShellConfig::strict())
            .expect("random graph assembles");
        let outcomes = sim.run_until_firings_extrapolated(0, TARGET, 100 * TARGET);
        for (lane, outcome) in outcomes.into_iter().enumerate() {
            let run = outcome.expect("strongly-connected graphs never deadlock");
            let mut lane_edges = edges.clone();
            lane_edges[0].2 += lane;
            let net = build_graph(&lane_edges).to_netlist();
            let predicted = ThroughputModel::Exact.predict(&net);
            let measured = TARGET as f64 / run.report.cycles as f64;
            assert!(
                (measured - predicted).abs() / predicted < 0.02,
                "seed {seed} lane {lane}: measured {measured} vs exact MCR {predicted}"
            );
        }
    }
}

/// Period-detection extrapolation must be bit-identical to plain
/// simulation for every lane count: each lane of a `k`-lane batch must
/// report exactly what a scalar simulator reports for the same ring and
/// relay budget, for `k` spanning 1 to `MAX_LANES`.  A one-lane batch is
/// how a single run extrapolates, so at `k = 1` the lane must extrapolate
/// and simulate at most a tenth of the reported cycles.
#[test]
fn lane_extrapolation_is_bit_identical_to_scalar_runs_for_all_lane_counts() {
    const TARGET: u64 = 20_000;
    const STAGES: usize = 4;
    for k in [1usize, 2, 5, 63, MAX_LANES] {
        let budget = |lane: usize| lane % 7;
        let lanes: Vec<LaneScenario> = (0..k)
            .map(|lane| {
                let mut relay_stations = vec![0; STAGES];
                relay_stations[0] = budget(lane);
                LaneScenario {
                    relay_stations,
                    stall: None,
                }
            })
            .collect();
        let mut sim =
            LaneLidSimulator::new(build_ring(STAGES, 0, None), &lanes, ShellConfig::strict())
                .expect("ring assembles");
        let outcomes = sim.run_until_firings_extrapolated(0, TARGET, 100 * TARGET);
        assert_eq!(outcomes.len(), k);
        let mut extrapolated = 0;
        for (lane, outcome) in outcomes.into_iter().enumerate() {
            let run = outcome.expect("rings never deadlock");
            let mut scalar = LidSimulator::new(
                build_ring(STAGES, budget(lane), None),
                ShellConfig::strict(),
            )
            .expect("ring assembles");
            scalar.set_trace_enabled(false);
            let cycles = scalar
                .run_until_firings(0, TARGET, 100 * TARGET)
                .expect("scalar ring completes");
            assert_eq!(run.report.cycles, cycles, "k={k} lane {lane}");
            assert_eq!(run.report, scalar.report(), "k={k} lane {lane}");
            if run.extrapolated {
                extrapolated += 1;
                assert!(run.simulated_cycles < run.report.cycles);
            }
            if k == 1 {
                assert!(
                    run.extrapolated && run.simulated_cycles * 10 <= run.report.cycles,
                    "a single run must extrapolate: simulated {} of {} cycles",
                    run.simulated_cycles,
                    run.report.cycles
                );
            }
        }
        assert!(extrapolated > 0, "k={k}: no lane extrapolated");
    }
}
