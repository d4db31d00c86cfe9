//! Exhaustive-oracle and determinism tests for the design-space search.
//!
//! The oracle test brute-forces *every* relay assignment of tiny generated
//! netlists with an independent scoring path (the enumerated loop
//! inventory, which shares no code with the Karp solver the search uses,
//! plus the clock law recomputed from the declared wire latencies) and an
//! independent O(N²) dominance check, then asserts [`wp_dse::search`]
//! returns exactly that frontier — points, tie-breaks and order included.
//! The determinism tests pin the worker-count, unit-count and seed
//! contracts: the frontier never depends on how the work is split.

use wp_dse::{search, DseConfig, Evaluator, SearchMode, SearchSpace};
use wp_gen::{generate, GenConfig};
use wp_netlist::{ThroughputModel, DEFAULT_MAX_LOOPS};
use wp_spec::NetlistSpec;

/// A tiny generated netlist with relays inserted at reference period 1.0.
fn tiny_spec(seed: u64) -> NetlistSpec {
    let mut cfg = GenConfig::with_seed(seed);
    cfg.blocks = (3, 4);
    cfg.chords = (1, 2);
    let mut spec = generate(&cfg);
    spec.insert_relays(1.0);
    spec
}

/// One brute-forced candidate: cost, effective throughput, assignment.
struct Candidate {
    cost: usize,
    effective: f64,
    assignment: Vec<usize>,
}

/// Scores every assignment in `[0, cap]^channels` through a path that
/// shares nothing with the search kernels: the spec is re-lowered per
/// candidate, the cycle throughput is the worst loop of the full
/// [`ThroughputModel::Enumerated`] inventory (asserted not truncated), and
/// the clock period is recomputed from the declared wire latencies.
fn brute_force(spec: &NetlistSpec, cap: usize, reference_period: f64) -> Vec<Candidate> {
    let latencies = spec.wire_latencies(reference_period);
    let channels = latencies.len();
    let radix = cap + 1;
    let size = radix.pow(channels as u32);
    let mut all = Vec::with_capacity(size);
    let mut assignment = vec![0usize; channels];
    for flat in 0..size {
        let mut rest = flat;
        for slot in assignment.iter_mut() {
            *slot = rest % radix;
            rest /= radix;
        }
        let mut candidate = spec.clone();
        candidate.apply_relay_assignment(&assignment);
        let loops = ThroughputModel::Enumerated {
            max_loops: DEFAULT_MAX_LOOPS,
        }
        .analyze(&candidate.to_netlist());
        assert!(
            loops.is_exhaustive(),
            "the loop inventory of {assignment:?} was truncated"
        );
        let cycle_throughput = loops.system_throughput();
        let period = assignment
            .iter()
            .zip(&latencies)
            .map(|(&rs, &latency)| latency / (rs + 1) as f64)
            .fold(reference_period, f64::max);
        all.push(Candidate {
            cost: assignment.iter().sum(),
            effective: cycle_throughput / period,
            assignment: assignment.clone(),
        });
    }
    all
}

/// The textbook dominance rule, applied pairwise over the whole space:
/// a candidate survives iff nothing cheaper matches its effective
/// throughput, nothing of equal cost exceeds it, and ties at equal cost
/// and equal throughput go to the lexicographically smallest assignment.
fn true_frontier(all: &[Candidate]) -> Vec<(usize, Vec<usize>)> {
    let mut survivors: Vec<&Candidate> = all
        .iter()
        .filter(|p| {
            !all.iter().any(|q| {
                (q.cost < p.cost && q.effective >= p.effective)
                    || (q.cost == p.cost
                        && (q.effective > p.effective
                            || (q.effective == p.effective && q.assignment < p.assignment)))
            })
        })
        .collect();
    survivors.sort_by_key(|p| p.cost);
    survivors
        .into_iter()
        .map(|p| (p.cost, p.assignment.clone()))
        .collect()
}

#[test]
fn search_returns_the_true_pareto_frontier() {
    for seed in [1, 2, 5, 8] {
        let spec = tiny_spec(seed);
        let cap = 2;
        let space = SearchSpace::from_spec(&spec, cap, 1.0);
        assert!(
            space.size() <= 4096,
            "oracle seeds must stay brute-forceable (seed {seed} has {} candidates)",
            space.size()
        );
        let oracle = true_frontier(&brute_force(&spec, cap, 1.0));
        let outcome = search(&space, &DseConfig::default(), 4);
        assert!(outcome.exhaustive, "tiny spaces resolve to exhaustive");
        assert_eq!(outcome.scored, space.size() as u64);
        let got: Vec<(usize, Vec<usize>)> = outcome
            .frontier
            .iter()
            .map(|p| (p.cost, p.assignment.clone()))
            .collect();
        assert_eq!(got, oracle, "frontier mismatch on seed {seed}");
        // The frontier is strictly improving in both axes by construction.
        assert!(outcome
            .frontier
            .windows(2)
            .all(|w| w[0].cost < w[1].cost && w[0].effective < w[1].effective));
    }
}

#[test]
fn frontier_scores_match_an_independent_evaluation() {
    let spec = tiny_spec(3);
    let space = SearchSpace::from_spec(&spec, 2, 1.0);
    let outcome = search(&space, &DseConfig::default(), 2);
    let mut eval = Evaluator::new(&space);
    for point in &outcome.frontier {
        let score = eval.score(&space, &point.assignment);
        assert_eq!(
            point.cycle_throughput.to_bits(),
            score.cycle_throughput.to_bits()
        );
        assert_eq!(point.period.to_bits(), score.period.to_bits());
        assert_eq!(point.effective.to_bits(), score.effective.to_bits());
    }
}

#[test]
fn exhaustive_outcome_is_worker_count_independent() {
    let spec = tiny_spec(4);
    let space = SearchSpace::from_spec(&spec, 3, 1.0);
    let cfg = DseConfig::default();
    let lone = search(&space, &cfg, 1);
    for workers in [4, 8] {
        assert_eq!(
            lone,
            search(&space, &cfg, workers),
            "{workers} workers drifted"
        );
    }
}

#[test]
fn exhaustive_outcome_is_unit_count_independent() {
    let spec = tiny_spec(6);
    let space = SearchSpace::from_spec(&spec, 2, 1.0);
    let baseline = search(
        &space,
        &DseConfig {
            units: 1,
            ..DseConfig::default()
        },
        1,
    );
    for units in [7, 64, 1_000_000] {
        let split = search(
            &space,
            &DseConfig {
                units,
                ..DseConfig::default()
            },
            3,
        );
        assert_eq!(baseline, split, "{units} units drifted");
    }
}

#[test]
fn neighborhood_search_is_seed_deterministic() {
    let spec = tiny_spec(7);
    let space = SearchSpace::from_spec(&spec, 3, 1.0);
    let cfg = DseConfig {
        mode: SearchMode::Neighborhood {
            walks: 6,
            steps: 200,
        },
        seed: 42,
        ..DseConfig::default()
    };
    let lone = search(&space, &cfg, 1);
    assert!(!lone.exhaustive);
    assert_eq!(lone.scored, 6 * 200);
    for workers in [4, 8] {
        assert_eq!(
            lone,
            search(&space, &cfg, workers),
            "{workers} workers drifted"
        );
    }
    // A different seed explores a different trajectory (the maps differ
    // even when the tiny frontier happens to coincide).
    let other = search(&space, &DseConfig { seed: 43, ..cfg }, 4);
    assert_ne!(lone.map, other.map);
}
