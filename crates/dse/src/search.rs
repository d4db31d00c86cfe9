//! Deterministic work planning, the search kernels and the worker pool.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use wp_gen::SplitMix64;

use crate::pareto::{CostMap, ParetoPoint};
use crate::space::{Evaluator, SearchSpace};

/// Spaces up to this size are enumerated exhaustively by
/// [`SearchMode::Auto`]; larger ones fall back to seeded neighborhood
/// walks.  2²¹ assignments score in a couple of seconds on one core.
pub const DEFAULT_EXHAUSTIVE_LIMIT: u128 = 1 << 21;
/// Default walk count of the neighborhood search.
pub const DEFAULT_WALKS: usize = 64;
/// Default steps per neighborhood walk.
pub const DEFAULT_STEPS: usize = 2_000;
/// Default work-unit count of an exhaustive enumeration.  Fixed by the
/// plan — not by the worker count — so the unit list (and therefore the
/// sharding protocol's record numbering) is identical no matter how many
/// threads, processes or hosts split it.
pub const DEFAULT_UNITS: usize = 64;

/// How the space is covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchMode {
    /// Score every assignment (mixed-radix enumeration).
    Exhaustive,
    /// Seeded neighborhood walks: start from a random assignment, mutate
    /// one channel's relay budget per step, re-solve incrementally.
    Neighborhood {
        /// Number of independent walks (= work units).
        walks: usize,
        /// Scored steps per walk (including the starting point).
        steps: usize,
    },
    /// [`SearchMode::Exhaustive`] when the space fits the limit, else
    /// [`SearchMode::Neighborhood`] with the given shape.
    Auto {
        /// Largest space still enumerated exhaustively.
        exhaustive_limit: u128,
        /// Walk count of the fallback.
        walks: usize,
        /// Steps per walk of the fallback.
        steps: usize,
    },
}

impl Default for SearchMode {
    fn default() -> Self {
        SearchMode::Auto {
            exhaustive_limit: DEFAULT_EXHAUSTIVE_LIMIT,
            walks: DEFAULT_WALKS,
            steps: DEFAULT_STEPS,
        }
    }
}

/// The search knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DseConfig {
    /// Coverage mode.
    pub mode: SearchMode,
    /// Seed of the neighborhood walks (ignored by exhaustive plans).
    pub seed: u64,
    /// Work-unit count of an exhaustive plan (clamped to the space size;
    /// neighborhood plans use one unit per walk).
    pub units: usize,
}

impl Default for DseConfig {
    fn default() -> Self {
        Self {
            mode: SearchMode::default(),
            seed: 0,
            units: DEFAULT_UNITS,
        }
    }
}

/// One deterministic unit of search work.  The plan depends only on the
/// space and the config — never on the worker count — so every process of
/// a sharded run agrees on the unit numbering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkUnit {
    /// Score the flat-index range `lo..hi` of the exhaustive enumeration.
    Range {
        /// First flat index (inclusive).
        lo: u128,
        /// Last flat index (exclusive).
        hi: u128,
    },
    /// Run seeded neighborhood walk number `walk`.
    Walk {
        /// Walk index; the walk's generator is seeded from
        /// `DseConfig::seed` and this index.
        walk: usize,
    },
}

/// The result of one completed work unit.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitOutcome {
    /// Candidates scored by this unit.
    pub scored: u64,
    /// Best candidate per cost among them.
    pub map: CostMap,
}

/// The merged result of a whole search.
#[derive(Debug, Clone, PartialEq)]
pub struct DseOutcome {
    /// The Pareto frontier (ascending cost, strictly increasing effective
    /// throughput).
    pub frontier: Vec<ParetoPoint>,
    /// The merged best-per-cost map the frontier was pruned from.
    pub map: CostMap,
    /// Total candidates scored.
    pub scored: u64,
    /// Whether the space was covered exhaustively (the frontier is then
    /// the *true* frontier, not a search result).
    pub exhaustive: bool,
}

/// Resolves [`SearchMode::Auto`] against the space size.
fn resolve_mode(space: &SearchSpace, mode: SearchMode) -> SearchMode {
    match mode {
        SearchMode::Auto {
            exhaustive_limit,
            walks,
            steps,
        } => {
            if space.size() <= exhaustive_limit {
                SearchMode::Exhaustive
            } else {
                SearchMode::Neighborhood { walks, steps }
            }
        }
        resolved => resolved,
    }
}

/// Plans the deterministic work-unit list of a search: contiguous
/// flat-index ranges for an exhaustive run (at most `cfg.units`, never
/// empty ones), one unit per walk for a neighborhood run.
pub fn plan_units(space: &SearchSpace, cfg: &DseConfig) -> Vec<WorkUnit> {
    match resolve_mode(space, cfg.mode) {
        SearchMode::Exhaustive => {
            let size = space.size();
            let units = (cfg.units.max(1) as u128).min(size).max(1);
            (0..units)
                .map(|u| WorkUnit::Range {
                    lo: size * u / units,
                    hi: size * (u + 1) / units,
                })
                .collect()
        }
        SearchMode::Neighborhood { walks, .. } => (0..walks.max(1))
            .map(|walk| WorkUnit::Walk { walk })
            .collect(),
        SearchMode::Auto { .. } => unreachable!("resolve_mode never returns Auto"),
    }
}

/// Runs one work unit on a caller-provided evaluator (so a worker thread
/// re-uses its scratch netlist and solver across every unit it claims).
///
/// A range decodes its first index once, then steps an odometer over
/// channels 1.. and scores each block of channel-0 counts with one
/// [`Evaluator::score_block`], clipping the partial blocks at both ends.
pub fn run_unit(
    space: &SearchSpace,
    cfg: &DseConfig,
    unit: &WorkUnit,
    eval: &mut Evaluator,
) -> UnitOutcome {
    let before = eval.scored();
    let mut map = CostMap::new();
    let mut assignment = vec![0usize; space.channels()];
    match *unit {
        WorkUnit::Range { lo, hi } => {
            space.decode(lo, &mut assignment);
            let radix = space.cap() as u128 + 1;
            let mut flat = lo;
            while flat < hi {
                let first = assignment[0];
                let end = (first as u128 + (hi - flat)).min(radix) as usize;
                eval.score_block(space, &mut assignment, first..end, |a, score| {
                    map.offer(a, score)
                });
                flat += (end - first) as u128;
                assignment[0] = 0;
                for digit in &mut assignment[1..] {
                    if *digit < space.cap() {
                        *digit += 1;
                        break;
                    }
                    *digit = 0;
                }
            }
        }
        WorkUnit::Walk { walk } => {
            let steps = match resolve_mode(space, cfg.mode) {
                SearchMode::Neighborhood { steps, .. } => steps,
                _ => DEFAULT_STEPS,
            };
            // Decorrelate walks by scrambling the walk index through one
            // splitmix step before mixing it with the search seed.
            let mut rng = SplitMix64::new(cfg.seed ^ SplitMix64::new(walk as u64 + 1).next_u64());
            let radix = space.cap() as u64 + 1;
            for slot in assignment.iter_mut() {
                *slot = rng.below(radix) as usize;
            }
            let mut current = eval.score(space, &assignment);
            map.offer(&assignment, current);
            for _ in 1..steps.max(1) {
                // Mutate one channel's relay budget and re-solve
                // incrementally; the cost map records every candidate, so
                // even rejected moves contribute to the frontier.
                let channel = rng.below(space.channels() as u64) as usize;
                let previous = assignment[channel];
                assignment[channel] = rng.below(radix) as usize;
                let score = eval.score(space, &assignment);
                map.offer(&assignment, score);
                // Hill-climb on effective throughput with sideways moves;
                // a deterministic 1-in-4 draw escapes local optima.
                let accept = score.effective >= current.effective || rng.below(4) == 0;
                if accept {
                    current = score;
                } else {
                    assignment[channel] = previous;
                }
            }
        }
    }
    UnitOutcome {
        scored: eval.scored() - before,
        map,
    }
}

/// Runs every unit across `workers` threads and returns the outcomes in
/// submission order.  Units are claimed from a shared counter; because
/// each outcome lands in its unit's slot, the returned vector — and any
/// in-order merge over it — is independent of the worker count and of
/// which thread ran which unit.
pub fn run_units(
    space: &SearchSpace,
    cfg: &DseConfig,
    units: &[WorkUnit],
    workers: usize,
) -> Vec<UnitOutcome> {
    let workers = workers.max(1).min(units.len().max(1));
    if workers == 1 {
        let mut eval = Evaluator::new(space);
        return units
            .iter()
            .map(|unit| run_unit(space, cfg, unit, &mut eval))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, UnitOutcome)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            scope.spawn(move || {
                let mut eval = Evaluator::new(space);
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= units.len() {
                        break;
                    }
                    let outcome = run_unit(space, cfg, &units[index], &mut eval);
                    if tx.send((index, outcome)).is_err() {
                        break;
                    }
                }
            });
        }
    });
    drop(tx);
    let mut slots: Vec<Option<UnitOutcome>> = (0..units.len()).map(|_| None).collect();
    for (index, outcome) in rx {
        slots[index] = Some(outcome);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every unit completes"))
        .collect()
}

/// Merges unit outcomes (in submission order) into the final result.
pub fn merge_outcomes(outcomes: Vec<UnitOutcome>, exhaustive: bool) -> DseOutcome {
    let mut map = CostMap::new();
    let mut scored = 0u64;
    for outcome in outcomes {
        scored += outcome.scored;
        map.merge(outcome.map);
    }
    DseOutcome {
        frontier: map.frontier(),
        map,
        scored,
        exhaustive,
    }
}

/// The whole search: plan, run across `workers` threads, merge, prune.
pub fn search(space: &SearchSpace, cfg: &DseConfig, workers: usize) -> DseOutcome {
    let units = plan_units(space, cfg);
    let exhaustive = matches!(resolve_mode(space, cfg.mode), SearchMode::Exhaustive);
    let outcomes = run_units(space, cfg, &units, workers);
    merge_outcomes(outcomes, exhaustive)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_gen::{generate, GenConfig};

    fn tiny_space(seed: u64, cap: usize) -> SearchSpace {
        let mut cfg = GenConfig::with_seed(seed);
        cfg.blocks = (3, 4);
        cfg.chords = (1, 1);
        let mut spec = generate(&cfg);
        spec.insert_relays(1.0);
        SearchSpace::from_spec(&spec, cap, 1.0)
    }

    #[test]
    fn exhaustive_plans_cover_the_space_without_overlap() {
        let space = tiny_space(3, 2);
        let cfg = DseConfig {
            units: 7,
            mode: SearchMode::Exhaustive,
            ..DseConfig::default()
        };
        let units = plan_units(&space, &cfg);
        assert_eq!(units.len(), 7);
        let mut next = 0u128;
        for unit in &units {
            match *unit {
                WorkUnit::Range { lo, hi } => {
                    assert_eq!(lo, next);
                    assert!(hi > lo, "no empty unit");
                    next = hi;
                }
                WorkUnit::Walk { .. } => panic!("exhaustive plans have no walks"),
            }
        }
        assert_eq!(next, space.size());
    }

    #[test]
    fn auto_resolves_by_space_size() {
        let space = tiny_space(3, 2);
        let small = DseConfig {
            mode: SearchMode::Auto {
                exhaustive_limit: space.size(),
                walks: 4,
                steps: 10,
            },
            ..DseConfig::default()
        };
        assert!(matches!(
            plan_units(&space, &small)[0],
            WorkUnit::Range { .. }
        ));
        let large = DseConfig {
            mode: SearchMode::Auto {
                exhaustive_limit: space.size() - 1,
                walks: 4,
                steps: 10,
            },
            ..DseConfig::default()
        };
        let units = plan_units(&space, &large);
        assert_eq!(units.len(), 4);
        assert!(matches!(units[0], WorkUnit::Walk { walk: 0 }));
    }

    #[test]
    fn walk_units_score_the_configured_step_count() {
        let space = tiny_space(5, 3);
        let cfg = DseConfig {
            mode: SearchMode::Neighborhood {
                walks: 2,
                steps: 50,
            },
            seed: 11,
            units: 0,
        };
        let mut eval = Evaluator::new(&space);
        let outcome = run_unit(&space, &cfg, &WorkUnit::Walk { walk: 0 }, &mut eval);
        assert_eq!(outcome.scored, 50);
        assert!(!outcome.map.is_empty());
        // A different walk of the same seed takes a different path.
        let other = run_unit(&space, &cfg, &WorkUnit::Walk { walk: 1 }, &mut eval);
        assert_ne!(outcome, other);
        // The same walk replays identically.
        let mut fresh = Evaluator::new(&space);
        let replay = run_unit(&space, &cfg, &WorkUnit::Walk { walk: 0 }, &mut fresh);
        assert_eq!(outcome, replay);
    }
}
