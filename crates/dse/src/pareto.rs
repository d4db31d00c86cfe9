//! Best-per-cost candidate ranking and the Pareto frontier.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use crate::space::Score;

/// One scored candidate on (or competing for) the frontier.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoPoint {
    /// Area cost: total relay stations of the assignment.
    pub cost: usize,
    /// Worst-loop cycle throughput `m/(m+n)`.
    pub cycle_throughput: f64,
    /// Fastest feasible clock period of the assignment.
    pub period: f64,
    /// Effective throughput `cycle_throughput / period` — the ranked
    /// objective.
    pub effective: f64,
    /// The relay-station assignment itself (one count per channel).
    pub assignment: Vec<usize>,
}

impl ParetoPoint {
    /// Builds a point from an assignment and its score.
    pub fn new(assignment: Vec<usize>, score: Score) -> Self {
        Self {
            cost: assignment.iter().sum(),
            cycle_throughput: score.cycle_throughput,
            period: score.period,
            effective: score.effective,
            assignment,
        }
    }

    /// The deterministic total order of candidates at equal cost: higher
    /// effective throughput wins, bit-equal throughputs fall back to the
    /// lexicographically smaller assignment.  Because this is a total
    /// order over distinct candidates, folding any permutation of offers
    /// into a [`CostMap`] yields the same survivor — the property the
    /// worker-count/shard-count independence tests pin.
    pub fn beats(&self, other: &ParetoPoint) -> bool {
        beats(self.effective, &self.assignment, other)
    }
}

/// [`ParetoPoint::beats`] for a candidate given by its effective
/// throughput and a borrowed assignment.
fn beats(effective: f64, assignment: &[usize], other: &ParetoPoint) -> bool {
    match effective.total_cmp(&other.effective) {
        std::cmp::Ordering::Greater => true,
        std::cmp::Ordering::Less => false,
        std::cmp::Ordering::Equal => assignment < other.assignment.as_slice(),
    }
}

/// The best candidate seen at each area cost, keyed by cost.
///
/// This is the mergeable unit of the parallel search: each work unit folds
/// its candidates into its own map, and maps merge commutatively (the
/// [`ParetoPoint::beats`] total order decides every collision), so the
/// merged result is independent of worker count, chunking and merge order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CostMap {
    best: BTreeMap<usize, ParetoPoint>,
}

impl CostMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Offers one candidate by reference; it survives if no better
    /// candidate of the same cost has been seen.  The assignment is copied
    /// only when it wins its cost, into the loser's buffer when there is
    /// one, so a long search allocates once per cost.
    pub fn offer(&mut self, assignment: &[usize], score: Score) {
        match self.best.entry(assignment.iter().sum()) {
            Entry::Vacant(slot) => {
                slot.insert(ParetoPoint::new(assignment.to_vec(), score));
            }
            Entry::Occupied(mut slot) => {
                let kept = slot.get_mut();
                if beats(score.effective, assignment, kept) {
                    kept.cycle_throughput = score.cycle_throughput;
                    kept.period = score.period;
                    kept.effective = score.effective;
                    kept.assignment.clear();
                    kept.assignment.extend_from_slice(assignment);
                }
            }
        }
    }

    /// Merges another map into this one (commutative and associative).
    pub fn merge(&mut self, other: CostMap) {
        for (cost, point) in other.best {
            match self.best.entry(cost) {
                Entry::Vacant(slot) => {
                    slot.insert(point);
                }
                Entry::Occupied(mut slot) => {
                    if point.beats(slot.get()) {
                        slot.insert(point);
                    }
                }
            }
        }
    }

    /// Number of distinct costs seen.
    pub fn len(&self) -> usize {
        self.best.len()
    }

    /// Whether no candidate has been offered yet.
    pub fn is_empty(&self) -> bool {
        self.best.is_empty()
    }

    /// The best candidate per cost, in ascending cost order.
    pub fn iter(&self) -> impl Iterator<Item = &ParetoPoint> {
        self.best.values()
    }

    /// The Pareto frontier: ascending cost, strictly increasing effective
    /// throughput.  A point is kept exactly when no cheaper-or-equal
    /// candidate reaches its effective throughput — the textbook dominance
    /// rule, which the exhaustive-oracle test checks against a brute-force
    /// of the whole space.
    pub fn frontier(&self) -> Vec<ParetoPoint> {
        let mut frontier: Vec<ParetoPoint> = Vec::new();
        for point in self.best.values() {
            let dominated = frontier
                .last()
                .is_some_and(|kept| kept.effective >= point.effective);
            if !dominated {
                frontier.push(point.clone());
            }
        }
        frontier
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Score;

    fn score(effective: f64) -> Score {
        Score {
            cycle_throughput: effective,
            period: 1.0,
            effective,
        }
    }

    fn point(assignment: &[usize], effective: f64) -> ParetoPoint {
        ParetoPoint::new(assignment.to_vec(), score(effective))
    }

    #[test]
    fn cost_is_the_station_total() {
        assert_eq!(point(&[1, 0, 2], 0.5).cost, 3);
    }

    #[test]
    fn offers_keep_the_best_per_cost() {
        let mut map = CostMap::new();
        map.offer(&[1, 1], score(0.5));
        map.offer(&[2, 0], score(0.75)); // same cost, better
        map.offer(&[0, 2], score(0.25)); // same cost, worse
        assert_eq!(map.len(), 1);
        assert_eq!(map.iter().next().unwrap().assignment, vec![2, 0]);
    }

    #[test]
    fn ties_fall_back_to_the_lexicographically_smaller_assignment() {
        let mut a = CostMap::new();
        a.offer(&[2, 0], score(0.5));
        a.offer(&[0, 2], score(0.5));
        let mut b = CostMap::new();
        b.offer(&[0, 2], score(0.5));
        b.offer(&[2, 0], score(0.5));
        assert_eq!(a, b);
        assert_eq!(a.iter().next().unwrap().assignment, vec![0, 2]);
    }

    #[test]
    fn merge_is_order_independent() {
        let offers: [(&[usize], f64); 4] = [(&[0], 0.2), (&[1], 0.5), (&[2], 0.4), (&[1], 0.6)];
        let mut forward = CostMap::new();
        for &(assignment, effective) in &offers {
            forward.offer(assignment, score(effective));
        }
        let mut reverse = CostMap::new();
        for &(assignment, effective) in offers.iter().rev() {
            reverse.offer(assignment, score(effective));
        }
        assert_eq!(forward, reverse);
        let mut split = CostMap::new();
        let mut left = CostMap::new();
        left.offer(offers[0].0, score(offers[0].1));
        left.offer(offers[3].0, score(offers[3].1));
        let mut right = CostMap::new();
        right.offer(offers[1].0, score(offers[1].1));
        right.offer(offers[2].0, score(offers[2].1));
        split.merge(right);
        split.merge(left);
        assert_eq!(split, forward);
    }

    #[test]
    fn frontier_drops_dominated_costs() {
        let mut map = CostMap::new();
        map.offer(&[0], score(0.25));
        map.offer(&[1], score(0.5));
        map.offer(&[2], score(0.5)); // equal throughput, higher cost: dominated
        map.offer(&[3], score(0.4)); // worse throughput, higher cost: dominated
        map.offer(&[4], score(0.8));
        let frontier = map.frontier();
        let costs: Vec<usize> = frontier.iter().map(|p| p.cost).collect();
        assert_eq!(costs, vec![0, 1, 4]);
        assert!(frontier.windows(2).all(|w| w[0].effective < w[1].effective));
    }
}
