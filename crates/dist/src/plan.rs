//! The shard planner: contiguous submission-order ranges.

use std::ops::Range;

/// A partition of `n_items` submission-order indices into contiguous
/// ranges, one per shard.
///
/// [`ShardPlan::split`] uses the same proportional formula that seeds the
/// in-process work-stealing deques of `wp_sim::SweepRunner`
/// (`s·n/k .. (s+1)·n/k`), so shard sizes differ by at most one and the
/// concatenation of all ranges is exactly `0..n_items` in order.  With
/// more shards than items some ranges are empty — callers simply skip
/// spawning workers for those — and an empty plan (`n_items == 0`) has
/// only empty ranges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    items: usize,
    /// Range boundaries: `bounds.len() == shards + 1`, `bounds[0] == 0`,
    /// `bounds[shards] == items`, monotonically non-decreasing.
    bounds: Vec<usize>,
}

impl ShardPlan {
    /// Splits `n_items` submission-order indices into `n_shards` contiguous
    /// ranges of near-equal size.  A shard count of `0` is treated as `1`
    /// (everything in one shard) so a plan always covers all items.
    pub fn split(n_items: usize, n_shards: usize) -> Self {
        let shards = n_shards.max(1);
        Self {
            items: n_items,
            bounds: (0..=shards).map(|s| s * n_items / shards).collect(),
        }
    }

    /// The total number of items the plan covers.
    pub fn items(&self) -> usize {
        self.items
    }

    /// The number of shards (at least 1).
    pub fn shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The submission-order range assigned to `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= self.shards()`.
    pub fn range(&self, shard: usize) -> Range<usize> {
        assert!(
            shard < self.shards(),
            "shard {shard} out of range (plan has {} shards)",
            self.shards()
        );
        self.bounds[shard]..self.bounds[shard + 1]
    }

    /// All shard ranges in shard order (their concatenation is
    /// `0..self.items()`).
    pub fn ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        (0..self.shards()).map(|s| self.range(s))
    }

    /// The shards whose range is non-empty (the ones worth spawning a
    /// worker for).
    pub fn populated_shards(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.shards()).filter(|&s| !self.range(s).is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ranges are contiguous, ordered and cover every index exactly
    /// once, for every (items, shards) pair in a broad grid.
    #[test]
    fn ranges_partition_the_submission_order() {
        for items in 0..40usize {
            for shards in 1..=2 * items.max(1) {
                let plan = ShardPlan::split(items, shards);
                let mut next = 0usize;
                for range in plan.ranges() {
                    assert_eq!(range.start, next, "items {items}, shards {shards}");
                    assert!(range.end >= range.start);
                    next = range.end;
                }
                assert_eq!(next, items, "items {items}, shards {shards}");
            }
        }
    }

    /// Shard sizes are balanced: they differ by at most one.
    #[test]
    fn shard_sizes_differ_by_at_most_one() {
        for items in 0..40usize {
            for shards in 1..20usize {
                let plan = ShardPlan::split(items, shards);
                let sizes: Vec<usize> = plan.ranges().map(|r| r.len()).collect();
                let min = sizes.iter().min().unwrap();
                let max = sizes.iter().max().unwrap();
                assert!(max - min <= 1, "items {items}, shards {shards}: {sizes:?}");
            }
        }
    }

    #[test]
    fn more_shards_than_items_leaves_trailing_work_covered() {
        let plan = ShardPlan::split(3, 7);
        assert_eq!(plan.populated_shards().count(), 3);
        let covered: Vec<usize> = plan.ranges().flatten().collect();
        assert_eq!(covered, vec![0, 1, 2]);
    }

    #[test]
    fn empty_plan_has_only_empty_ranges() {
        let plan = ShardPlan::split(0, 4);
        assert_eq!(plan.items(), 0);
        assert!(plan.ranges().all(|r| r.is_empty()));
        assert_eq!(plan.populated_shards().count(), 0);
    }

    #[test]
    fn zero_shards_is_promoted_to_one() {
        let plan = ShardPlan::split(5, 0);
        assert_eq!(plan.shards(), 1);
        assert_eq!(plan.range(0), 0..5);
    }

    #[test]
    fn split_matches_the_sweep_runner_deque_seeding() {
        // The in-process scheduler seeds worker w with w·n/k .. (w+1)·n/k;
        // the process-level plan must agree so both layers chunk the
        // submission order identically.
        let (n, k) = (23, 5);
        let plan = ShardPlan::split(n, k);
        for w in 0..k {
            assert_eq!(plan.range(w), w * n / k..(w + 1) * n / k);
        }
    }
}
