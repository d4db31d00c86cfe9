//! The relay-assignment search space and the analytic candidate evaluator.

use std::fmt;
use std::ops::Range;

use wp_netlist::{EdgeId, McrSolver, Netlist};
use wp_spec::{NetlistSpec, MAX_RELAY_STATIONS};

/// The design space of one netlist: every per-channel relay-station
/// assignment in the box `[0, cap]^channels`, scored against the fixed
/// topology and the per-channel wire latencies.
///
/// Channel order is declaration order, which
/// `wp_spec::NetlistSpec::to_netlist` guarantees equals the edge insertion
/// order — so an assignment vector indexes channels and edges
/// interchangeably.
#[derive(Debug, Clone)]
pub struct SearchSpace {
    net: Netlist,
    latencies: Vec<f64>,
    cap: usize,
    reference_period: f64,
}

/// The analytic score of one assignment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Score {
    /// Worst-loop cycle throughput `m/(m+n)` (exact MCR solve).
    pub cycle_throughput: f64,
    /// Fastest feasible clock period: every wire segment must fit in one
    /// period, and the block logic pins the floor at the reference period.
    pub period: f64,
    /// Effective throughput in firings per time unit:
    /// `cycle_throughput / period`.
    pub effective: f64,
}

/// Why a spec and a cap frame no design space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpaceError {
    /// The spec declares no channel, so there is no relay station to
    /// assign.
    NoChannels,
    /// The per-channel cap exceeds [`wp_spec::MAX_RELAY_STATIONS`], so
    /// some assignments would not lower.
    CapTooLarge {
        /// The requested cap.
        cap: usize,
    },
}

impl fmt::Display for SpaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpaceError::NoChannels => {
                write!(f, "the spec declares no channel, so it has no design space")
            }
            SpaceError::CapTooLarge { cap } => write!(
                f,
                "a cap of {cap} exceeds the limit of {MAX_RELAY_STATIONS} relay stations per \
                 channel"
            ),
        }
    }
}

impl std::error::Error for SpaceError {}

impl SearchSpace {
    /// Frames the search space of `spec`: per-channel latencies via
    /// [`wp_spec::NetlistSpec::wire_latencies`]`(reference_period)`, relay
    /// counts ranging over `0..=cap` per channel.
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError`] when the spec declares no channel or `cap`
    /// exceeds [`wp_spec::MAX_RELAY_STATIONS`].
    ///
    /// # Panics
    ///
    /// Panics when `reference_period` is not positive (propagated).
    pub fn new(spec: &NetlistSpec, cap: usize, reference_period: f64) -> Result<Self, SpaceError> {
        if cap > MAX_RELAY_STATIONS {
            return Err(SpaceError::CapTooLarge { cap });
        }
        let latencies = spec.wire_latencies(reference_period);
        if latencies.is_empty() {
            return Err(SpaceError::NoChannels);
        }
        Ok(Self {
            net: spec.to_netlist(),
            latencies,
            cap,
            reference_period,
        })
    }

    /// [`SearchSpace::new`] for a spec and cap known to be valid.
    ///
    /// # Panics
    ///
    /// Panics when [`SearchSpace::new`] fails or `reference_period` is not
    /// positive.
    pub fn from_spec(spec: &NetlistSpec, cap: usize, reference_period: f64) -> Self {
        Self::new(spec, cap, reference_period).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Number of channels (the assignment vector length).
    pub fn channels(&self) -> usize {
        self.latencies.len()
    }

    /// Per-channel relay-station cap (inclusive).
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// The reference (logic-limited) clock period: the floor of
    /// [`SearchSpace::clock_period`].
    pub fn reference_period(&self) -> f64 {
        self.reference_period
    }

    /// The per-channel wire latencies.
    pub fn latencies(&self) -> &[f64] {
        &self.latencies
    }

    /// The base topology candidates are scored against.
    pub fn netlist(&self) -> &Netlist {
        &self.net
    }

    /// Number of assignments in the space: `(cap + 1)^channels`, saturating
    /// at `u128::MAX` (a space that large is never enumerated anyway).
    pub fn size(&self) -> u128 {
        let radix = self.cap as u128 + 1;
        let mut size: u128 = 1;
        for _ in 0..self.channels() {
            size = size.saturating_mul(radix);
        }
        size
    }

    /// Decodes a flat index in `0..size()` into its mixed-radix assignment
    /// (channel 0 is the least-significant digit).
    ///
    /// # Panics
    ///
    /// Panics when `out.len()` differs from the channel count.
    pub fn decode(&self, flat: u128, out: &mut [usize]) {
        assert_eq!(out.len(), self.channels());
        let radix = self.cap as u128 + 1;
        let mut rest = flat;
        for slot in out.iter_mut() {
            *slot = (rest % radix) as usize;
            rest /= radix;
        }
        debug_assert_eq!(rest, 0, "flat index out of range");
    }

    /// The fastest feasible clock period of an assignment: each channel's
    /// wire is split into `rᵢ + 1` segments, every segment must fit in one
    /// period, and the reference period is the logic floor.
    pub fn clock_period(&self, assignment: &[usize]) -> f64 {
        let mut period = self.reference_period;
        for (&rs, &latency) in assignment.iter().zip(&self.latencies) {
            let segment = latency / (rs + 1) as f64;
            if segment > period {
                period = segment;
            }
        }
        period
    }
}

/// Reusable per-worker scoring workspace: one scratch [`Netlist`] and one
/// incremental [`McrSolver`], built once per topology, so a candidate
/// costs at most one allocation-free Karp re-solve and a block of
/// candidates that differ only in channel 0 shares one
/// ([`Evaluator::score_block`]).
#[derive(Debug)]
pub struct Evaluator {
    scratch: Netlist,
    solver: McrSolver,
    /// Channel 0's edge, the one a block sweeps.
    swept: EdgeId,
    /// Cycle throughput per channel-0 count of the last block.
    sweep: Vec<f64>,
    /// Segment delay `latencyᵢ / (r + 1)` at `segments[i * (cap + 1) + r]`.
    /// This and `sweep` are sized by the first block, so a walk-only
    /// workspace never allocates them.
    segments: Vec<f64>,
    scored: u64,
}

impl Evaluator {
    /// Builds the workspace for one search space.
    pub fn new(space: &SearchSpace) -> Self {
        let scratch = space.net.clone();
        let solver = McrSolver::new(&scratch);
        let swept = scratch
            .edge_ids()
            .next()
            .expect("a search space has a channel");
        Self {
            scratch,
            solver,
            swept,
            sweep: Vec::new(),
            segments: Vec::new(),
            scored: 0,
        }
    }

    /// Scores one assignment analytically: incremental MCR re-solve for the
    /// cycle throughput, clock law for the period, their ratio for the
    /// effective throughput.  Exact rational comparisons inside the solver
    /// make the returned floats bit-identical across workers and runs.
    pub fn score(&mut self, space: &SearchSpace, assignment: &[usize]) -> Score {
        self.scratch.apply_relay_station_assignment(assignment);
        let cycle_throughput = self.solver.solve(&self.scratch);
        let period = space.clock_period(assignment);
        self.scored += 1;
        Score {
            cycle_throughput,
            period,
            effective: cycle_throughput / period,
        }
    }

    /// Scores the block of assignments that agree with `assignment` on
    /// channels 1.. and give channel 0 each count in `counts`, handing
    /// each to `visit` in ascending order of that count.  One
    /// [`McrSolver::solve_sweep`] covers the whole block, and every score
    /// equals [`Evaluator::score`]'s bit for bit.  Leaves `assignment[0]`
    /// at the last count of the block.
    ///
    /// # Panics
    ///
    /// Panics when `counts` reaches past the space's cap or `assignment`
    /// has the wrong length.
    pub fn score_block(
        &mut self,
        space: &SearchSpace,
        assignment: &mut [usize],
        counts: Range<usize>,
        mut visit: impl FnMut(&[usize], Score),
    ) {
        let radix = space.cap + 1;
        if self.segments.is_empty() {
            self.sweep = vec![0.0; radix];
            self.segments = space
                .latencies
                .iter()
                .flat_map(|&latency| (0..radix).map(move |r| latency / (r + 1) as f64))
                .collect();
        }
        self.scratch.apply_relay_station_assignment(assignment);
        let sweep = &mut self.sweep[..counts.end];
        self.solver.solve_sweep(&self.scratch, self.swept, sweep);
        // The clock law's maximum over channels 1.. is fixed by the block;
        // only channel 0's segment varies.  No segment is NaN or -0, so
        // the maximum has the bits `clock_period` finds in any order.
        let mut rest = space.reference_period;
        for (i, &rs) in assignment.iter().enumerate().skip(1) {
            let segment = self.segments[i * radix + rs];
            if segment > rest {
                rest = segment;
            }
        }
        self.scored += counts.len() as u64;
        for r in counts {
            assignment[0] = r;
            let period = self.segments[r].max(rest);
            let cycle_throughput = self.sweep[r];
            visit(
                assignment,
                Score {
                    cycle_throughput,
                    period,
                    effective: cycle_throughput / period,
                },
            );
        }
    }

    /// Total candidates scored through this workspace.
    pub fn scored(&self) -> u64 {
        self.scored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_gen::{generate, GenConfig};
    use wp_netlist::ThroughputModel;

    fn space(seed: u64, cap: usize) -> (SearchSpace, wp_spec::NetlistSpec) {
        let mut spec = generate(&GenConfig::with_seed(seed));
        spec.insert_relays(1.0);
        (SearchSpace::from_spec(&spec, cap, 1.0), spec)
    }

    #[test]
    fn size_and_decode_round_trip() {
        let (space, _) = space(1, 2);
        let m = space.channels();
        assert_eq!(space.size(), 3u128.pow(m as u32));
        let mut out = vec![0; m];
        space.decode(0, &mut out);
        assert_eq!(out, vec![0; m]);
        space.decode(space.size() - 1, &mut out);
        assert_eq!(out, vec![2; m]);
        // The flat order enumerates channel 0 fastest.
        space.decode(5, &mut out);
        assert_eq!(&out[..2], &[2, 1]);
    }

    #[test]
    fn clock_period_follows_the_segment_law() {
        let (space, _) = space(1, 3);
        let zero = vec![0; space.channels()];
        let worst: f64 = space.latencies().iter().fold(0.0, |a, &b| a.max(b));
        assert_eq!(space.clock_period(&zero), worst.max(1.0));
        // Enough stations everywhere pins the clock at the logic floor.
        let full = vec![31; space.channels()];
        assert_eq!(space.clock_period(&full), 1.0);
    }

    #[test]
    fn evaluator_matches_the_throughput_model() {
        let (space, spec) = space(7, 2);
        let mut eval = Evaluator::new(&space);
        let mut assignment = spec.relay_assignment();
        for step in 0..assignment.len() {
            assignment[step] = (step * 2 + 1) % 3;
            let score = eval.score(&space, &assignment);
            let mut check = spec.clone();
            check.apply_relay_assignment(&assignment);
            let expected = ThroughputModel::Exact.predict(&check.to_netlist());
            assert_eq!(score.cycle_throughput.to_bits(), expected.to_bits());
            assert_eq!(
                score.effective.to_bits(),
                (expected / space.clock_period(&assignment)).to_bits()
            );
        }
        assert_eq!(eval.scored(), spec.channels.len() as u64);
    }

    #[test]
    fn block_scores_equal_single_scores_bit_for_bit() {
        let (space, _) = space(3, 3);
        let mut block = Evaluator::new(&space);
        let mut single = Evaluator::new(&space);
        let mut assignment = vec![0; space.channels()];
        for flat in (0..space.size()).step_by(37) {
            space.decode(flat, &mut assignment);
            // A full block, then one clipped at both ends.
            for counts in [0..space.cap() + 1, 1..3] {
                let mut seen = Vec::new();
                block.score_block(&space, &mut assignment, counts.clone(), |a, score| {
                    seen.push((a[0], score))
                });
                assert_eq!(
                    seen.iter().map(|&(r, _)| r).collect::<Vec<_>>(),
                    counts.collect::<Vec<_>>()
                );
                for (r, score) in seen {
                    assignment[0] = r;
                    let expected = single.score(&space, &assignment);
                    assert_eq!(
                        score.cycle_throughput.to_bits(),
                        expected.cycle_throughput.to_bits()
                    );
                    assert_eq!(score.period.to_bits(), expected.period.to_bits());
                    assert_eq!(score.effective.to_bits(), expected.effective.to_bits());
                }
            }
        }
        assert_eq!(block.scored(), single.scored());
    }

    #[test]
    fn specs_without_a_space_are_typed_errors() {
        let (_, spec) = space(1, 1);
        let mut empty = spec.clone();
        empty.channels.clear();
        assert_eq!(
            SearchSpace::new(&empty, 3, 1.0).unwrap_err(),
            SpaceError::NoChannels
        );
        let cap = MAX_RELAY_STATIONS + 1;
        assert_eq!(
            SearchSpace::new(&spec, cap, 1.0).unwrap_err(),
            SpaceError::CapTooLarge { cap }
        );
        assert!(SearchSpace::new(&spec, MAX_RELAY_STATIONS, 1.0).is_ok());
    }
}
