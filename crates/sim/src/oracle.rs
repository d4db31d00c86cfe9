//! Steady-state period detection: the simulation half of the analytical
//! throughput oracle.
//!
//! Under the strict (WP1) policy the *control plane* of a wire-pipelined
//! system — queue occupancies, register validity bits, stop bits, halted
//! flags — evolves autonomously: the firing decision of every shell and the
//! next-state function of every relay station read only those bits, never
//! the token payloads (see the lane kernel's `control_words` for the exact
//! state).  The control plane is a finite state machine, so every
//! non-halting run is eventually periodic, and observing the same control
//! state at two cycles `c` and `c + P` proves the whole future of the run:
//! firing patterns repeat with period `P` forever.
//!
//! [`crate::LaneLidSimulator::run_until_firings_extrapolated`] exploits
//! this.  The oracle is three phases of the lane kernel's one drive loop,
//! between that loop's per-cycle boundary checks (goal, budget, deadlock)
//! and its step.  *Search* hashes the packed control state each cycle
//! until it repeats.  *Verify* simulates one more full period while the
//! checks go on, recording the fire masks, and compares the complete
//! control vectors (defeating hash collisions).  A match *extrapolates*
//! each undecided lane's goal cycle and per-process firing counters in
//! O(1) instead of simulating millions of steady-state cycles; a mismatch
//! restarts the search.  Lanes that meet their goal during verification
//! are reported from simulation, as reaching their goal before a period.
//! That loop is the only one: a single run is a one-lane batch, and a
//! plain lane run is the same loop without the oracle's phases.  A batch
//! with a stall schedule, or one with no period inside the detection
//! window, simulates to its goals plainly — the oracle only ever reads
//! state, so the fallback is bit-identical to never having asked — and
//! every such run names its [`OracleFallback`].  Oracle-policy (WP2) runs, which the lane kernel
//! rejects, are simulated plainly by the sweep.
//!
//! # Proving the joint search futile
//!
//! The joint state of a batch repeats only with the least common multiple
//! of its lanes' periods, which for heterogeneous relay budgets is often
//! far beyond [`ORACLE_DETECTION_WINDOW`].  Beside the hash search the
//! drive loop therefore runs Brent's cycle detection (Brent 1980) on every
//! lane at once: it snapshots the control words `1, 2, 4, …` cycles into an
//! *epoch*, and on every cycle ORs `snapshot ^ now` over all words.  A lane
//! whose bit is clear has recurred exactly — lanes are independent
//! bit-slices, so no hash is involved — with period
//! `λ_l = clock − snapshot clock`, and it is exactly the lane's least
//! period once the snapshot lies in its cycle.
//!
//! Every joint repeat `(c′, c)` inside an epoch starting at `e` repeats
//! every lane, so each `λ_l` divides `c − c′` and `c ≥ e + lcm(λ_l)`.
//! The lcm of the periods found so far divides the full one, so as soon as
//! `e + lcm > ORACLE_DETECTION_WINDOW` the hash search provably finds
//! nothing more inside the window: it stops and drops its table
//! ([`OracleFallback::PeriodBeyondWindow`] records the proof cycle).  The
//! search only ever stops when it cannot succeed, so a batch that does
//! have a joint period in the window detects it at exactly the same cycle
//! as before.
//!
//! Epochs bound the argument.  The lane step is autonomous only while the
//! halted planes are constant, and halted planes only ever gain bits, so no
//! state after a halt flip equals one before it: a flip starts a new epoch,
//! and a search that was proven futile resumes with an empty table.  A
//! candidate period that fails verification also starts a new epoch,
//! because verification steps the clock without recurrence checks.
//!
//! One caveat bounds the soundness argument: a *halted* flag is part of the
//! hashed control state, but its transition is driven by the process's data
//! (the control plane cannot predict a future halt).  Any flip inside the
//! detection or verification window breaks the candidate period and is
//! caught; a flip after extrapolation begins is assumed not to happen
//! before the goal cycle.  That assumption holds for every workload in this
//! workspace — only the goal process halts, and it halts exactly at the
//! goal firing count — and the sweeps' `--oracle auto` mode spot-verifies
//! it empirically by fully simulating one row and comparing.
//!
//! This module holds the result type and the pure extrapolation arithmetic;
//! the drive loop lives in the lane kernel (`lane.rs`).

use crate::lid::LidReport;

/// How many cycles the period detector searches before giving up and
/// falling back to plain simulation.  Steady-state periods of the systems
/// in this workspace are tiny (a few to a few hundred cycles — bounded by
/// the loop lengths of the netlist), so the window is generous.
pub const ORACLE_DETECTION_WINDOW: u64 = 65_536;

/// Outcome of a goal-directed run that was allowed to extrapolate (see
/// [`crate::LaneLidSimulator::run_until_firings_extrapolated`]).
///
/// The embedded [`LidReport`] describes the run *at the goal cycle* whether
/// the goal was reached by simulation or by extrapolation; the two extra
/// fields say how much of that was actually simulated.  After an
/// extrapolated run the simulator's own architectural state is frozen at
/// the last simulated cycle — do not drain it or read process state from
/// it; everything the run established is in this value.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleRun {
    /// The run summary at the (possibly extrapolated) goal cycle.
    pub report: LidReport,
    /// Cycles actually simulated by this call.
    pub simulated_cycles: u64,
    /// `true` when steady-state extrapolation supplied the tail of the run;
    /// `false` when the goal was reached by plain simulation.
    pub extrapolated: bool,
    /// Why the run was not extrapolated: `None` exactly when `extrapolated`.
    pub fallback: Option<OracleFallback>,
}

impl OracleRun {
    /// Cycles the oracle did *not* have to simulate (the saving the
    /// `--oracle` sweeps report).
    pub fn extrapolated_cycles(&self) -> u64 {
        self.report.cycles.saturating_sub(self.simulated_cycles)
    }
}

/// Why an oracle run reached its goal by plain simulation instead of by
/// extrapolation.  Every such run carries exactly one reason, so no
/// fallback is silent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OracleFallback {
    /// The goal was reached while the joint period was still being
    /// searched for (or verified).
    GoalBeforePeriod,
    /// The per-lane recurrences proved, at cycle `proven_at`, that no joint
    /// period can be found inside [`ORACLE_DETECTION_WINDOW`], and the
    /// search stopped there.
    PeriodBeyondWindow {
        /// The cycle at which the lcm bound crossed the window.
        proven_at: u64,
    },
    /// The detection window ran out without a joint period and without a
    /// proof that none exists.
    WindowExhausted,
    /// The batch has a stall schedule, which reads the absolute cycle: the
    /// control plane alone does not determine the future.
    StallSchedule,
    /// A joint period was verified, but the goal process never fires in it.
    GoalNeverFires,
    /// A joint period was verified, but a firing-free gap of its steady
    /// state reaches the deadlock window.
    DeadlockGap,
}

impl OracleFallback {
    /// A short stable label (the proof cycle omitted), for tallies.
    pub fn label(&self) -> &'static str {
        match self {
            Self::GoalBeforePeriod => "goal before period",
            Self::PeriodBeyondWindow { .. } => "period beyond window",
            Self::WindowExhausted => "window exhausted",
            Self::StallSchedule => "stall schedule",
            Self::GoalNeverFires => "goal never fires",
            Self::DeadlockGap => "deadlock gap",
        }
    }
}

/// Least common multiple, saturating at `u64::MAX`.
pub(crate) fn lcm_saturating(a: u64, b: u64) -> u64 {
    fn gcd(mut a: u64, mut b: u64) -> u64 {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    }
    (a / gcd(a, b)).saturating_mul(b)
}

/// Splits `rem ≥ 1` remaining firings into `k` whole periods plus a residue
/// `rem′ ∈ [1, delta]`, where `delta ≥ 1` is the goal process's firings per
/// period: returns `(k, rem′)` with `rem = k·delta + rem′`.
pub(crate) fn split_remaining(rem: u64, delta: u64) -> (u64, u64) {
    debug_assert!(rem >= 1 && delta >= 1);
    let k = (rem - 1) / delta;
    (k, rem - k * delta)
}

/// First in-period offset `t` at which the cumulative firing pattern
/// reaches `rem`: `pattern[t]` is the number of goal-process firings in the
/// first `t + 1` cycles of a period, so the goal is met `t + 1` cycles into
/// the period.  Requires `1 ≤ rem ≤ pattern[last]`.
pub(crate) fn goal_offset(pattern: &[u64], rem: u64) -> usize {
    pattern
        .iter()
        .position(|&f| f >= rem)
        .expect("rem must not exceed the per-period firing count")
}

/// Longest run of firing-free cycles in the infinite repetition of the
/// per-cycle `fired` pattern.  Returns `u64::MAX` when no cycle fires at
/// all (the repetition never fires again).  The caller compares this
/// against the deadlock window: a steady state whose internal gaps reach
/// the window would make plain simulation report a deadlock, so the oracle
/// must fall back rather than extrapolate past it.
pub(crate) fn max_cyclic_gap(fired: &[bool]) -> u64 {
    if fired.iter().all(|&f| !f) {
        return u64::MAX;
    }
    // Scan two concatenated copies: every wrap-around gap of the cyclic
    // sequence appears as a contiguous run in the doubled sequence.
    let mut longest = 0u64;
    let mut run = 0u64;
    for &f in fired.iter().chain(fired.iter()) {
        if f {
            run = 0;
        } else {
            run += 1;
            longest = longest.max(run);
        }
    }
    longest
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_remaining_covers_the_residue_range() {
        // delta = 3: rem 1..=3 -> k 0; rem 4..=6 -> k 1; residue in [1, 3].
        for rem in 1..=12u64 {
            let (k, residue) = split_remaining(rem, 3);
            assert_eq!(k * 3 + residue, rem);
            assert!((1..=3).contains(&residue), "rem={rem} residue={residue}");
        }
        assert_eq!(split_remaining(1, 1), (0, 1));
        assert_eq!(split_remaining(7, 1), (6, 1));
    }

    #[test]
    fn goal_offset_finds_the_first_reaching_cycle() {
        // Pattern: fires on in-period cycles 1 and 3 (0-based offsets 1, 3).
        let pattern = [0u64, 1, 1, 2];
        assert_eq!(goal_offset(&pattern, 1), 1);
        assert_eq!(goal_offset(&pattern, 2), 3);
    }

    #[test]
    fn lcm_saturates() {
        assert_eq!(lcm_saturating(1, 7), 7);
        assert_eq!(lcm_saturating(4, 6), 12);
        assert_eq!(lcm_saturating(12, 4), 12);
        assert_eq!(lcm_saturating(u64::MAX - 1, 3), u64::MAX);
    }

    #[test]
    fn cyclic_gap_sees_the_wrap_around() {
        // Gap of 2 at the end + 1 at the start = wrap-around gap of 3.
        let fired = [false, true, true, false, false];
        assert_eq!(max_cyclic_gap(&fired), 3);
        assert_eq!(max_cyclic_gap(&[true, true]), 0);
        assert_eq!(max_cyclic_gap(&[false, false]), u64::MAX);
    }
}
