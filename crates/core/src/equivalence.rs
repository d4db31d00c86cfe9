//! Equivalence between the original and the wire-pipelined system.
//!
//! The paper defines two systems to be **N-equivalent** when, after filtering
//! the void symbols τ out of every channel realisation, each signal exhibits
//! at least `N` values and the first `N` values coincide on every channel.
//! They are **equivalent** when they are N-equivalent for every N, i.e. the
//! τ-filtered realisations are prefix-compatible for as long as both are
//! observed.
//!
//! One algorithm implements those definitions and is used by every
//! experiment in the workspace to prove that wrapping and wire pipelining
//! preserved functionality: [`StreamingEquivalence`] consumes the two
//! τ-filtered value streams *as they are produced* and maintains
//! per-channel verdicts incrementally, so golden-vs-pipelined equivalence
//! can be checked in extra memory bounded by the lag between the two
//! systems — independent of the trace length — without retaining either
//! realisation.  [`check_equivalence`] is the same checker applied to two
//! finished recordings ([`TraceArena`]s).

use std::collections::VecDeque;
use std::fmt;

use crate::trace::TraceArena;

/// The verdict of comparing one pair of channel realisations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChannelVerdict {
    /// The common prefix of the τ-filtered sequences matches.
    Match {
        /// Number of values compared (the shorter of the two sequences).
        compared: usize,
    },
    /// A mismatch was found at a specific position of the τ-filtered
    /// sequences.
    Mismatch {
        /// Index (tag) of the first differing value.
        position: usize,
    },
    /// The channel exists in only one of the two systems, so nothing could
    /// be compared.  This is a construction error in the caller's pairing
    /// (both systems must realise the same channels) and it makes the
    /// report non-equivalent instead of being silently skipped.
    Unpaired,
}

impl ChannelVerdict {
    /// Returns `true` for [`ChannelVerdict::Match`].
    pub fn is_match(&self) -> bool {
        matches!(self, ChannelVerdict::Match { .. })
    }
}

/// The outcome of checking a set of channels for equivalence.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EquivalenceReport {
    entries: Vec<(String, ChannelVerdict)>,
}

impl EquivalenceReport {
    /// Returns `true` when every compared channel matched on its common
    /// prefix.
    ///
    /// Note that an *empty* report is trivially equivalent; use
    /// [`EquivalenceReport::is_vacuous`] to tell "every channel matched"
    /// apart from "nothing was compared at all".
    pub fn is_equivalent(&self) -> bool {
        self.entries.iter().all(|(_, v)| v.is_match())
    }

    /// Returns `true` when the report contains no channels at all — nothing
    /// was compared, so [`EquivalenceReport::is_equivalent`] holds only
    /// vacuously and `proven_n` is 0.  [`fmt::Display`] renders such
    /// reports distinctly instead of claiming "equivalent (proven N = 0)".
    pub fn is_vacuous(&self) -> bool {
        self.entries.is_empty()
    }

    /// The greatest `N` such that the two systems are provably N-equivalent
    /// from the recorded traces: the minimum compared-prefix length over all
    /// channels, or 0 if any channel mismatched or could not be paired.
    pub fn proven_n(&self) -> usize {
        if !self.is_equivalent() {
            return 0;
        }
        self.entries
            .iter()
            .map(|(_, v)| match v {
                ChannelVerdict::Match { compared } => *compared,
                ChannelVerdict::Mismatch { .. } | ChannelVerdict::Unpaired => 0,
            })
            .min()
            .unwrap_or(0)
    }

    /// Per-channel verdicts, in the order the channels were supplied.
    pub fn entries(&self) -> &[(String, ChannelVerdict)] {
        &self.entries
    }

    /// Names of the channels that mismatched.
    pub fn mismatched_channels(&self) -> Vec<&str> {
        self.entries
            .iter()
            .filter(|(_, v)| !v.is_match())
            .map(|(n, _)| n.as_str())
            .collect()
    }
}

impl fmt::Display for EquivalenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_vacuous() {
            write!(f, "vacuously equivalent (no channels compared)")
        } else if self.is_equivalent() {
            write!(f, "equivalent (proven N = {})", self.proven_n())
        } else {
            write!(f, "NOT equivalent: ")?;
            for (i, name) in self.mismatched_channels().iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{name}")?;
            }
            Ok(())
        }
    }
}

/// Checks two recorded systems for equivalence by streaming every
/// channel's τ-filtered values through a [`StreamingEquivalence`].
///
/// Channels are paired by position; the names of the reference channels
/// are used in the report.  A channel present in one system but not the
/// other (a reference/candidate count mismatch) produces a
/// [`ChannelVerdict::Unpaired`] entry, so the report comes back
/// non-equivalent instead of silently comparing only the channels that
/// happened to line up.
///
/// # Examples
///
/// ```
/// use wp_core::{check_equivalence, Token, TraceArena};
///
/// let mut golden = TraceArena::new(["out"]);
/// let mut pipelined = TraceArena::new(["out"]);
/// for v in 0..4u32 {
///     golden.record(0, Token::Valid(v));
///     pipelined.record(0, Token::Void);       // latency differs ...
///     pipelined.record(0, Token::Valid(v));   // ... but values agree
/// }
/// let report = check_equivalence(&golden, &pipelined);
/// assert!(report.is_equivalent());
/// assert_eq!(report.proven_n(), 4);
/// ```
pub fn check_equivalence<V: Clone + PartialEq>(
    reference: &TraceArena<V>,
    candidate: &TraceArena<V>,
) -> EquivalenceReport {
    let mut checker =
        StreamingEquivalence::pair(reference.channel_names(), candidate.channel_names());
    // Values beyond the shorter stream of a channel can never be compared,
    // so pushing the zipped pairs yields the same verdicts as pushing
    // everything, without buffering the longer side's tail.
    for (ch, (r, c)) in reference.iter().zip(candidate.iter()).enumerate() {
        for (rv, cv) in r.values().zip(c.values()) {
            checker.push_reference(ch, rv.clone());
            checker.push_candidate(ch, cv.clone());
        }
    }
    checker.report()
}

/// Which side of a streaming comparison currently leads on a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Reference,
    Candidate,
}

/// Incremental state of one paired channel in a [`StreamingEquivalence`].
#[derive(Debug, Clone)]
struct StreamChannel<V> {
    name: String,
    /// Length of the matched prefix so far.
    matched: usize,
    /// Position of the first mismatch, if one was found.
    mismatch: Option<usize>,
    /// Values seen on one side but not yet on the other.  At most one side
    /// is ever buffered, so the occupancy is the *lead* of that side.
    ahead: VecDeque<V>,
    /// Which side `ahead` belongs to (meaningless while it is empty).
    ahead_side: Side,
}

/// Streaming (incremental) equivalence checker.
///
/// `StreamingEquivalence` consumes the two τ-filtered value streams *as the
/// tokens are produced* — in any interleaving — and maintains per-channel
/// verdicts on the fly.  Per channel it keeps only the values one side has
/// produced ahead of the other, so the extra memory is bounded by the lag
/// between the two systems (pipeline depth, queue capacity), **not** by the
/// trace length: a billion-cycle golden-vs-pipelined comparison runs in the
/// same few buffered tokens as a ten-cycle one.
///
/// Channels are paired by position; channels present on only one side are reported [`ChannelVerdict::Unpaired`] and
/// values pushed to them are ignored (they can never be compared).
///
/// # Examples
///
/// ```
/// use wp_core::StreamingEquivalence;
///
/// let mut eq = StreamingEquivalence::new(["out"]);
/// for v in 0..3u32 {
///     eq.push_reference(0, v);   // golden produces ...
///     eq.push_candidate(0, v);   // ... pipelined catches up
/// }
/// assert!(eq.is_equivalent());
/// assert_eq!(eq.report().proven_n(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct StreamingEquivalence<V> {
    paired: Vec<StreamChannel<V>>,
    /// Names of channels present on only one side (reference extras first).
    unpaired: Vec<String>,
}

impl<V: PartialEq> StreamingEquivalence<V> {
    /// Creates a checker for two systems realising the same channels, in
    /// the same order.
    pub fn new<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self {
            paired: names
                .into_iter()
                .map(|name| StreamChannel {
                    name: name.into(),
                    matched: 0,
                    mismatch: None,
                    ahead: VecDeque::new(),
                    ahead_side: Side::Reference,
                })
                .collect(),
            unpaired: Vec::new(),
        }
    }

    /// Creates a checker pairing the reference and candidate channel lists
    /// by position.  Channels beyond the shorter list become
    /// [`ChannelVerdict::Unpaired`] entries of the report (making it
    /// non-equivalent).
    pub fn pair<I1, S1, I2, S2>(reference: I1, candidate: I2) -> Self
    where
        I1: IntoIterator<Item = S1>,
        S1: Into<String>,
        I2: IntoIterator<Item = S2>,
        S2: Into<String>,
    {
        let reference: Vec<String> = reference.into_iter().map(Into::into).collect();
        let mut candidate = candidate.into_iter().map(Into::into);
        let mut checker = Self::new(Vec::<String>::new());
        for name in reference {
            match candidate.next() {
                Some(_) => checker.paired.push(StreamChannel {
                    name,
                    matched: 0,
                    mismatch: None,
                    ahead: VecDeque::new(),
                    ahead_side: Side::Reference,
                }),
                None => checker.unpaired.push(name),
            }
        }
        checker.unpaired.extend(candidate);
        checker
    }

    /// Number of paired channels being compared.
    pub fn num_channels(&self) -> usize {
        self.paired.len()
    }

    /// Feeds the next τ-filtered value of the *reference* realisation of
    /// `channel`.  Pushes to unpaired or out-of-range channels are ignored.
    pub fn push_reference(&mut self, channel: usize, value: V) {
        self.push(channel, value, Side::Reference);
    }

    /// Feeds the next τ-filtered value of the *candidate* realisation of
    /// `channel`.  Pushes to unpaired or out-of-range channels are ignored.
    pub fn push_candidate(&mut self, channel: usize, value: V) {
        self.push(channel, value, Side::Candidate);
    }

    fn push(&mut self, channel: usize, value: V, side: Side) {
        let Some(ch) = self.paired.get_mut(channel) else {
            return;
        };
        if ch.mismatch.is_some() {
            return; // verdict settled; drop everything else
        }
        if ch.ahead.is_empty() || ch.ahead_side == side {
            ch.ahead_side = side;
            ch.ahead.push_back(value);
        } else {
            let other = ch.ahead.pop_front().expect("checked non-empty");
            if other == value {
                ch.matched += 1;
            } else {
                ch.mismatch = Some(ch.matched);
                ch.ahead.clear(); // nothing more to compare; free the buffer
            }
        }
    }

    /// The largest number of candidate values buffered ahead of the
    /// reference on any channel.  A driver can use this as back-pressure:
    /// while it is non-zero, advancing the reference system shrinks it.
    pub fn candidate_lead(&self) -> usize {
        self.paired
            .iter()
            .filter(|ch| ch.ahead_side == Side::Candidate)
            .map(|ch| ch.ahead.len())
            .max()
            .unwrap_or(0)
    }

    /// Returns `true` while no mismatch has been found and every channel
    /// could be paired (the streaming analogue of
    /// [`EquivalenceReport::is_equivalent`]).
    pub fn is_equivalent(&self) -> bool {
        self.unpaired.is_empty() && self.paired.iter().all(|ch| ch.mismatch.is_none())
    }

    /// The `N` proven so far: minimum matched-prefix length over all
    /// channels, or 0 after any mismatch or pairing failure.
    pub fn proven_n(&self) -> usize {
        if !self.is_equivalent() {
            return 0;
        }
        self.paired.iter().map(|ch| ch.matched).min().unwrap_or(0)
    }

    /// Snapshots the current per-channel verdicts into an
    /// [`EquivalenceReport`] (paired channels first, then any unpaired
    /// names).
    pub fn report(&self) -> EquivalenceReport {
        let mut entries: Vec<(String, ChannelVerdict)> = self
            .paired
            .iter()
            .map(|ch| {
                let verdict = match ch.mismatch {
                    Some(position) => ChannelVerdict::Mismatch { position },
                    None => ChannelVerdict::Match {
                        compared: ch.matched,
                    },
                };
                (ch.name.clone(), verdict)
            })
            .collect();
        entries.extend(
            self.unpaired
                .iter()
                .map(|name| (name.clone(), ChannelVerdict::Unpaired)),
        );
        EquivalenceReport { entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::Token;

    /// One arena recording the given channels; `None` records τ.
    fn arena(channels: &[(&str, &[Option<u32>])]) -> TraceArena<u32> {
        let mut arena = TraceArena::new(channels.iter().map(|(name, _)| *name));
        for (ch, (_, values)) in channels.iter().enumerate() {
            for v in *values {
                arena.record(ch, v.map_or(Token::Void, Token::Valid));
            }
        }
        arena
    }

    #[test]
    fn first_mismatch_position_and_compared_prefix() {
        let report = check_equivalence(
            &arena(&[("a", &[Some(1), Some(2), Some(3)])]),
            &arena(&[("a", &[Some(1), Some(9), Some(3)])]),
        );
        assert_eq!(
            report.entries()[0].1,
            ChannelVerdict::Mismatch { position: 1 }
        );
        let report = check_equivalence(
            &arena(&[("a", &[Some(1), Some(2)])]),
            &arena(&[("a", &[Some(1), Some(2), Some(3)])]),
        );
        assert_eq!(report.entries()[0].1, ChannelVerdict::Match { compared: 2 });
    }

    #[test]
    fn void_symbols_do_not_affect_equivalence() {
        let golden = arena(&[("a", &[Some(1), Some(2), Some(3)])]);
        let wp = arena(&[("a", &[None, Some(1), None, None, Some(2), Some(3), None])]);
        let report = check_equivalence(&golden, &wp);
        assert!(report.is_equivalent());
        assert_eq!(report.proven_n(), 3);
    }

    #[test]
    fn value_mismatch_is_detected_and_named() {
        let golden = arena(&[("data", &[Some(1), Some(2)])]);
        let wp = arena(&[("data", &[Some(1), Some(7)])]);
        let report = check_equivalence(&golden, &wp);
        assert!(!report.is_equivalent());
        assert_eq!(report.proven_n(), 0);
        assert_eq!(report.mismatched_channels(), vec!["data"]);
        assert!(format!("{report}").contains("NOT equivalent"));
    }

    #[test]
    fn proven_n_is_minimum_over_channels() {
        let golden = arena(&[
            ("a", &[Some(1), Some(2), Some(3)]),
            ("b", &[Some(9), Some(8)]),
        ]);
        let candidate = arena(&[("a", &[Some(1), Some(2), Some(3)]), ("b", &[Some(9)])]);
        let report = check_equivalence(&golden, &candidate);
        assert!(report.is_equivalent());
        assert_eq!(report.proven_n(), 1);
        assert!(format!("{report}").contains("N = 1"));
    }

    /// Regression: a reference/candidate channel-count mismatch used to be
    /// silently truncated by `zip`, reporting "equivalent" on whatever
    /// channels happened to line up.
    #[test]
    fn channel_count_mismatch_is_not_equivalent() {
        let golden = arena(&[("a", &[Some(1), Some(2)]), ("b", &[Some(3)])]);
        // Candidate is missing channel "b" entirely.
        let candidate = arena(&[("a", &[Some(1), Some(2)])]);
        let report = check_equivalence(&golden, &candidate);
        assert!(!report.is_equivalent());
        assert_eq!(report.proven_n(), 0);
        assert_eq!(report.entries().len(), 2);
        assert_eq!(report.entries()[1].1, ChannelVerdict::Unpaired);
        assert_eq!(report.mismatched_channels(), vec!["b"]);
        assert!(format!("{report}").contains("NOT equivalent"));

        // The mirror case: the candidate has a channel the reference lacks.
        let golden = arena(&[("a", &[Some(1), Some(2)])]);
        let candidate = arena(&[("a", &[Some(1), Some(2)]), ("extra", &[Some(9)])]);
        let report = check_equivalence(&golden, &candidate);
        assert!(!report.is_equivalent());
        assert_eq!(report.mismatched_channels(), vec!["extra"]);
    }

    #[test]
    fn empty_report_is_vacuous_and_displays_distinctly() {
        let report = check_equivalence(&arena(&[]), &arena(&[]));
        assert!(report.is_vacuous());
        assert!(report.is_equivalent(), "vacuous truth is still truth");
        assert_eq!(report.proven_n(), 0);
        assert_eq!(
            format!("{report}"),
            "vacuously equivalent (no channels compared)"
        );

        let one = arena(&[("a", &[Some(1)])]);
        let nonempty = check_equivalence(&one, &one);
        assert!(!nonempty.is_vacuous());
        assert_eq!(format!("{nonempty}"), "equivalent (proven N = 1)");
    }

    /// The verdict must not depend on *how* the two streams interleave:
    /// lockstep, reference-first-in-bulk and candidate-first-in-bulk all
    /// see the same sequences, so they must reach the same verdict.
    #[test]
    fn streaming_is_interleaving_independent() {
        let golden = [vec![1u32, 2, 3, 4], vec![9, 8, 7]];
        let candidate = [vec![1, 2, 3, 4], vec![9, 8, 7]];
        let push_all = |eq: &mut StreamingEquivalence<u32>, streams: &[Vec<u32>], reference| {
            for (ch, values) in streams.iter().enumerate() {
                for &v in values {
                    if reference {
                        eq.push_reference(ch, v);
                    } else {
                        eq.push_candidate(ch, v);
                    }
                }
            }
        };
        let mut checkers = Vec::new();
        // Lockstep, one value of each side at a time.
        let mut lockstep = StreamingEquivalence::new(["a", "b"]);
        for (ch, (g, c)) in golden.iter().zip(&candidate).enumerate() {
            for (gv, cv) in g.iter().zip(c) {
                lockstep.push_reference(ch, *gv);
                lockstep.push_candidate(ch, *cv);
            }
        }
        checkers.push(lockstep);
        // Whole reference first (reference leads by the full trace).
        let mut ref_first = StreamingEquivalence::new(["a", "b"]);
        push_all(&mut ref_first, &golden, true);
        push_all(&mut ref_first, &candidate, false);
        checkers.push(ref_first);
        // Whole candidate first (candidate leads by the full trace).
        let mut cand_first = StreamingEquivalence::new(["a", "b"]);
        push_all(&mut cand_first, &candidate, false);
        push_all(&mut cand_first, &golden, true);
        checkers.push(cand_first);

        for eq in checkers {
            assert!(eq.is_equivalent());
            let report = eq.report();
            assert!(report.is_equivalent());
            assert_eq!(report.proven_n(), 3);
            assert_eq!(eq.proven_n(), 3);
        }
    }

    #[test]
    fn streaming_finds_first_mismatch_position() {
        let mut eq = StreamingEquivalence::new(["ch"]);
        for v in [1u32, 2, 3] {
            eq.push_reference(0, v);
        }
        eq.push_candidate(0, 1);
        assert!(eq.is_equivalent());
        eq.push_candidate(0, 9);
        assert!(!eq.is_equivalent());
        // Later agreement cannot resurrect the verdict.
        eq.push_candidate(0, 3);
        let report = eq.report();
        assert_eq!(
            report.entries()[0].1,
            ChannelVerdict::Mismatch { position: 1 }
        );
        assert_eq!(report.proven_n(), 0);
    }

    #[test]
    fn streaming_candidate_lead_tracks_the_buffered_side() {
        let mut eq = StreamingEquivalence::new(["a", "b"]);
        assert_eq!(eq.candidate_lead(), 0);
        eq.push_candidate(0, 1u32);
        eq.push_candidate(0, 2);
        eq.push_candidate(1, 5);
        assert_eq!(eq.candidate_lead(), 2);
        eq.push_reference(0, 1);
        assert_eq!(eq.candidate_lead(), 1);
        // A reference lead does not count as candidate lead.
        eq.push_reference(1, 5);
        eq.push_reference(1, 6);
        assert_eq!(eq.candidate_lead(), 1);
        eq.push_reference(0, 2);
        assert_eq!(eq.candidate_lead(), 0);
        assert!(eq.is_equivalent());
        assert_eq!(eq.proven_n(), 1); // channel "b" matched only once
    }

    #[test]
    fn streaming_pairing_reports_extras_as_unpaired() {
        let eq: StreamingEquivalence<u32> = StreamingEquivalence::pair(["a", "b", "c"], ["a", "b"]);
        assert_eq!(eq.num_channels(), 2);
        assert!(!eq.is_equivalent());
        let report = eq.report();
        assert_eq!(report.entries().len(), 3);
        assert_eq!(
            report.entries()[2],
            ("c".to_string(), ChannelVerdict::Unpaired)
        );
        assert_eq!(report.proven_n(), 0);
    }
}
