//! Signal traces: per-cycle recordings of channel contents.
//!
//! A *realisation* of a channel over a time interval is the sequence of
//! tokens observed on it, void symbols included — exactly the
//! `(v1,t1), τ, τ, (v2,t2), …` sequences of the paper.  [`TraceArena`]
//! records the realisations of many channels at once: **one shared token
//! slab** for the payloads of every channel plus per-channel
//! `(cycle, slot)` index lists ([`TraceEntry`]).  Void symbols cost no
//! storage (only a cycle-counter bump), capacity can be reserved up front
//! ([`TraceArena::reserve_cycles`]) so recording performs **zero heap
//! allocations in steady state**, and [`TraceRef`] reads each channel
//! without materialising anything.
//!
//! τ-filtering turns a recording into the value sequence used by the
//! equivalence definitions (see [`crate::check_equivalence`] and
//! [`crate::StreamingEquivalence`]).  The tag of each value is implicit:
//! the k-th valid token of a channel has tag k.

use crate::token::Token;

/// Position of one valid token inside a [`TraceArena`]: the cycle it was
/// observed in and the slot of its payload in the arena's shared slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceEntry {
    /// The per-channel cycle (record index) the token was observed in.
    pub cycle: u64,
    /// Index of the payload in the arena's shared token slab.
    pub slot: usize,
}

/// One channel's recording inside a [`TraceArena`]: its name, how many
/// cycles were recorded, and where its valid tokens live in the shared slab.
#[derive(Debug, Clone, Default)]
struct Lane {
    name: String,
    cycles: u64,
    entries: Vec<TraceEntry>,
}

/// Arena-backed recorder for the realisations of many channels at once.
///
/// All valid-token payloads share **one slab**; each channel keeps only a
/// `(cycle, slot)` index list ([`TraceEntry`]) into it, so a void symbol τ
/// costs no storage at all (just a cycle-counter bump).  With capacity
/// reserved up front ([`TraceArena::reserve_cycles`]) recording performs
/// zero heap allocations, which is what lets the simulators keep their
/// steady-state allocation-free guarantee with traces *enabled*.
///
/// Channels are addressed by the index order of the names given to
/// [`TraceArena::new`]; [`TraceArena::channel`] returns a borrowed
/// [`TraceRef`] view of one of them.
///
/// Two arenas compare equal when they record the same channels with the
/// same names, cycle counts, valid-token cycles and values — the slab
/// layout (which depends on the recording order across channels) is not
/// compared.
///
/// # Examples
///
/// ```
/// use wp_core::{Token, TraceArena};
///
/// let mut arena = TraceArena::new(["a", "b"]);
/// arena.record(0, Token::Valid(1u32));
/// arena.record(1, Token::Void);
/// arena.record(0, Token::Valid(2));
/// assert_eq!(arena.channel(0).filtered(), vec![1, 2]);
/// assert_eq!(arena.channel(1).len(), 1);
/// assert_eq!(arena.total_valid(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceArena<V> {
    slab: Vec<V>,
    lanes: Vec<Lane>,
}

impl<V> TraceArena<V> {
    /// Creates an arena recording one channel per name, in order.
    pub fn new<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self {
            slab: Vec::new(),
            lanes: names
                .into_iter()
                .map(|name| Lane {
                    name: name.into(),
                    cycles: 0,
                    entries: Vec::new(),
                })
                .collect(),
        }
    }

    /// Number of channels the arena records.
    pub fn num_channels(&self) -> usize {
        self.lanes.len()
    }

    /// Borrowed view of one channel's recording.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn channel(&self, index: usize) -> TraceRef<'_, V> {
        assert!(index < self.lanes.len(), "channel index out of range");
        TraceRef { arena: self, index }
    }

    /// Iterates over the per-channel views, in channel order.
    pub fn iter(&self) -> impl Iterator<Item = TraceRef<'_, V>> {
        (0..self.lanes.len()).map(|index| TraceRef { arena: self, index })
    }

    /// The channel names, in channel order.
    pub fn channel_names(&self) -> impl Iterator<Item = &str> {
        self.lanes.iter().map(|l| l.name.as_str())
    }

    /// Records the token observed on `channel` during one more cycle.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn record(&mut self, channel: usize, token: Token<V>) {
        match token {
            Token::Valid(v) => self.record_valid(channel, v),
            Token::Void => self.record_void(channel),
        }
    }

    /// Records a valid token on `channel`: the payload goes to the shared
    /// slab, the `(cycle, slot)` pair to the channel's index list.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    #[inline]
    pub fn record_valid(&mut self, channel: usize, value: V) {
        let slot = self.slab.len();
        self.slab.push(value);
        let lane = &mut self.lanes[channel];
        lane.entries.push(TraceEntry {
            cycle: lane.cycles,
            slot,
        });
        lane.cycles += 1;
    }

    /// Records the void symbol τ on `channel`: no storage, just a
    /// cycle-counter bump.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    #[inline]
    pub fn record_void(&mut self, channel: usize) {
        self.lanes[channel].cycles += 1;
    }

    /// Total number of valid tokens recorded across all channels (the
    /// occupancy of the shared slab).
    pub fn total_valid(&self) -> usize {
        self.slab.len()
    }

    /// Reserves capacity for `additional` more recorded cycles on every
    /// channel: the slab grows by `additional × num_channels` slots (every
    /// channel records at most one valid token per cycle) and each
    /// channel's index list by `additional` entries.  After the
    /// reservation, recording that many cycles performs no heap allocation.
    pub fn reserve_cycles(&mut self, additional: usize) {
        self.slab
            .reserve(additional.saturating_mul(self.lanes.len()));
        for lane in &mut self.lanes {
            lane.entries.reserve(additional);
        }
    }

    /// Clears every recording (names and capacity are retained), so the
    /// arena can be refilled without reallocating — the streaming
    /// equivalence path drains and clears it chunk by chunk.
    pub fn clear(&mut self) {
        self.slab.clear();
        for lane in &mut self.lanes {
            lane.cycles = 0;
            lane.entries.clear();
        }
    }
}

impl<V: PartialEq> PartialEq for TraceArena<V> {
    fn eq(&self, other: &Self) -> bool {
        self.num_channels() == other.num_channels() && self.iter().eq(other.iter())
    }
}

/// A borrowed view of one channel's realisation inside a [`TraceArena`].
///
/// Two views compare equal when they have the same name, cycle count,
/// valid-token cycles and values, in whichever arenas they live.
#[derive(Debug)]
pub struct TraceRef<'a, V> {
    arena: &'a TraceArena<V>,
    index: usize,
}

impl<V> Clone for TraceRef<'_, V> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<V> Copy for TraceRef<'_, V> {}

impl<'a, V> TraceRef<'a, V> {
    fn lane(&self) -> &'a Lane {
        &self.arena.lanes[self.index]
    }

    /// The channel name this view belongs to.
    pub fn name(&self) -> &'a str {
        &self.lane().name
    }

    /// Number of recorded cycles.
    pub fn len(&self) -> usize {
        self.lane().cycles as usize
    }

    /// Returns `true` when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.lane().cycles == 0
    }

    /// Number of informative (valid) tokens recorded.
    pub fn valid_count(&self) -> usize {
        self.lane().entries.len()
    }

    /// The `(cycle, slot)` positions of the channel's valid tokens.
    pub fn entries(&self) -> &'a [TraceEntry] {
        &self.lane().entries
    }

    /// The τ-filtered payload sequence, borrowed straight out of the slab.
    pub fn values(&self) -> impl Iterator<Item = &'a V> {
        let arena = self.arena;
        self.lane().entries.iter().map(move |e| &arena.slab[e.slot])
    }
}

impl<V: Clone> TraceRef<'_, V> {
    /// The τ-filtered sequence of payloads, in order of appearance (clones
    /// each payload; use [`TraceRef::values`] to borrow instead).
    pub fn filtered(&self) -> Vec<V> {
        self.values().cloned().collect()
    }
}

impl<V: PartialEq> PartialEq for TraceRef<'_, V> {
    fn eq(&self, other: &Self) -> bool {
        self.name() == other.name()
            && self.len() == other.len()
            && self.valid_count() == other.valid_count()
            && self
                .entries()
                .iter()
                .zip(other.entries())
                .all(|(a, b)| a.cycle == b.cycle)
            && self.values().eq(other.values())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceArena<u32> {
        let mut arena = TraceArena::new(["ch"]);
        for tok in [
            Token::Valid(1),
            Token::Void,
            Token::Void,
            Token::Valid(2),
            Token::Valid(3),
            Token::Void,
        ] {
            arena.record(0, tok);
        }
        arena
    }

    #[test]
    fn filtering_removes_void_symbols() {
        let arena = sample();
        let view = arena.channel(0);
        assert_eq!(view.filtered(), vec![1, 2, 3]);
        assert_eq!(view.valid_count(), 3);
        assert_eq!(view.len(), 6);
    }

    #[test]
    fn clear_resets_the_trace() {
        let mut arena = sample();
        arena.clear();
        assert!(arena.channel(0).is_empty());
        assert_eq!(arena.channel(0).name(), "ch");
    }

    /// Interleaves recordings on two channels and checks every view accessor
    /// against the per-cycle tokens each channel was given.
    #[test]
    fn arena_views_match_channel_traces() {
        let cycles = [
            (Token::Valid(1u32), Token::Void),
            (Token::Void, Token::Valid(10)),
            (Token::Valid(2), Token::Valid(20)),
            (Token::Void, Token::Void),
            (Token::Valid(3), Token::Void),
        ];
        let mut arena = TraceArena::new(["a", "b"]);
        for (cycle, &(ta, tb)) in cycles.iter().enumerate() {
            // Alternate the recording order across cycles: slab slots
            // interleave but the per-channel index lists keep them apart.
            if cycle % 2 == 0 {
                arena.record(0, ta);
                arena.record(1, tb);
            } else {
                arena.record(1, tb);
                arena.record(0, ta);
            }
        }
        let a: Vec<Token<u32>> = cycles.iter().map(|c| c.0).collect();
        let b: Vec<Token<u32>> = cycles.iter().map(|c| c.1).collect();
        assert_eq!(arena.num_channels(), 2);
        assert_eq!(arena.total_valid(), 5);
        assert_eq!(arena.channel_names().collect::<Vec<_>>(), vec!["a", "b"]);
        for (view, (name, tokens)) in arena.iter().zip([("a", &a), ("b", &b)]) {
            let valid_cycles: Vec<u64> = (0..tokens.len() as u64)
                .filter(|&c| tokens[c as usize].is_valid())
                .collect();
            let values: Vec<u32> = tokens.iter().filter_map(|t| t.into_valid()).collect();
            assert_eq!(view.name(), name);
            assert_eq!(view.len(), tokens.len());
            assert_eq!(view.valid_count(), values.len());
            assert_eq!(view.filtered(), values);
            assert_eq!(view.values().copied().collect::<Vec<_>>(), values);
            let entry_cycles: Vec<u64> = view.entries().iter().map(|e| e.cycle).collect();
            assert_eq!(entry_cycles, valid_cycles);
        }
    }

    #[test]
    fn arena_entries_carry_cycle_and_slot() {
        let mut arena = TraceArena::new(["ch"]);
        arena.record_void(0);
        arena.record_valid(0, 7u32);
        arena.record_void(0);
        arena.record_valid(0, 8);
        let entries = arena.channel(0).entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0], TraceEntry { cycle: 1, slot: 0 });
        assert_eq!(entries[1], TraceEntry { cycle: 3, slot: 1 });
    }

    #[test]
    fn arena_clear_retains_names_and_capacity() {
        let mut arena = TraceArena::new(["x"]);
        arena.reserve_cycles(8);
        for v in 0..5u32 {
            arena.record_valid(0, v);
        }
        arena.clear();
        assert!(arena.channel(0).is_empty());
        assert_eq!(arena.total_valid(), 0);
        assert_eq!(arena.channel(0).name(), "x");
        arena.record_valid(0, 9);
        assert_eq!(arena.channel(0).filtered(), vec![9]);
    }

    /// Equality ignores the slab layout but sees every recorded difference:
    /// a value, a void position, a cycle count or a channel name.
    #[test]
    fn arena_equality_is_semantic() {
        let record = |order_flipped: bool, tokens: [(Token<u32>, Token<u32>); 3]| {
            let mut arena = TraceArena::new(["a", "b"]);
            for (ta, tb) in tokens {
                if order_flipped {
                    arena.record(1, tb);
                    arena.record(0, ta);
                } else {
                    arena.record(0, ta);
                    arena.record(1, tb);
                }
            }
            arena
        };
        let base = [
            (Token::Valid(1), Token::Valid(5)),
            (Token::Void, Token::Valid(6)),
            (Token::Valid(2), Token::Void),
        ];
        assert_eq!(record(false, base), record(true, base));

        let mut value = base;
        value[2].0 = Token::Valid(9);
        assert_ne!(record(false, base), record(false, value));

        let mut shifted = base;
        shifted[0].0 = Token::Void;
        shifted[1].0 = Token::Valid(1);
        assert_ne!(record(false, base), record(false, shifted));

        let mut longer = record(false, base);
        longer.record_void(1);
        assert_ne!(record(false, base), longer);

        let renamed = TraceArena::<u32>::new(["a", "c"]);
        assert_ne!(TraceArena::<u32>::new(["a", "b"]), renamed);
        assert_ne!(TraceArena::<u32>::new(["a"]), TraceArena::new(["a", "b"]));
    }
}
