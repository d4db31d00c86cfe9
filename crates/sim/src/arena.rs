//! The persistent port arenas backing the simulators' hot loops.
//!
//! The seed implementations of both [`crate::LidSimulator::step`] and
//! [`crate::GoldenSimulator::step`] rebuilt nested `Vec<Vec<_>>` scratch
//! structures on **every simulated cycle**, which made heap allocation the
//! dominant cost of the simulators.  The arenas in this module replace them
//! with flat slabs allocated once at construction time and indexed through
//! precomputed per-shell port offsets; the step functions then perform zero
//! heap allocations in steady state.
//!
//! [`PortArena`] is the generic building block: one slot of caller-chosen
//! type per (process, port) pair, sliced per process.  [`WireArena`] composes
//! two of them (sampled input tokens + sampled output stops) for the
//! wire-pipelined kernel; the golden simulator uses a bare
//! `PortArena<Option<V>>` for its delivered input values.
//!
//! Because a validated system description connects every input port to
//! exactly one channel and every output port to exactly one channel (see
//! `SystemBuilder::validate`), each slab slot is overwritten by exactly one
//! channel during every sampling phase — the arenas never need clearing
//! between cycles.

use wp_core::Token;

/// A flat per-cycle port slab: one slot of type `S` per (process, port)
/// pair, stored contiguously and sliced per process through precomputed
/// offsets.
///
/// Built once at simulator construction; every slot is overwritten exactly
/// once per cycle by the sampling phase, so the slab never needs clearing.
#[derive(Debug, Clone)]
pub struct PortArena<S> {
    /// One slot per (process, port) pair, in process-major order.
    slots: Vec<S>,
    /// `offsets[i]..offsets[i + 1]` is process `i`'s slice of `slots`.
    offsets: Vec<usize>,
}

impl<S> PortArena<S> {
    /// Builds the arena for processes with the given per-process port
    /// counts, filling every slot with `fill()`.
    pub fn new<I>(ports: I, mut fill: impl FnMut() -> S) -> Self
    where
        I: IntoIterator<Item = usize>,
    {
        let mut offsets = vec![0];
        for count in ports {
            offsets.push(offsets.last().unwrap() + count);
        }
        let mut slots = Vec::new();
        slots.resize_with(*offsets.last().unwrap(), &mut fill);
        Self { slots, offsets }
    }

    /// Number of processes the arena was laid out for.
    pub fn num_groups(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of port slots across all processes.
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Stores the value sampled for port `port` of process `group` this
    /// cycle.
    #[inline]
    pub fn set(&mut self, group: usize, port: usize, value: S) {
        debug_assert!(port < self.offsets[group + 1] - self.offsets[group]);
        let slot = self.offsets[group] + port;
        self.slots[slot] = value;
    }

    /// The slots of process `group`, in port order.
    #[inline]
    pub fn of(&self, group: usize) -> &[S] {
        &self.slots[self.offsets[group]..self.offsets[group + 1]]
    }
}

/// Flat per-cycle wire state of the wire-pipelined kernel: every shell's
/// sampled input tokens and output stop bits live in two contiguous slabs,
/// sliced per shell through precomputed port offsets.
#[derive(Debug, Clone)]
pub struct WireArena<V> {
    /// Sampled input token of every (shell, input-port) pair.
    inputs: PortArena<Token<V>>,
    /// Sampled stop bit of every (shell, output-port) pair.
    out_stops: PortArena<bool>,
}

impl<V> WireArena<V> {
    /// Builds the arena for shells with the given port counts, given as
    /// `(num_inputs, num_outputs)` pairs in process order.
    pub fn new<I>(ports: I) -> Self
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let (ins, outs): (Vec<usize>, Vec<usize>) = ports.into_iter().unzip();
        Self {
            inputs: PortArena::new(ins, || Token::Void),
            out_stops: PortArena::new(outs, || false),
        }
    }

    /// Number of shells the arena was laid out for.
    pub fn num_shells(&self) -> usize {
        self.inputs.num_groups()
    }

    /// Total number of input-port slots across all shells.
    pub fn num_input_slots(&self) -> usize {
        self.inputs.num_slots()
    }

    /// Stores the token delivered to input port `port` of shell `shell` this
    /// cycle.
    #[inline]
    pub fn set_input(&mut self, shell: usize, port: usize, token: Token<V>) {
        self.inputs.set(shell, port, token);
    }

    /// Stores the stop observed on output port `port` of shell `shell` this
    /// cycle.
    #[inline]
    pub fn set_out_stop(&mut self, shell: usize, port: usize, stop: bool) {
        self.out_stops.set(shell, port, stop);
    }

    /// The input tokens sampled for shell `shell` this cycle, in port order.
    #[inline]
    pub fn inputs_of(&self, shell: usize) -> &[Token<V>] {
        self.inputs.of(shell)
    }

    /// The output stops sampled for shell `shell` this cycle, in port order.
    #[inline]
    pub fn out_stops_of(&self, shell: usize) -> &[bool] {
        self.out_stops.of(shell)
    }
}

/// A flat slab of lane-packed control planes for the bit-parallel kernel
/// ([`crate::LaneLidSimulator`]): one `u64` word per (group, plane) pair,
/// where bit *l* of every word belongs to lane *l*.
///
/// Groups are laid out exactly like [`PortArena`] (contiguous slots sliced
/// through precomputed offsets) but with variable per-group widths: the
/// lane kernel keeps one group per kind of control register (relay-station
/// main, auxiliary and stop registers, output validity, stop registers,
/// queue-occupancy counter bits, halted flags).  Built once at construction
/// and mutated in place, the arena keeps the lane kernel
/// heap-allocation-free in steady state.
#[derive(Debug, Clone)]
pub struct LanePlaneArena {
    /// One `u64` plane per (group, index) pair, in group-major order.
    slots: Vec<u64>,
    /// `offsets[g]..offsets[g + 1]` is group `g`'s slice of `slots`.
    offsets: Vec<usize>,
}

impl LanePlaneArena {
    /// Builds the arena for groups with the given plane counts, with every
    /// plane zeroed.
    pub fn new<I>(planes_per_group: I) -> Self
    where
        I: IntoIterator<Item = usize>,
    {
        let mut offsets = vec![0];
        for count in planes_per_group {
            offsets.push(offsets.last().unwrap() + count);
        }
        let slots = vec![0u64; *offsets.last().unwrap()];
        Self { slots, offsets }
    }

    /// Number of groups the arena was laid out for.
    pub fn num_groups(&self) -> usize {
        self.offsets.len() - 1
    }

    /// One plane of a group.
    #[inline]
    pub fn get(&self, group: usize, plane: usize) -> u64 {
        debug_assert!(plane < self.offsets[group + 1] - self.offsets[group]);
        self.slots[self.offsets[group] + plane]
    }

    /// Every plane of every group as one flat word slice, in group-major
    /// order — the packed control state the lane kernel's period oracle
    /// hashes per cycle.
    #[inline]
    pub fn planes(&self) -> &[u64] {
        &self.slots
    }

    /// Mutable access to every group at once, as `N` disjoint slices in
    /// group order — for a step that updates planes of several groups in
    /// one pass.
    ///
    /// # Panics
    ///
    /// Panics if `N` is not the arena's group count.
    pub fn groups_mut<const N: usize>(&mut self) -> [&mut [u64]; N] {
        assert_eq!(N, self.num_groups(), "arena group count");
        let offsets = &self.offsets;
        let mut rest: &mut [u64] = &mut self.slots;
        std::array::from_fn(|g| {
            let (group, tail) = std::mem::take(&mut rest).split_at_mut(offsets[g + 1] - offsets[g]);
            rest = tail;
            group
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_follow_the_port_layout() {
        // Three shells: (2 in, 1 out), (0 in, 2 out), (1 in, 0 out).
        let mut arena: WireArena<u64> = WireArena::new([(2, 1), (0, 2), (1, 0)]);
        assert_eq!(arena.num_shells(), 3);
        assert_eq!(arena.num_input_slots(), 3);
        arena.set_input(0, 1, Token::Valid(7));
        arena.set_input(2, 0, Token::Valid(9));
        arena.set_out_stop(1, 1, true);

        assert_eq!(arena.inputs_of(0), &[Token::Void, Token::Valid(7)]);
        assert_eq!(arena.inputs_of(1), &[] as &[Token<u64>]);
        assert_eq!(arena.inputs_of(2), &[Token::Valid(9)]);
        assert_eq!(arena.out_stops_of(0), &[false]);
        assert_eq!(arena.out_stops_of(1), &[false, true]);
        assert_eq!(arena.out_stops_of(2), &[] as &[bool]);
    }

    #[test]
    fn generic_arena_slices_follow_the_layout() {
        let mut arena: PortArena<Option<u64>> = PortArena::new([1, 3, 0], || None);
        assert_eq!(arena.num_groups(), 3);
        assert_eq!(arena.num_slots(), 4);
        arena.set(0, 0, Some(1));
        arena.set(1, 2, Some(2));
        assert_eq!(arena.of(0), &[Some(1)]);
        assert_eq!(arena.of(1), &[None, None, Some(2)]);
        assert_eq!(arena.of(2), &[] as &[Option<u64>]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_port_is_rejected_in_debug() {
        let mut arena: WireArena<u64> = WireArena::new([(1, 1)]);
        arena.set_input(0, 1, Token::Valid(1));
    }

    #[test]
    fn lane_plane_arena_slices_follow_the_layout() {
        let mut arena = LanePlaneArena::new([2, 0, 3]);
        assert_eq!(arena.num_groups(), 3);
        let [first, empty, last] = arena.groups_mut();
        assert_eq!((first.len(), empty.len(), last.len()), (2, 0, 3));
        first[1] = 0xFF;
        last[0] = 7;
        assert_eq!(arena.planes(), &[0, 0xFF, 7, 0, 0]);
        assert_eq!(arena.get(0, 1), 0xFF);
        assert_eq!(arena.get(2, 0), 7);
    }
}
