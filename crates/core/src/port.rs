//! Input/output port identifiers and port sets.
//!
//! Processes address their channels through small integer port indices.  The
//! oracle of the paper ("which inputs are needed for the next computation")
//! is represented as a [`PortSet`]: a compact bit set over the input ports of
//! a process.

use std::fmt;

/// Maximum number of ports representable in a [`PortSet`].
pub const MAX_PORTS: usize = 64;

/// A set of port indices, used by the oracle to declare which inputs the next
/// firing of a process will read.
///
/// # Examples
///
/// ```
/// use wp_core::PortSet;
///
/// let mut set = PortSet::empty();
/// set.insert(0);
/// set.insert(2);
/// assert!(set.contains(0));
/// assert!(!set.contains(1));
/// assert_eq!(set.len(), 2);
///
/// let all = PortSet::all(3);
/// assert_eq!(all.iter().collect::<Vec<_>>(), vec![0, 1, 2]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PortSet {
    bits: u64,
}

impl PortSet {
    /// The empty set: the next firing reads no inputs.
    #[inline]
    pub fn empty() -> Self {
        Self { bits: 0 }
    }

    /// The full set over the first `n` ports: strict (Carloni-style)
    /// synchronisation, every input is required.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    #[inline]
    pub fn all(n: usize) -> Self {
        assert!(n <= MAX_PORTS, "PortSet supports at most {MAX_PORTS} ports");
        if n == MAX_PORTS {
            Self { bits: u64::MAX }
        } else {
            Self {
                bits: (1u64 << n) - 1,
            }
        }
    }

    /// Builds a set from an iterator of port indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= 64`.
    pub fn from_ports<I: IntoIterator<Item = usize>>(ports: I) -> Self {
        let mut set = Self::empty();
        for p in ports {
            set.insert(p);
        }
        set
    }

    /// Convenience constructor for a single-port set.
    #[inline]
    pub fn single(port: usize) -> Self {
        let mut set = Self::empty();
        set.insert(port);
        set
    }

    /// Adds a port to the set.
    ///
    /// # Panics
    ///
    /// Panics if `port >= 64`.
    #[inline]
    pub fn insert(&mut self, port: usize) {
        assert!(port < MAX_PORTS, "port index {port} out of range");
        self.bits |= 1u64 << port;
    }

    /// Removes a port from the set.
    pub fn remove(&mut self, port: usize) {
        if port < MAX_PORTS {
            self.bits &= !(1u64 << port);
        }
    }

    /// Returns `true` when the port belongs to the set.
    #[inline]
    pub fn contains(&self, port: usize) -> bool {
        port < MAX_PORTS && (self.bits >> port) & 1 == 1
    }

    /// Number of ports in the set.
    pub fn len(&self) -> usize {
        self.bits.count_ones() as usize
    }

    /// Returns `true` when the set contains no ports.
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// Set union.
    pub fn union(&self, other: &PortSet) -> PortSet {
        PortSet {
            bits: self.bits | other.bits,
        }
    }

    /// Set intersection.
    pub fn intersection(&self, other: &PortSet) -> PortSet {
        PortSet {
            bits: self.bits & other.bits,
        }
    }

    /// Returns `true` when every port of `self` is also in `other`.
    pub fn is_subset_of(&self, other: &PortSet) -> bool {
        self.bits & !other.bits == 0
    }

    /// Iterates over the port indices in ascending order, visiting only
    /// the members (one step per set bit, not one per possible port).
    #[inline]
    pub fn iter(&self) -> Iter {
        Iter { bits: self.bits }
    }
}

impl FromIterator<usize> for PortSet {
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        Self::from_ports(iter)
    }
}

impl Extend<usize> for PortSet {
    fn extend<T: IntoIterator<Item = usize>>(&mut self, iter: T) {
        for p in iter {
            self.insert(p);
        }
    }
}

impl fmt::Display for PortSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, p) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

/// Iterator over the port indices of a [`PortSet`], produced by
/// [`PortSet::iter`].  It holds the members not yet visited and pops the
/// lowest one per step, so a walk costs one step per member.
#[derive(Debug, Clone)]
pub struct Iter {
    bits: u64,
}

impl Iterator for Iter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.bits == 0 {
            return None;
        }
        let idx = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(idx)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.bits.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Iter {}

impl IntoIterator for PortSet {
    type Item = usize;
    type IntoIter = Iter;

    fn into_iter(self) -> Iter {
        self.iter()
    }
}

impl IntoIterator for &PortSet {
    type Item = usize;
    type IntoIter = Iter;

    fn into_iter(self) -> Iter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_all() {
        assert!(PortSet::empty().is_empty());
        let all = PortSet::all(5);
        assert_eq!(all.len(), 5);
        for p in 0..5 {
            assert!(all.contains(p));
        }
        assert!(!all.contains(5));
    }

    #[test]
    fn all_sixty_four_ports() {
        let all = PortSet::all(64);
        assert_eq!(all.len(), 64);
        assert!(all.contains(63));
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = PortSet::empty();
        s.insert(3);
        s.insert(10);
        assert!(s.contains(3));
        assert!(s.contains(10));
        assert!(!s.contains(4));
        s.remove(3);
        assert!(!s.contains(3));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn union_and_intersection() {
        let a = PortSet::from_ports([0, 1, 2]);
        let b = PortSet::from_ports([2, 3]);
        assert_eq!(a.union(&b), PortSet::from_ports([0, 1, 2, 3]));
        assert_eq!(a.intersection(&b), PortSet::single(2));
    }

    #[test]
    fn subset_relation() {
        let a = PortSet::from_ports([1, 2]);
        let b = PortSet::all(4);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert!(PortSet::empty().is_subset_of(&a));
    }

    #[test]
    fn iteration_is_sorted() {
        let s = PortSet::from_ports([7, 1, 3]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 3, 7]);
        assert_eq!((&s).into_iter().collect::<Vec<_>>(), vec![1, 3, 7]);
    }

    #[test]
    fn collect_from_iterator() {
        let s: PortSet = [0usize, 2, 4].into_iter().collect();
        assert_eq!(s.len(), 3);
        let mut t = PortSet::empty();
        t.extend([5usize, 6]);
        assert!(t.contains(6));
    }

    #[test]
    fn display_lists_ports() {
        let s = PortSet::from_ports([0, 2]);
        assert_eq!(format!("{s}"), "{0,2}");
    }

    #[test]
    #[should_panic]
    fn insert_out_of_range_panics() {
        let mut s = PortSet::empty();
        s.insert(64);
    }
}
