//! A fixed-capacity bitset for dense node-set bookkeeping.

use std::fmt;

/// A fixed-capacity set of small integers backed by `u64` words.
///
/// The RFH heuristic repeatedly asks "which posts are descendants of `p`?"
/// for every post; storing those sets as bitsets makes the recomputation
/// after each trimming step `O(N·E/64)` instead of `O(N·E)`.
///
/// # Examples
///
/// ```
/// use wrsn_graph::FixedBitSet;
///
/// let mut a = FixedBitSet::new(100);
/// a.insert(3);
/// a.insert(64);
/// let mut b = FixedBitSet::new(100);
/// b.insert(64);
/// b.insert(99);
/// a.union_with(&b);
/// assert_eq!(a.ones().collect::<Vec<_>>(), vec![3, 64, 99]);
/// assert_eq!(a.count_ones(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixedBitSet {
    len: usize,
    words: Vec<u64>,
}

impl FixedBitSet {
    /// Creates an empty set with capacity for values `0..len`.
    #[must_use]
    pub fn new(len: usize) -> Self {
        FixedBitSet {
            len,
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// A set over `0..len` holding exactly the bits of `words`.
    pub(crate) fn from_words(len: usize, words: Vec<u64>) -> Self {
        debug_assert_eq!(words.len(), len.div_ceil(64));
        FixedBitSet { len, words }
    }

    /// The capacity (one past the largest storable value).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no bit is set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Inserts `i` into the set.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn insert(&mut self, i: usize) {
        assert!(
            i < self.len,
            "bit {i} out of bounds for capacity {}",
            self.len
        );
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Removes `i` from the set.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn remove(&mut self, i: usize) {
        assert!(
            i < self.len,
            "bit {i} out of bounds for capacity {}",
            self.len
        );
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Returns `true` if `i` is in the set.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn contains(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit {i} out of bounds for capacity {}",
            self.len
        );
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// In-place union with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn union_with(&mut self, other: &FixedBitSet) {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// Clears all bits.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Number of set bits.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over set bits in increasing order.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        ones_in(&self.words)
    }
}

/// The set bits of `words` (bit `i` of word `k` is value `64k + i`) in
/// increasing order.
pub(crate) fn ones_in(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(wi, &w)| {
        let mut bits = w;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(wi * 64 + b)
            }
        })
    })
}

impl fmt::Display for FixedBitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (k, i) in self.ones().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{i}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<usize> for FixedBitSet {
    /// Collects indices into a set sized to hold the largest of them.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let len = items.iter().max().map_or(0, |m| m + 1);
        let mut s = FixedBitSet::new(len);
        for i in items {
            s.insert(i);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = FixedBitSet::new(130);
        assert!(s.is_empty());
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(129);
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1) && !s.contains(128));
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.count_ones(), 3);
    }

    #[test]
    fn ones_iterates_in_order() {
        let mut s = FixedBitSet::new(200);
        for i in [5, 64, 65, 190] {
            s.insert(i);
        }
        assert_eq!(s.ones().collect::<Vec<_>>(), vec![5, 64, 65, 190]);
    }

    #[test]
    fn union() {
        let mut a = FixedBitSet::new(70);
        a.insert(1);
        let mut b = FixedBitSet::new(70);
        b.insert(69);
        a.union_with(&b);
        assert_eq!(a.ones().collect::<Vec<_>>(), vec![1, 69]);
    }

    #[test]
    fn clear_empties() {
        let mut s = FixedBitSet::new(10);
        s.insert(3);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.count_ones(), 0);
    }

    #[test]
    fn double_insert_is_idempotent() {
        let mut s = FixedBitSet::new(10);
        s.insert(4);
        s.insert(4);
        assert_eq!(s.count_ones(), 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_insert_panics() {
        FixedBitSet::new(4).insert(4);
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn union_capacity_mismatch_panics() {
        FixedBitSet::new(4).union_with(&FixedBitSet::new(5));
    }

    #[test]
    fn from_iterator() {
        let s: FixedBitSet = vec![2usize, 7, 2].into_iter().collect();
        assert_eq!(s.len(), 8);
        assert_eq!(s.ones().collect::<Vec<_>>(), vec![2, 7]);
        let empty: FixedBitSet = std::iter::empty::<usize>().collect();
        assert_eq!(empty.len(), 0);
    }

    #[test]
    fn display_lists_elements() {
        let mut s = FixedBitSet::new(8);
        s.insert(1);
        s.insert(5);
        assert_eq!(format!("{s}"), "{1, 5}");
        assert_eq!(format!("{}", FixedBitSet::new(4)), "{}");
    }

    #[test]
    fn zero_capacity() {
        let s = FixedBitSet::new(0);
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
        assert_eq!(s.ones().count(), 0);
    }
}
