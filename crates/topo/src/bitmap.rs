//! CPU sets represented as growable bitmaps.
//!
//! This is the equivalent of `hwloc_bitmap_t` in the HWLOC library: a set of
//! non-negative integers (processing-unit indices) with union, inclusion
//! tests and iteration — the operations the topology tree and the binders use.
//!
//! The representation is a vector of 64-bit words; index `i` is stored in
//! word `i / 64`, bit `i % 64`.  No operation clears a bit, so the last word is
//! never zero and two bitmaps representing the same set always compare equal.

use std::fmt;

const BITS_PER_WORD: usize = 64;

/// A set of processing-unit indices (the HWLOC "cpuset"/"bitmap" equivalent).
///
/// `CpuSet` is an ordinary value type: cloning it copies the underlying
/// words, and equality is structural (two sets are equal iff they contain
/// exactly the same indices).
///
/// # Examples
///
/// ```
/// use orwl_topo::bitmap::CpuSet;
///
/// let a = CpuSet::from_indices([0, 5]);
/// let b = CpuSet::from_indices(0..4);
/// assert_eq!(a.or(&b).weight(), 5);
/// assert_eq!(format!("{}", b), "0-3");
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct CpuSet {
    words: Vec<u64>,
}

impl CpuSet {
    /// Creates an empty set.
    pub(crate) fn new() -> Self {
        CpuSet { words: Vec::new() }
    }

    /// Creates a set containing exactly the indices of `iter`.
    pub fn from_indices<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut s = CpuSet::new();
        for i in iter {
            s.set(i);
        }
        s
    }

    /// Creates a set containing the single index `idx`.
    pub fn singleton(idx: usize) -> Self {
        let mut s = CpuSet::new();
        s.set(idx);
        s
    }

    /// Returns `true` when no index is present.
    pub(crate) fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of indices contained in the set.
    pub fn weight(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Adds `idx` to the set.
    pub(crate) fn set(&mut self, idx: usize) {
        let word = idx / BITS_PER_WORD;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1u64 << (idx % BITS_PER_WORD);
    }

    /// Tests whether `idx` is in the set.
    pub fn is_set(&self, idx: usize) -> bool {
        let word = idx / BITS_PER_WORD;
        word < self.words.len() && (self.words[word] >> (idx % BITS_PER_WORD)) & 1 == 1
    }

    /// Smallest index in the set, or `None` if empty.
    pub fn first(&self) -> Option<usize> {
        for (wi, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some(wi * BITS_PER_WORD + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Set union, returning a new set.
    pub fn or(&self, other: &CpuSet) -> CpuSet {
        let n = self.words.len().max(other.words.len());
        let mut words = vec![0u64; n];
        for (i, w) in words.iter_mut().enumerate() {
            let a = self.words.get(i).copied().unwrap_or(0);
            let b = other.words.get(i).copied().unwrap_or(0);
            *w = a | b;
        }
        CpuSet { words }
    }

    /// In-place union.
    pub(crate) fn or_assign(&mut self, other: &CpuSet) {
        *self = self.or(other);
    }

    /// Tests whether every index of `self` is also in `other`.
    pub fn is_subset_of(&self, other: &CpuSet) -> bool {
        for (i, &w) in self.words.iter().enumerate() {
            let b = other.words.get(i).copied().unwrap_or(0);
            if w & !b != 0 {
                return false;
            }
        }
        true
    }

    /// Iterates over the contained indices in increasing order.
    pub(crate) fn iter(&self) -> CpuSetIter<'_> {
        CpuSetIter { set: self, word: 0, mask: self.words.first().copied().unwrap_or(0) }
    }

    /// Collects the contained indices into a vector, in increasing order.
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }

    /// Index of the `n`-th (0-based) set bit, or `None` when `n >= weight()`.
    pub fn nth(&self, n: usize) -> Option<usize> {
        self.iter().nth(n)
    }
}

impl FromIterator<usize> for CpuSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        CpuSet::from_indices(iter)
    }
}

/// Iterator over the indices of a [`CpuSet`] in increasing order.
pub(crate) struct CpuSetIter<'a> {
    set: &'a CpuSet,
    word: usize,
    mask: u64,
}

impl Iterator for CpuSetIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.mask != 0 {
                let bit = self.mask.trailing_zeros() as usize;
                self.mask &= self.mask - 1;
                return Some(self.word * BITS_PER_WORD + bit);
            }
            self.word += 1;
            if self.word >= self.set.words.len() {
                return None;
            }
            self.mask = self.set.words[self.word];
        }
    }
}

impl fmt::Display for CpuSet {
    /// Formats as a comma-separated list of indices and inclusive ranges,
    /// HWLOC "list" style: `0-3,8,12-15`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        let mut iter = self.iter().peekable();
        while let Some(start) = iter.next() {
            let mut end = start;
            while iter.peek() == Some(&(end + 1)) {
                end = iter.next().unwrap();
            }
            if !first {
                write!(f, ",")?;
            }
            first = false;
            if end == start {
                write!(f, "{start}")?;
            } else {
                write!(f, "{start}-{end}")?;
            }
        }
        Ok(())
    }
}

impl fmt::Debug for CpuSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CpuSet{{{self}}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_has_no_members() {
        let s = CpuSet::new();
        assert!(s.is_empty());
        assert_eq!(s.weight(), 0);
        assert_eq!(s.first(), None);
        assert!(!s.is_set(0));
        assert_eq!(s.to_vec(), Vec::<usize>::new());
    }

    #[test]
    fn set_marks_members_across_words() {
        let mut s = CpuSet::new();
        s.set(3);
        s.set(70);
        assert!(s.is_set(3));
        assert!(s.is_set(70));
        assert!(!s.is_set(4));
        assert_eq!(s.weight(), 2);
    }

    #[test]
    fn display_lists_indices_and_ranges() {
        let s = CpuSet::from_indices(0..8);
        assert_eq!(s.weight(), 8);
        assert_eq!(format!("{s}"), "0-7");
        let t = CpuSet::from_indices([0, 1, 2, 5, 9, 10]);
        assert_eq!(format!("{t}"), "0-2,5,9-10");
        assert_eq!(format!("{}", CpuSet::new()), "");
    }

    #[test]
    fn union_and_inclusion() {
        let a = CpuSet::from_indices(0..10);
        let b = CpuSet::from_indices(5..15);
        assert_eq!(a.or(&b), CpuSet::from_indices(0..15));
        assert!(CpuSet::from_indices(2..4).is_subset_of(&a));
        assert!(!b.is_subset_of(&a));
        assert!(CpuSet::new().is_subset_of(&a));
    }

    #[test]
    fn first_and_nth_across_word_boundaries() {
        let s = CpuSet::from_indices([63, 64, 65, 200]);
        assert_eq!(s.first(), Some(63));
        assert_eq!(s.nth(0), Some(63));
        assert_eq!(s.nth(2), Some(65));
        assert_eq!(s.nth(3), Some(200));
        assert_eq!(s.nth(4), None);
    }

    #[test]
    fn singleton_and_from_iterator() {
        let s = CpuSet::singleton(42);
        assert_eq!(s.to_vec(), vec![42]);
        let t: CpuSet = [1usize, 2, 3].into_iter().collect();
        assert_eq!(t.weight(), 3);
    }
}
