//! Fixed-capacity bitset over row indices.
//!
//! Item covers (the sets `D_α`) and itemset supports are intersections of
//! row sets; a word-packed bitset makes those intersections cache-friendly
//! and branch-free.

/// A fixed-length bitset over `0..len` row indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitset {
    words: Vec<u64>,
    len: usize,
}

impl Bitset {
    /// Creates an all-zero bitset of capacity `len`.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Creates an all-ones bitset of capacity `len`.
    pub fn all_set(len: usize) -> Self {
        let mut b = Self {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        b.clear_tail();
        b
    }

    /// Zeroes any bits beyond `len` in the last word.
    fn clear_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Capacity (number of addressable bits).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the capacity is zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    /// Panics when `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clears bit `i`.
    ///
    /// # Panics
    /// Panics when `i >= len`.
    #[inline]
    pub fn unset(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Whether bit `i` is set.
    ///
    /// # Panics
    /// Panics when `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `self ∩ other` as a new bitset.
    ///
    /// # Panics
    /// Panics on capacity mismatch.
    pub fn and(&self, other: &Bitset) -> Bitset {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        Bitset {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & b)
                .collect(),
            len: self.len,
        }
    }

    /// In-place `self &= other`.
    ///
    /// # Panics
    /// Panics on capacity mismatch.
    pub fn and_assign(&mut self, other: &Bitset) {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// The backing word slice (least-significant bit of `words()[0]` is row
    /// 0; bits beyond `len` in the last word are always zero).
    ///
    /// This is the layout the word-level statistics kernels
    /// (`hdx_stats::OutcomePlanes`) consume.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable access to the backing word slice, for fused kernels that
    /// intersect covers and accumulate statistics in one cache-hot pass
    /// (`hdx_stats::OutcomePlanes::accum_assign_pair`). The caller must
    /// preserve the layout invariant: bits at or beyond `len` in the last
    /// word stay zero. Writing the AND of two well-formed covers (the only
    /// use) preserves it automatically.
    #[inline]
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Overwrites `self` with `a ∩ b` — the allocation-free counterpart of
    /// [`Bitset::and`] for reusable scratch buffers.
    ///
    /// # Panics
    /// Panics on any capacity mismatch among `self`, `a`, `b`.
    pub fn assign_and(&mut self, a: &Bitset, b: &Bitset) {
        assert_eq!(self.len, a.len, "bitset capacity mismatch");
        assert_eq!(a.len, b.len, "bitset capacity mismatch");
        for (dst, (x, y)) in self.words.iter_mut().zip(a.words.iter().zip(&b.words)) {
            *dst = x & y;
        }
    }

    /// In-place `self |= other`.
    ///
    /// # Panics
    /// Panics on capacity mismatch.
    pub fn or_assign(&mut self, other: &Bitset) {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// `|c₀ ∩ c₁ ∩ … ∩ cₖ|` over any number of covers without materialising
    /// the intersection — the count-first pruning primitive for level-wise
    /// candidates. Returns 0 for an empty list.
    ///
    /// # Panics
    /// Panics on any capacity mismatch among the covers.
    pub fn intersection_count(covers: &[&Bitset]) -> usize {
        let Some((first, rest)) = covers.split_first() else {
            return 0;
        };
        for c in rest {
            assert_eq!(first.len, c.len, "bitset capacity mismatch");
        }
        let mut count = 0usize;
        for (i, &w) in first.words.iter().enumerate() {
            let mut acc = w;
            for c in rest {
                acc &= c.words[i];
            }
            count += acc.count_ones() as usize;
        }
        count
    }

    /// Iterates over the indices of set bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
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

    /// Builds a bitset from row indices.
    ///
    /// # Panics
    /// Panics when an index exceeds the capacity.
    pub fn from_indices(len: usize, indices: impl IntoIterator<Item = usize>) -> Self {
        let mut b = Bitset::new(len);
        for i in indices {
            b.set(i);
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_unset() {
        let mut b = Bitset::new(130);
        assert!(!b.get(0));
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert_eq!(b.count(), 3);
        b.unset(64);
        assert!(!b.get(64));
        assert_eq!(b.count(), 2);
    }

    #[test]
    fn all_set_respects_tail() {
        let b = Bitset::all_set(70);
        assert_eq!(b.count(), 70);
        assert!(b.get(69));
        let exact = Bitset::all_set(128);
        assert_eq!(exact.count(), 128);
        let empty = Bitset::all_set(0);
        assert_eq!(empty.count(), 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn intersection_variants_agree() {
        let a = Bitset::from_indices(200, [1, 5, 64, 65, 150, 199]);
        let b = Bitset::from_indices(200, [5, 64, 150, 151]);
        let c = a.and(&b);
        assert_eq!(c.iter_ones().collect::<Vec<_>>(), vec![5, 64, 150]);
        assert_eq!(Bitset::intersection_count(&[&a, &b]), 3);
        let mut d = a.clone();
        d.and_assign(&b);
        assert_eq!(d, c);
    }

    #[test]
    fn word_level_ops_match_bit_level() {
        let a = Bitset::from_indices(200, [1, 5, 64, 65, 150, 199]);
        let b = Bitset::from_indices(200, [5, 64, 150, 151, 199]);
        let c = Bitset::from_indices(200, [5, 150, 151, 199]);
        // assign_and == and
        let mut scratch = Bitset::new(200);
        scratch.assign_and(&a, &b);
        assert_eq!(scratch, a.and(&b));
        // or_assign
        let mut u = a.clone();
        u.or_assign(&b);
        let expected: Vec<usize> = vec![1, 5, 64, 65, 150, 151, 199];
        assert_eq!(u.iter_ones().collect::<Vec<_>>(), expected);
        // intersection_count over 1, 2, 3 covers
        assert_eq!(Bitset::intersection_count(&[]), 0);
        assert_eq!(Bitset::intersection_count(&[&a]), a.count());
        assert_eq!(Bitset::intersection_count(&[&a, &b]), a.and(&b).count());
        assert_eq!(
            Bitset::intersection_count(&[&a, &b, &c]),
            a.and(&b).and(&c).count()
        );
        // words() exposes the packed layout with a clean tail
        let tail = Bitset::all_set(70);
        assert_eq!(tail.words().len(), 2);
        assert_eq!(tail.words()[1].count_ones(), 6);
    }

    #[test]
    fn iter_ones_ascending() {
        let b = Bitset::from_indices(300, [299, 0, 63, 64, 128]);
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![0, 63, 64, 128, 299]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_set_panics() {
        Bitset::new(10).set(10);
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn mismatched_and_panics() {
        let _ = Bitset::new(10).and(&Bitset::new(11));
    }
}
