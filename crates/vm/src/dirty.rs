//! Dirty-page bitmap, the structure Remus (and CRIMES) consult at every
//! checkpoint to decide which pages must be propagated to the backup.
//!
//! One bit per guest page, packed into `u64` words. The two scanning
//! strategies the paper compares (bit-by-bit vs word-at-a-time, §4.1
//! "Optimization 3") live in `crimes-checkpoint`; this type only maintains
//! the bits and hands out word-level access so both strategies operate on
//! identical data.

use crate::addr::Pfn;

/// Bits-per-word of the bitmap backing store.
pub const BITS_PER_WORD: usize = 64;

/// A dirty bitmap covering `num_pages` guest pages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirtyBitmap {
    words: Vec<u64>,
    num_pages: usize,
}

impl DirtyBitmap {
    /// Create an all-clean bitmap covering `num_pages` pages.
    pub fn new(num_pages: usize) -> Self {
        DirtyBitmap {
            words: vec![0; num_pages.div_ceil(BITS_PER_WORD)],
            num_pages,
        }
    }

    /// Number of pages this bitmap tracks.
    pub fn num_pages(&self) -> usize {
        self.num_pages
    }

    /// Mark a page dirty.
    ///
    /// # Panics
    ///
    /// Panics if `pfn` is outside the tracked range.
    pub fn mark(&mut self, pfn: Pfn) {
        let idx = self.index_of(pfn);
        self.words[idx / BITS_PER_WORD] |= 1u64 << (idx % BITS_PER_WORD);
    }

    /// `true` if the page has been dirtied since the last [`clear`].
    ///
    /// # Panics
    ///
    /// Panics if `pfn` is outside the tracked range.
    ///
    /// [`clear`]: DirtyBitmap::clear
    pub fn is_dirty(&self, pfn: Pfn) -> bool {
        let idx = self.index_of(pfn);
        self.words[idx / BITS_PER_WORD] & (1u64 << (idx % BITS_PER_WORD)) != 0
    }

    /// Reset every bit to clean. Called after each checkpoint commits.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Count of dirty pages (population count over all words).
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` when no page is dirty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The raw backing words, for scanner implementations.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Move the current contents into `into` (whatever it held is
    /// dropped), leaving this bitmap clean. Used by the checkpointer to
    /// grab the epoch's dirty set: the two bitmaps swap their words, so
    /// once `into` has this bitmap's size nothing is allocated.
    pub fn take(&mut self, into: &mut DirtyBitmap) {
        into.words.resize(self.words.len(), 0);
        into.num_pages = self.num_pages;
        std::mem::swap(&mut self.words, &mut into.words);
        self.clear();
    }

    /// Merge another bitmap into this one (`self |= other`).
    ///
    /// # Panics
    ///
    /// Panics if the bitmaps cover a different number of pages.
    pub fn union_with(&mut self, other: &DirtyBitmap) {
        assert_eq!(
            self.num_pages, other.num_pages,
            "cannot union bitmaps of different sizes"
        );
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// Iterate over dirty PFNs in ascending order.
    pub fn iter(&self) -> DirtyIter<'_> {
        DirtyIter {
            bitmap: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    fn index_of(&self, pfn: Pfn) -> usize {
        let idx = pfn.0 as usize;
        assert!(
            idx < self.num_pages,
            "pfn {pfn} out of range for bitmap of {} pages",
            self.num_pages
        );
        idx
    }
}

/// Iterator over dirty PFNs, produced by [`DirtyBitmap::iter`].
#[derive(Debug)]
pub struct DirtyIter<'a> {
    bitmap: &'a DirtyBitmap,
    word_idx: usize,
    current: u64,
}

impl Iterator for DirtyIter<'_> {
    type Item = Pfn;

    fn next(&mut self) -> Option<Pfn> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(Pfn((self.word_idx * BITS_PER_WORD + bit) as u64));
            }
            self.word_idx += 1;
            if self.word_idx >= self.bitmap.words.len() {
                return None;
            }
            self.current = self.bitmap.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_bitmap_is_clean() {
        let bm = DirtyBitmap::new(1000);
        assert!(bm.is_empty());
        assert_eq!(bm.count(), 0);
        assert_eq!(bm.num_pages(), 1000);
    }

    #[test]
    fn mark_and_query() {
        let mut bm = DirtyBitmap::new(200);
        bm.mark(Pfn(0));
        bm.mark(Pfn(63));
        bm.mark(Pfn(64));
        bm.mark(Pfn(199));
        assert!(bm.is_dirty(Pfn(0)));
        assert!(bm.is_dirty(Pfn(63)));
        assert!(bm.is_dirty(Pfn(64)));
        assert!(bm.is_dirty(Pfn(199)));
        assert!(!bm.is_dirty(Pfn(1)));
        assert_eq!(bm.count(), 4);
    }

    #[test]
    fn mark_is_idempotent() {
        let mut bm = DirtyBitmap::new(10);
        bm.mark(Pfn(3));
        bm.mark(Pfn(3));
        assert_eq!(bm.count(), 1);
    }

    #[test]
    fn clear_resets_everything() {
        let mut bm = DirtyBitmap::new(100);
        for i in 0..100 {
            bm.mark(Pfn(i));
        }
        bm.clear();
        assert!(bm.is_empty());
    }

    #[test]
    fn take_leaves_clean_and_returns_old() {
        let mut bm = DirtyBitmap::new(100);
        bm.mark(Pfn(42));
        let mut taken = DirtyBitmap::new(0);
        bm.take(&mut taken);
        assert!(taken.is_dirty(Pfn(42)));
        assert_eq!(taken.num_pages(), 100);
        assert!(bm.is_empty());
        bm.mark(Pfn(7));
        bm.take(&mut taken);
        assert_eq!(taken.iter().collect::<Vec<_>>(), [Pfn(7)], "the old contents are gone");
        assert!(bm.is_empty());
    }

    #[test]
    fn iter_yields_ascending_pfns() {
        let mut bm = DirtyBitmap::new(300);
        for &p in &[5u64, 64, 65, 128, 299] {
            bm.mark(Pfn(p));
        }
        let got: Vec<u64> = bm.iter().map(|p| p.0).collect();
        assert_eq!(got, vec![5, 64, 65, 128, 299]);
    }

    #[test]
    fn iter_on_empty_bitmap_is_empty() {
        let bm = DirtyBitmap::new(64);
        assert_eq!(bm.iter().count(), 0);
    }

    #[test]
    fn union_combines_bits() {
        let mut a = DirtyBitmap::new(128);
        let mut b = DirtyBitmap::new(128);
        a.mark(Pfn(1));
        b.mark(Pfn(2));
        a.union_with(&b);
        assert!(a.is_dirty(Pfn(1)));
        assert!(a.is_dirty(Pfn(2)));
        assert_eq!(a.count(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_mark_panics() {
        let mut bm = DirtyBitmap::new(10);
        bm.mark(Pfn(10));
    }

    #[test]
    #[should_panic(expected = "different sizes")]
    fn union_of_mismatched_sizes_panics() {
        let mut a = DirtyBitmap::new(10);
        let b = DirtyBitmap::new(20);
        a.union_with(&b);
    }

    #[test]
    fn non_multiple_of_word_size_covers_tail() {
        let mut bm = DirtyBitmap::new(65);
        bm.mark(Pfn(64));
        assert!(bm.is_dirty(Pfn(64)));
        assert_eq!(bm.iter().map(|p| p.0).collect::<Vec<_>>(), vec![64]);
    }
}
