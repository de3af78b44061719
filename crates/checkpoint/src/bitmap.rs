//! Dirty-bitmap scanning strategies (§4.1, Optimization 3).
//!
//! Remus walks the dirty bitmap **bit by bit** every checkpoint. CRIMES
//! exploits the observation that most memory is clean and dirty pages
//! cluster, so it scans **word at a time** and only descends into non-zero
//! words. Both strategies are real implementations over the same backing
//! words; Figure 6b regenerates the paper's cost-vs-VM-size comparison from
//! them.

use crimes_vm::dirty::BITS_PER_WORD;
use crimes_vm::{DirtyBitmap, Pfn};

/// Which scanning algorithm to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BitmapScan {
    /// Remus-style: test every bit individually.
    BitByBit,
    /// CRIMES-style: skip clean words at machine-word granularity.
    #[default]
    WordWise,
}

impl BitmapScan {
    /// Collect the dirty PFNs using this strategy, in a new list.
    pub fn scan(self, bitmap: &DirtyBitmap) -> Vec<Pfn> {
        let mut dirty = Vec::new();
        self.scan_into(bitmap, &mut dirty);
        dirty
    }

    /// Replace `dirty`'s contents with the dirty PFNs, ascending. With
    /// room for every page of the bitmap, as the checkpointer's list has,
    /// nothing allocates.
    pub fn scan_into(self, bitmap: &DirtyBitmap, dirty: &mut Vec<Pfn>) {
        match self {
            BitmapScan::BitByBit => scan_bit_by_bit(bitmap, dirty),
            BitmapScan::WordWise => scan_wordwise(bitmap, dirty),
        }
    }
}

/// Test every bit position individually, exactly like unmodified Remus;
/// fills `dirty` as [`BitmapScan::scan_into`] does.
pub fn scan_bit_by_bit(bitmap: &DirtyBitmap, dirty: &mut Vec<Pfn>) {
    dirty.clear();
    let words = bitmap.words();
    let num_pages = bitmap.num_pages();
    for page in 0..num_pages {
        let word = words[page / BITS_PER_WORD];
        // One load + mask per page, deliberately not short-circuiting on
        // zero words: this is the unoptimised baseline.
        if word & (1u64 << (page % BITS_PER_WORD)) != 0 {
            dirty.push(Pfn(page as u64));
        }
    }
}

/// Skip clean machine words; only expand bits inside non-zero words;
/// fills `dirty` as [`BitmapScan::scan_into`] does.
pub fn scan_wordwise(bitmap: &DirtyBitmap, dirty: &mut Vec<Pfn>) {
    dirty.clear();
    let num_pages = bitmap.num_pages();
    for (wi, &word) in bitmap.words().iter().enumerate() {
        if word == 0 {
            continue;
        }
        let mut w = word;
        while w != 0 {
            let bit = w.trailing_zeros() as usize;
            let page = wi * BITS_PER_WORD + bit;
            if page < num_pages {
                dirty.push(Pfn(page as u64));
            }
            w &= w - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crimes_rng::prop::{check, Config, Gen};

    fn bitmap_with(pages: usize, dirty: &[u64]) -> DirtyBitmap {
        let mut bm = DirtyBitmap::new(pages);
        for &p in dirty {
            bm.mark(Pfn(p));
        }
        bm
    }

    #[test]
    fn both_strategies_find_nothing_on_clean_bitmap() {
        let bm = DirtyBitmap::new(10_000);
        assert!(BitmapScan::BitByBit.scan(&bm).is_empty());
        assert!(BitmapScan::WordWise.scan(&bm).is_empty());
    }

    #[test]
    fn both_strategies_agree_on_scattered_pages() {
        let bm = bitmap_with(1000, &[0, 1, 63, 64, 65, 512, 999]);
        let a = BitmapScan::BitByBit.scan(&bm);
        let b = BitmapScan::WordWise.scan(&bm);
        assert_eq!(a, b);
        assert_eq!(a.len(), 7);
    }

    #[test]
    fn results_are_sorted_ascending() {
        let bm = bitmap_with(1000, &[999, 0, 512]);
        let got = BitmapScan::WordWise.scan(&bm);
        let mut sorted = got.clone();
        sorted.sort();
        assert_eq!(got, sorted);
    }

    #[test]
    fn all_dirty_bitmap_is_fully_reported() {
        let pages = 257; // deliberately not word aligned
        let all: Vec<u64> = (0..pages as u64).collect();
        let bm = bitmap_with(pages, &all);
        assert_eq!(BitmapScan::BitByBit.scan(&bm).len(), pages);
        assert_eq!(BitmapScan::WordWise.scan(&bm).len(), pages);
    }

    #[test]
    fn scan_into_replaces_the_list_within_its_capacity() {
        let bm = bitmap_with(500, &[3, 100, 499]);
        for strategy in [BitmapScan::BitByBit, BitmapScan::WordWise] {
            let mut dirty = Vec::with_capacity(500);
            dirty.push(Pfn(7));
            let room = dirty.as_ptr();
            strategy.scan_into(&bm, &mut dirty);
            assert_eq!(dirty, [Pfn(3), Pfn(100), Pfn(499)], "{strategy:?}");
            assert_eq!(dirty.as_ptr(), room, "{strategy:?} reused the list");
        }
    }

    #[test]
    fn default_strategy_is_wordwise() {
        assert_eq!(BitmapScan::default(), BitmapScan::WordWise);
    }

    /// The two scanners are observationally identical on any bitmap.
    #[test]
    fn scanners_are_equivalent() {
        check("scanners_are_equivalent", Config::default(), |g: &mut Gen| {
            let pages = g.int(1usize..4096);
            let dirty = g.vec(0..200, |g| g.int(0u64..4096));
            let mut bm = DirtyBitmap::new(pages);
            for p in dirty {
                if (p as usize) < pages {
                    bm.mark(Pfn(p));
                }
            }
            assert_eq!(BitmapScan::BitByBit.scan(&bm), BitmapScan::WordWise.scan(&bm));
        });
    }

    /// Scan output matches the bitmap's own iterator and count.
    #[test]
    fn scan_matches_bitmap_iter() {
        check("scan_matches_bitmap_iter", Config::default(), |g: &mut Gen| {
            let dirty = g.vec(0..100, |g| g.int(0u64..2048));
            let mut bm = DirtyBitmap::new(2048);
            for p in &dirty {
                bm.mark(Pfn(*p));
            }
            let scanned = BitmapScan::WordWise.scan(&bm);
            let from_iter: Vec<Pfn> = bm.iter().collect();
            assert_eq!(&scanned, &from_iter);
            assert_eq!(scanned.len(), bm.count());
        });
    }
}
