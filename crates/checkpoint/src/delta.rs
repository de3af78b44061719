//! Word-wise delta/zero-page encoding for the content-aware copy path.
//!
//! The copy path's remaining cost is *how many bytes move*, not how many
//! threads move them: the fig7 web workload dirties a handful of words
//! per page, yet the raw pipeline ciphers and streams the full 4 KiB.
//! This module compares each dirty page against the backup's current
//! generation word-wise and describes the difference compactly:
//!
//! * an all-zero page becomes a one-word marker,
//! * a lightly-churned page becomes a run-length list of changed words,
//! * a heavily-churned page (changed words past the caller's threshold)
//!   falls back to the full page — the delta would cost more than it
//!   saves.
//!
//! One pass does all the comparing. `page_kernel` loads the old and
//! new page as `u64` words once and yields the facts (zero / changed
//! words / runs, by OR-accumulate and popcount), a 512-bit changed-word
//! mask, and — on the words it already holds — however many digests of
//! the new page the caller seeded lanes for. Everything else is a thin
//! caller of it. The fused pause window may not allocate: [`scan_page`]
//! is the kernel with no digests, [`wire_len_for`] prices the encoded
//! record from its facts, and the window's socket wire streams its delta
//! records straight from the mask's run walk (`for_each_run`). The
//! out-of-window drain asks for both of its digests in the same pass and
//! then its `encode` materialises the same runs, touching only
//! the changed words; [`encode_page`] is those two steps for callers
//! without a kernel result in hand. [`apply_page`] replays a record
//! against a frame holding the old generation. `apply_page ∘ encode_page`
//! is the identity on the new page for every threshold (the property the
//! test suite pins, against the byte-wise passes the kernel replaced), and
//! it is idempotent — unchanged words are by definition equal in both
//! generations, so re-applying a delta to an already-updated frame is a
//! no-op.
//!
//! The digests the kernel returns are `integrity`'s, computed by its
//! `Lanes` over the full plaintext the backup ends up holding, so image
//! digests are bit-identical whether pages travelled encoded or raw.

use crimes_vm::PAGE_SIZE;

use crate::integrity::Lanes;

/// 8-byte words per page — the unit of comparison and of run extents.
pub const PAGE_WORDS: usize = PAGE_SIZE / 8;

/// Wire cost of one record header word (pfn/kind/extent bookkeeping).
const RECORD_HEADER: usize = 8;

/// One contiguous extent of changed words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaRun {
    /// First changed word (index into the page's 8-byte words).
    pub start_word: u32,
    /// The new bytes for the extent (length is a multiple of 8).
    pub bytes: Vec<u8>,
}

/// How one dirty page travels to the backup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageEncoding {
    /// The page is all zeroes: a one-word marker, no payload.
    Zero,
    /// Run-length delta against the backup's current generation.
    Delta {
        /// Changed-word extents, ascending, non-overlapping.
        runs: Vec<DeltaRun>,
    },
    /// Full page: churn exceeded the threshold, or encoding is off.
    Full,
}

/// Allocation-free content facts about one dirty page versus the
/// backup's current copy — everything the encoder's decision needs, and
/// everything the evidence journal records about the page. The facts
/// are a pure function of the two page images, independent of any
/// encoding knob, which is what keeps journals bit-identical with
/// encoding on or off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PageScan {
    /// The new page is all zeroes.
    pub zero: bool,
    /// Words that differ from the old generation.
    pub changed_words: u32,
    /// Contiguous changed-word extents.
    pub runs: u32,
}

/// 64-word groups per page: the length of a [`WordMask`].
const MASK_WORDS: usize = PAGE_WORDS / 64;

/// One bit per 8-byte word of a page, set where `new` differs from
/// `old`; word `w` is bit `w % 64` of element `w / 64`.
type WordMask = [u64; MASK_WORDS];

/// Everything one pass over a staged page and the backup's copy of its
/// frame yields: the journalled facts, the changed-word mask
/// [`encode`](Self::encode) builds the delta from, and as many digests
/// of the new page as the caller seeded lanes for.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PageKernel<const N: usize> {
    pub(crate) scan: PageScan,
    mask: WordMask,
    /// `lanes[i]` finished over the new page.
    pub(crate) digests: [u64; N],
}

/// The one old-vs-new pass: load both pages as `u64` words once and
/// fold each quad of new words into every seeded digest while the same
/// words are compared against the old generation. The digests equal
/// [`chunk_digest`](crate::integrity::chunk_digest) under the lanes'
/// seed — same lane assignment, same combine, same length fold. `None`
/// unless both inputs are exactly one page. No allocation: the fused
/// pause window calls this through [`scan_page`].
#[inline]
pub(crate) fn page_kernel<const N: usize>(
    old: &[u8],
    new: &[u8],
    mut lanes: [Lanes; N],
) -> Option<PageKernel<N>> {
    if old.len() != PAGE_SIZE || new.len() != PAGE_SIZE {
        return None;
    }
    // words → quads (one per digest lane set) → 16-quad groups (one per
    // mask element): arrays all the way down, so nothing indexes.
    let (old_groups, _) = old.as_chunks::<8>().0.as_chunks::<4>().0.as_chunks::<16>();
    let (new_groups, _) = new.as_chunks::<8>().0.as_chunks::<4>().0.as_chunks::<16>();
    let mut mask: WordMask = [0; MASK_WORDS];
    let mut any_set = 0u64;
    for ((bits, old_group), new_group) in mask.iter_mut().zip(old_groups).zip(new_groups) {
        for (o, n) in old_group.iter().zip(new_group) {
            let [o0, o1, o2, o3] = o.map(u64::from_le_bytes);
            let n = n.map(u64::from_le_bytes);
            for l in &mut lanes {
                l.absorb(n);
            }
            let [n0, n1, n2, n3] = n;
            any_set |= (n0 | n1) | (n2 | n3);
            let quad = u64::from(o0 != n0)
                | u64::from(o1 != n1) << 1
                | u64::from(o2 != n2) << 2
                | u64::from(o3 != n3) << 3;
            // Shift the group's earlier quads down as each new one
            // enters at the top: after 16 quads, quad 0 sits in bits 0–3.
            *bits = (*bits >> 4) | (quad << 60);
        }
    }
    let mut scan = PageScan {
        zero: any_set == 0,
        ..PageScan::default()
    };
    // A run starts at a set bit whose predecessor is clear; `carry` is
    // the previous element's top bit, so a run crossing a 64-word
    // boundary counts once.
    let mut carry = 0u64;
    for &bits in &mask {
        scan.changed_words += bits.count_ones();
        scan.runs += (bits & !((bits << 1) | carry)).count_ones();
        carry = bits >> 63;
    }
    Some(PageKernel {
        scan,
        mask,
        digests: lanes.map(|l| l.finish(PAGE_SIZE)),
    })
}

/// Walk `old` and `new` once, counting changed words and extents and
/// testing for an all-zero page. No allocation — safe to call from the
/// fused pause window. Anything but two whole pages yields a
/// conservative "everything changed" answer rather than a panic.
pub fn scan_page(old: &[u8], new: &[u8]) -> PageScan {
    match page_kernel(old, new, []) {
        Some(kernel) => kernel.scan,
        None => PageScan {
            zero: false,
            changed_words: u32::try_from(new.len().div_ceil(8)).unwrap_or(u32::MAX),
            runs: 1,
        },
    }
}

/// Wire bytes the encoded record would occupy, priced from the facts
/// alone: a zero page is one header word; a delta is a header word plus
/// one word per run plus the changed words; a full page is a header
/// word plus the page. `threshold_words == 0` disables encoding (every
/// page prices as full).
pub fn wire_len_for(scan: &PageScan, threshold_words: usize) -> usize {
    if threshold_words == 0 {
        return RECORD_HEADER + PAGE_SIZE;
    }
    if scan.zero {
        return RECORD_HEADER;
    }
    let changed = scan.changed_words as usize;
    if changed > threshold_words {
        return RECORD_HEADER + PAGE_SIZE;
    }
    RECORD_HEADER + scan.runs as usize * 8 + changed * 8
}

/// Encode `new` against `old` (the backup's current copy of the frame).
/// Returns [`PageEncoding::Full`] when encoding is off
/// (`threshold_words == 0`), when either input is not one whole page,
/// or when the churn exceeds the threshold.
pub fn encode_page(old: &[u8], new: &[u8], threshold_words: usize) -> PageEncoding {
    match page_kernel(old, new, []) {
        Some(kernel) => kernel.encode(new, threshold_words),
        None => PageEncoding::Full,
    }
}

impl<const N: usize> PageKernel<N> {
    /// Walk the changed-word mask as ascending `(start_word, words)`
    /// extents, by trailing zeros; an extent that crosses a 64-word mask
    /// element is reported once. No allocation and no second compare
    /// pass: the fused pause window streams its delta records from this,
    /// and [`encode`](Self::encode) materialises the same extents.
    pub(crate) fn for_each_run(&self, mut f: impl FnMut(usize, usize)) {
        // The extent still growing: `(start_word, words)`.
        let mut open: Option<(usize, usize)> = None;
        for (base, &bits) in (0usize..).step_by(64).zip(&self.mask) {
            let mut left = bits;
            while left != 0 {
                let first = left.trailing_zeros();
                let len = (left >> first).trailing_ones();
                // Clear the extent; it may reach the element's top bit.
                left &= u64::MAX.checked_shl(first + len).unwrap_or(0);
                let start = base + first as usize;
                match &mut open {
                    // The previous element's last extent ran to its top
                    // bit and this one starts at bit 0: one run, not two.
                    Some((s, l)) if *s + *l == start => *l += len as usize,
                    _ => {
                        if let Some((s, l)) = open.replace((start, len as usize)) {
                            f(s, l);
                        }
                    }
                }
            }
        }
        if let Some((s, l)) = open {
            f(s, l);
        }
    }

    /// Materialise the record the pass already decided, copying only the
    /// changed words of `new` (the page this kernel ran over). Allocates,
    /// so it is for the out-of-window drain only.
    pub(crate) fn encode(&self, new: &[u8], threshold_words: usize) -> PageEncoding {
        if threshold_words == 0 {
            return PageEncoding::Full;
        }
        if self.scan.zero {
            return PageEncoding::Zero;
        }
        if self.scan.changed_words as usize > threshold_words {
            return PageEncoding::Full;
        }
        let mut runs: Vec<DeltaRun> = Vec::with_capacity(self.scan.runs as usize);
        self.for_each_run(|start, words| {
            runs.push(DeltaRun {
                start_word: start as u32,
                bytes: new.get(start * 8..(start + words) * 8).unwrap_or(&[]).to_vec(),
            });
        });
        PageEncoding::Delta { runs }
    }
}

/// Wire bytes the materialised record occupies (agrees with
/// [`wire_len_for`] over the same pages and threshold).
pub fn wire_len(enc: &PageEncoding) -> usize {
    match enc {
        PageEncoding::Zero => RECORD_HEADER,
        PageEncoding::Delta { runs } => runs
            .iter()
            .fold(RECORD_HEADER, |n, run| n + 8 + run.bytes.len()),
        PageEncoding::Full => RECORD_HEADER + PAGE_SIZE,
    }
}

/// Apply an encoded record to `dst`, which holds the old generation,
/// reconstructing the new page. `full` is the full plaintext, consulted
/// only by [`PageEncoding::Full`] records. Out-of-range runs and
/// length-mismatched full pages are ignored (the caller's digest fold
/// would flag the divergence) rather than panicking — this code runs
/// while impounded outputs hang on the drain.
pub fn apply_page(dst: &mut [u8], enc: &PageEncoding, full: &[u8]) {
    match enc {
        PageEncoding::Zero => dst.fill(0),
        PageEncoding::Delta { runs } => {
            for run in runs {
                let start = run.start_word as usize * 8;
                if let Some(window) = start
                    .checked_add(run.bytes.len())
                    .and_then(|end| dst.get_mut(start..end))
                {
                    window.copy_from_slice(&run.bytes);
                }
            }
        }
        PageEncoding::Full => {
            if dst.len() == full.len() {
                dst.copy_from_slice(full);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrity::{chunk_digest, content_digest};
    use crimes_rng::ChaCha8Rng;

    /// The byte-wise scan the kernel replaced, kept as the oracle: words
    /// compared as slices, zero tested byte by byte.
    fn reference_scan_page(old: &[u8], new: &[u8]) -> PageScan {
        let mut scan = PageScan {
            zero: true,
            ..PageScan::default()
        };
        let mut in_run = false;
        for (o, n) in old.chunks_exact(8).zip(new.chunks_exact(8)) {
            if n.iter().any(|&b| b != 0) {
                scan.zero = false;
            }
            if o != n {
                scan.changed_words += 1;
                if !in_run {
                    scan.runs += 1;
                    in_run = true;
                }
            } else {
                in_run = false;
            }
        }
        scan
    }

    /// The three-pass encoder the kernel replaced, kept as the oracle:
    /// scan, then a second compare pass growing one run at a time.
    fn reference_encode_page(old: &[u8], new: &[u8], threshold_words: usize) -> PageEncoding {
        if threshold_words == 0 {
            return PageEncoding::Full;
        }
        let scan = reference_scan_page(old, new);
        if scan.zero {
            return PageEncoding::Zero;
        }
        if scan.changed_words as usize > threshold_words {
            return PageEncoding::Full;
        }
        let mut runs: Vec<DeltaRun> = Vec::new();
        for (word, (o, n)) in old.chunks_exact(8).zip(new.chunks_exact(8)).enumerate() {
            if o == n {
                continue;
            }
            match runs.last_mut() {
                Some(run) if run.start_word as usize + run.bytes.len() / 8 == word => {
                    run.bytes.extend_from_slice(n);
                }
                _ => runs.push(DeltaRun {
                    start_word: word as u32,
                    bytes: n.to_vec(),
                }),
            }
        }
        PageEncoding::Delta { runs }
    }

    fn random_page(rng: &mut ChaCha8Rng) -> Vec<u8> {
        let mut page = vec![0u8; PAGE_SIZE];
        rng.fill_bytes(&mut page);
        page
    }

    /// A mostly-zero page with a handful of one-byte writes, like the
    /// web workload's.
    fn sparse_page(rng: &mut ChaCha8Rng) -> Vec<u8> {
        let mut page = vec![0u8; PAGE_SIZE];
        for _ in 0..rng.gen_range(0..12) {
            let at = rng.gen_range(0..PAGE_SIZE as u64) as usize;
            page[at] = rng.gen_range(1..256) as u8;
        }
        page
    }

    /// Flip one byte in each word of `words`.
    fn flip_words(page: &mut [u8], words: std::ops::RangeInclusive<usize>, rng: &mut ChaCha8Rng) {
        for w in words {
            page[w * 8 + rng.gen_range(0..8) as usize] ^= rng.gen_range(1..256) as u8;
        }
    }

    /// One `(old, new)` pair per case, cycling through every shape the
    /// kernel's mask, carry and zero logic has to get right.
    fn page_pair(case: usize, rng: &mut ChaCha8Rng) -> (Vec<u8>, Vec<u8>) {
        let old = if (case / 12).is_multiple_of(2) {
            sparse_page(rng)
        } else {
            random_page(rng)
        };
        let mut new = old.clone();
        match case % 12 {
            0 => new.fill(0),
            1 => new = random_page(rng),
            // Sparse one-byte edits, few and many.
            2 => flip_words(&mut new, 0..=0, rng),
            3 | 4 => {
                for _ in 0..rng.gen_range(1..600) {
                    let at = rng.gen_range(0..PAGE_SIZE as u64) as usize;
                    new[at] ^= rng.gen_range(1..256) as u8;
                }
            }
            // Mask-element boundaries: a run ending at word 63, one
            // starting at word 64, one straddling both, and back-to-back
            // extents that must stay one run across every boundary.
            5 => flip_words(&mut new, 60..=63, rng),
            6 => flip_words(&mut new, 64..=66, rng),
            7 => {
                let boundary = 64 * rng.gen_range(1..8) as usize;
                let before = rng.gen_range(1..40) as usize;
                let after = rng.gen_range(0..40) as usize;
                flip_words(&mut new, boundary - before..=boundary + after, rng);
            }
            8 => flip_words(&mut new, 0..=PAGE_WORDS - 1, rng),
            // The last word, alone and closing a run.
            9 => flip_words(&mut new, PAGE_WORDS - 1..=PAGE_WORDS - 1, rng),
            10 => flip_words(&mut new, PAGE_WORDS - 3..=PAGE_WORDS - 1, rng),
            // 11: old == new.
            _ => {}
        }
        (old, new)
    }

    #[test]
    fn kernel_matches_the_reference_passes_and_round_trips() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x00de17a);
        for case in 0..600 {
            let (old, new) = page_pair(case, &mut rng);
            let mfn = rng.next_u64() >> 20;
            let kernel = page_kernel(&old, &new, [Lanes::content(), Lanes::seeded(mfn)])
                .expect("whole pages");
            assert_eq!(kernel.scan, reference_scan_page(&old, &new), "case {case}");
            assert_eq!(scan_page(&old, &new), kernel.scan, "case {case}");
            assert_eq!(
                kernel.digests,
                [content_digest(&new), chunk_digest(mfn, &new)],
                "case {case}: fused digests"
            );
            for threshold in [0usize, 1, 16, 64, 128, PAGE_WORDS] {
                let enc = encode_page(&old, &new, threshold);
                assert_eq!(
                    enc,
                    reference_encode_page(&old, &new, threshold),
                    "case {case}, threshold {threshold}"
                );
                assert_eq!(
                    enc,
                    kernel.encode(&new, threshold),
                    "case {case}, threshold {threshold}: the drain's entry point"
                );
                let mut dst = old.clone();
                apply_page(&mut dst, &enc, &new);
                assert_eq!(dst, new, "case {case}, threshold {threshold}");
                // Idempotent: unchanged words are equal in both
                // generations, so re-applying is a no-op.
                apply_page(&mut dst, &enc, &new);
                assert_eq!(dst, new, "case {case} re-apply");
                assert_eq!(
                    wire_len(&enc),
                    wire_len_for(&kernel.scan, threshold),
                    "priced and materialised wire lengths agree"
                );
            }
        }
    }

    #[test]
    fn zero_pages_cost_one_word() {
        let old = vec![0xa5u8; PAGE_SIZE];
        let new = vec![0u8; PAGE_SIZE];
        let enc = encode_page(&old, &new, 8);
        assert_eq!(enc, PageEncoding::Zero);
        assert_eq!(wire_len(&enc), 8);
    }

    #[test]
    fn churn_past_the_threshold_falls_back_to_full() {
        let old = vec![0u8; PAGE_SIZE];
        let mut new = vec![0u8; PAGE_SIZE];
        // Every other word, so each changed word is its own run.
        for w in 0..40 {
            new[w * 16] = 1;
        }
        assert!(matches!(encode_page(&old, &new, 39), PageEncoding::Full));
        let enc = encode_page(&old, &new, 40);
        let PageEncoding::Delta { runs } = &enc else {
            panic!("40 changed words within a threshold of 40 must delta");
        };
        assert_eq!(runs.len(), 40, "isolated words form singleton runs");
        assert_eq!(wire_len(&enc), 8 + 40 * 8 + 40 * 8);
    }

    #[test]
    fn adjacent_changes_coalesce_into_one_run() {
        let old = vec![0u8; PAGE_SIZE];
        let mut new = vec![0u8; PAGE_SIZE];
        new[64..64 + 4 * 8].fill(7);
        let enc = encode_page(&old, &new, 16);
        let PageEncoding::Delta { runs } = &enc else {
            panic!("4 changed words must delta");
        };
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].start_word, 8);
        assert_eq!(runs[0].bytes.len(), 4 * 8);
        assert_eq!(wire_len(&enc), 8 + 8 + 4 * 8);
    }

    #[test]
    fn threshold_zero_disables_encoding() {
        let old = vec![0u8; PAGE_SIZE];
        let new = vec![0u8; PAGE_SIZE];
        assert!(matches!(encode_page(&old, &new, 0), PageEncoding::Full));
        assert_eq!(wire_len_for(&scan_page(&old, &new), 0), 8 + PAGE_SIZE);
    }

    #[test]
    fn mismatched_lengths_scan_conservatively_and_encode_full() {
        let scan = scan_page(&[0u8; 16], &[0u8; 24]);
        assert!(!scan.zero);
        assert_eq!(scan.changed_words, 3);
        // Equal lengths that are not one page get the same treatment.
        assert_eq!(scan_page(&[0u8; 16], &[0u8; 16]).changed_words, 2);
        assert!(matches!(
            encode_page(&[0u8; 16], &[1u8; 16], 8),
            PageEncoding::Full
        ));
        assert!(matches!(
            encode_page(&[0u8; 16], &[0u8; 24], 8),
            PageEncoding::Full
        ));
        // Full-page apply onto a mismatched dst is a checked no-op.
        let mut dst = [0xffu8; 16];
        apply_page(&mut dst, &PageEncoding::Full, &[0u8; 24]);
        assert_eq!(dst, [0xffu8; 16]);
    }
}
