//! Checkpoint image integrity: per-chunk FNV-1a digests combined by XOR.
//!
//! Every committed checkpoint carries a checksum of the backup image
//! (memory frames + disk sectors) so that rollback restores *verified*
//! state, never silently-corrupted state. The scheme is built for the
//! epoch loop's access pattern:
//!
//! * one 64-bit FNV-1a digest per page/sector, tagged with its index so
//!   identical contents at different slots digest differently;
//! * the image checksum is the XOR of all chunk digests — order
//!   independent, so the engine updates it **incrementally**: when a page
//!   is re-copied it XORs out the page's previous digest and XORs in the
//!   new one. A commit therefore costs `O(dirty)` hashing, not
//!   `O(memory)`;
//! * full recomputation happens only at rollback (verification) — the
//!   one moment correctness depends on it.
//!
//! The digest folds 8-byte words, not bytes, across four interleaved
//! lanes: each absorb step `l ← (l ^ w) * prime` is a bijection on `u64`
//! for fixed `w` (XOR is bijective; multiplication by an odd constant is
//! bijective mod 2⁶⁴) and injective in `w` for fixed `l`, so two chunks
//! differing in any single byte (hence in one word, hence in one lane)
//! always produce different digests — the `crimes-rng::prop` property
//! below checks exactly that. Word folding and laning matter for
//! throughput: the digest runs inside the pause window over every copied
//! page, a serial multiply chain is latency-bound, and a byte-at-a-time
//! FNV costs more than the page copy it accompanies.

// Fail-closed: typed errors, never a panic (DESIGN.md "Static guarantees").
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
#![deny(clippy::panic, clippy::todo, clippy::unimplemented)]

use crimes_vm::{PAGE_SIZE, SECTOR_SIZE};

use crate::pool::{FusedPageVisitor, PageCtx, ShardSink};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Domain tag separating disk sectors from memory pages in the combined
/// checksum (a page and a sector with equal index and bytes must not
/// cancel under XOR).
const SECTOR_DOMAIN: u64 = 0x8000_0000_0000_0000;

/// Domain tag for **content-addressed** page digests: the backup's
/// dedup table keys pages by bytes alone, so the tag must be one fixed
/// value — unlike the per-slot `mfn` tags above, which deliberately make
/// identical contents at different slots digest differently. The high
/// bits keep it disjoint from every realistic page index and from
/// [`SECTOR_DOMAIN`]-tagged sectors.
const CONTENT_DOMAIN: u64 = 0x4000_0000_c04e_7e47;

/// Content-addressed digest of one page: [`chunk_digest`] under a fixed
/// domain tag, so equal bytes hash equal wherever (and for whichever
/// tenant) they live. This is the key of `BackupVm`'s dedup table.
pub fn content_digest(page: &[u8]) -> u64 {
    chunk_digest(CONTENT_DOMAIN, page)
}

/// The digest's four interleaved FNV lanes — the one implementation of
/// its seed, absorb step and final combine. [`chunk_digest`] drives it
/// over a byte slice; the drain's page kernel (`delta::page_kernel`)
/// drives two of them over words it has already loaded for the compare,
/// so both produce the same value for the same bytes by construction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lanes([u64; 4]);

impl Lanes {
    /// Lanes seeded for a chunk tagged `tag` (chunk index + domain).
    pub(crate) fn seeded(tag: u64) -> Self {
        let seed = FNV_OFFSET ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        Lanes([
            seed,
            seed.rotate_left(16),
            seed.rotate_left(32),
            seed.rotate_left(48),
        ])
    }

    /// Lanes seeded for [`content_digest`]'s fixed domain tag.
    pub(crate) fn content() -> Self {
        Lanes::seeded(CONTENT_DOMAIN)
    }

    /// Absorb up to four consecutive words, word `i` into lane `i`.
    /// Each step `l ← (l ^ w) · prime` is a bijection on `u64` for fixed
    /// `w` and injective in `w` for fixed `l`.
    #[inline]
    pub(crate) fn absorb(&mut self, words: impl IntoIterator<Item = u64>) {
        for (lane, w) in self.0.iter_mut().zip(words) {
            *lane = (*lane ^ w).wrapping_mul(FNV_PRIME);
        }
    }

    /// Combine the lanes and fold in the chunk's byte length.
    pub(crate) fn finish(self, len: usize) -> u64 {
        let [l0, l1, l2, l3] = self.0;
        let mut h = l0;
        h = h.wrapping_mul(FNV_PRIME) ^ l1;
        h = h.wrapping_mul(FNV_PRIME) ^ l2;
        h = h.wrapping_mul(FNV_PRIME) ^ l3;
        (h ^ len as u64).wrapping_mul(FNV_PRIME)
    }
}

/// Word-wise FNV-1a over `bytes`, seeded with `tag` (chunk index +
/// domain), folded across **four interleaved lanes**: word `i` feeds
/// lane `i mod 4`. A single multiply-xor chain is latency-bound (every
/// step waits on the previous multiply), and the digest runs inside the
/// pause window over every copied page — four independent chains let the
/// CPU overlap the multiplies and cut the walk's digest cost roughly
/// fourfold. Pages and sectors are multiples of 8 bytes; a ragged tail
/// is folded as one zero-padded final word (length is absorbed too, so a
/// trailing-zero tail cannot collide with a shorter chunk).
///
/// The single-word injectivity argument from the module header survives
/// the lanes: a one-word difference lands in exactly one lane, each lane
/// step is a bijection, and the final combine `h ← h·prime ^ lane` is a
/// bijection in each lane for the others fixed — so two chunks differing
/// in any single byte still always produce different digests.
pub fn chunk_digest(tag: u64, bytes: &[u8]) -> u64 {
    let mut lanes = Lanes::seeded(tag);
    let (words, tail) = bytes.as_chunks::<8>();
    let (quads, rest) = words.as_chunks::<4>();
    for quad in quads {
        lanes.absorb(quad.map(u64::from_le_bytes));
    }
    let mut last = [0u8; 8];
    for (dst, src) in last.iter_mut().zip(tail) {
        *dst = *src;
    }
    // The zero-padded ragged tail, if any, is the word after `rest`.
    let ragged = (!tail.is_empty()).then_some(last);
    lanes.absorb(rest.iter().copied().chain(ragged).map(u64::from_le_bytes));
    lanes.finish(bytes.len())
}

/// The digest pass of the pause-window walk: digests each visited page's
/// source bytes during the walk (the copy visitor makes the backup frame
/// identical to the source, so this is the digest of the frame the backup
/// ends up holding) and parks the result in the worker's sink. The engine
/// folds the per-page digests into the [`ImageDigest`] after resume via
/// [`ImageDigest::apply_page_digest`] — the XOR combination is order
/// independent, so the shard layout cannot change the checksum. A walk
/// into a staging slot leaves it out: the slot is engine-private and
/// immutable from seal to drain, and nothing commits until the drain
/// acknowledges, so `StagingArea::drain_slot` digests each staged page as
/// it ciphers it — the same [`chunk_digest`] over the same bytes.
#[derive(Debug, Clone, Copy, Default)]
pub struct FusedDigest;

impl FusedPageVisitor for FusedDigest {
    fn visit_page(&self, ctx: &PageCtx<'_>, sink: &mut ShardSink<'_>) {
        sink.push_digest(ctx.mfn.0 as usize, chunk_digest(ctx.mfn.0, ctx.src));
    }
}

/// One-shot combined digest of a full image (frames + disk).
pub fn image_digest(frames: &[u8], disk: &[u8]) -> u64 {
    ImageDigest::of(frames, disk).combined()
}

/// Image bytes per [`DigestChunk`]: 64 pages, or 512 sectors.
const CHUNK_BYTES: usize = 64 * PAGE_SIZE;

/// A fixed run of an image's pages or sectors and the digest slots they
/// fill: the unit of work two threads share when a whole image is
/// digested at start-up (`startup`). Every slot's value is a function of
/// its own bytes and index alone, so who runs which chunk, in which
/// order, cannot change a digest.
#[derive(Debug)]
pub(crate) struct DigestChunk<'a> {
    /// `0` for pages, [`SECTOR_DOMAIN`] for sectors.
    domain: u64,
    /// Index of the chunk's first page or sector in the image.
    first: usize,
    bytes: &'a [u8],
    slots: &'a mut [u64],
}

impl DigestChunk<'_> {
    /// Image pages the chunk covers (none for sectors).
    pub(crate) fn pages(&self) -> usize {
        if self.domain == 0 { self.slots.len() } else { 0 }
    }

    /// Digest each page or sector into its slot.
    pub(crate) fn run(self) {
        let unit = if self.domain == 0 { PAGE_SIZE } else { SECTOR_SIZE };
        for (k, (slot, bytes)) in self.slots.iter_mut().zip(self.bytes.chunks(unit)).enumerate() {
            *slot = chunk_digest(self.domain | (self.first + k) as u64, bytes);
        }
    }
}

/// Incrementally-maintained digest state for one backup image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageDigest {
    pages: Vec<u64>,
    sectors: Vec<u64>,
    combined: u64,
}

impl ImageDigest {
    /// Compute the full digest state of an image.
    pub fn of(frames: &[u8], disk: &[u8]) -> Self {
        let mut digest = ImageDigest::unfilled(frames, disk);
        digest.chunks(frames, disk).for_each(DigestChunk::run);
        digest.sealed()
    }

    /// A digest of `frames` and `disk`'s geometry whose slots are still to
    /// be filled by [`chunks`](Self::chunks) and folded by
    /// [`sealed`](Self::sealed).
    pub(crate) fn unfilled(frames: &[u8], disk: &[u8]) -> Self {
        ImageDigest {
            pages: vec![0; frames.len().div_ceil(PAGE_SIZE)],
            sectors: vec![0; disk.len().div_ceil(SECTOR_SIZE)],
            combined: 0,
        }
    }

    /// Every slot, as the [`DigestChunk`]s of `frames` then `disk`, in
    /// image order.
    pub(crate) fn chunks<'a>(
        &'a mut self,
        frames: &'a [u8],
        disk: &'a [u8],
    ) -> impl Iterator<Item = DigestChunk<'a>> {
        let split = |domain: u64, unit: usize, image: &'a [u8], slots: &'a mut [u64]| {
            let per_chunk = CHUNK_BYTES / unit;
            image.chunks(CHUNK_BYTES).zip(slots.chunks_mut(per_chunk)).enumerate().map(
                move |(i, (bytes, slots))| DigestChunk {
                    domain,
                    first: i * per_chunk,
                    bytes,
                    slots,
                },
            )
        };
        split(0, PAGE_SIZE, frames, &mut self.pages)
            .chain(split(SECTOR_DOMAIN, SECTOR_SIZE, disk, &mut self.sectors))
    }

    /// Fold the filled slots into the image checksum.
    pub(crate) fn sealed(mut self) -> Self {
        self.combined = self.pages.iter().chain(&self.sectors).fold(0, |a, d| a ^ d);
        self
    }

    /// The image checksum (XOR of all chunk digests).
    pub fn combined(&self) -> u64 {
        self.combined
    }

    /// Re-digest one page after it was rewritten.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or `bytes` is not one page.
    #[expect(clippy::indexing_slicing, reason = "an index in range is the documented `# Panics` contract")]
    pub fn update_page(&mut self, index: usize, bytes: &[u8]) {
        assert_eq!(bytes.len(), PAGE_SIZE, "whole pages only");
        let new = chunk_digest(index as u64, bytes);
        self.combined ^= self.pages[index] ^ new;
        self.pages[index] = new;
    }

    /// Fold in a page digest that was computed elsewhere (the parallel
    /// pause window digests pages on worker threads and applies them here
    /// after resume). Equivalent to [`update_page`](Self::update_page)
    /// with the digest precomputed — the XOR swap is identical.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[expect(clippy::indexing_slicing, reason = "an index in range is the documented `# Panics` contract")]
    pub fn apply_page_digest(&mut self, index: usize, digest: u64) {
        self.combined ^= self.pages[index] ^ digest;
        self.pages[index] = digest;
    }

    /// Re-digest one disk sector after it was rewritten.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or `bytes` is not one sector.
    #[expect(clippy::indexing_slicing, reason = "an index in range is the documented `# Panics` contract")]
    pub fn update_sector(&mut self, index: usize, bytes: &[u8]) {
        assert_eq!(bytes.len(), SECTOR_SIZE, "whole sectors only");
        let new = chunk_digest(SECTOR_DOMAIN | index as u64, bytes);
        self.combined ^= self.sectors[index] ^ new;
        self.sectors[index] = new;
    }

    /// Recompute every chunk digest from `frames`/`disk` and compare with
    /// the incrementally-maintained state. `Err(n)` reports how many
    /// chunks mismatch — any silent corruption of the image since its
    /// digests were last updated.
    pub fn verify(&self, frames: &[u8], disk: &[u8]) -> Result<(), usize> {
        let pages = frames.chunks(PAGE_SIZE);
        let sectors = disk.chunks(SECTOR_SIZE);
        // A geometry mismatch between the image and the digest state is
        // corruption too: every chunk without a stored digest (and every
        // stored digest without a chunk) counts as bad.
        let mut bad =
            self.pages.len().abs_diff(pages.len()) + self.sectors.len().abs_diff(sectors.len());
        for (i, p) in pages.enumerate() {
            if self
                .pages
                .get(i)
                .is_some_and(|&d| d != chunk_digest(i as u64, p))
            {
                bad += 1;
            }
        }
        for (i, s) in sectors.enumerate() {
            if self
                .sectors
                .get(i)
                .is_some_and(|&d| d != chunk_digest(SECTOR_DOMAIN | i as u64, s))
            {
                bad += 1;
            }
        }
        if bad == 0 {
            Ok(())
        } else {
            Err(bad)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crimes_rng::prop;

    /// The straight-line digest [`Lanes`] was factored out of, kept as
    /// the oracle: the values key the dedup table, the image checksum
    /// and the journal CRCs, so they must never move.
    fn reference_chunk_digest(tag: u64, bytes: &[u8]) -> u64 {
        let step = |lane: u64, w: &[u8; 8]| (lane ^ u64::from_le_bytes(*w)).wrapping_mul(FNV_PRIME);
        let seed = FNV_OFFSET ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut l = [
            seed,
            seed.rotate_left(16),
            seed.rotate_left(32),
            seed.rotate_left(48),
        ];
        let (words, tail) = bytes.as_chunks::<8>();
        for (i, w) in words.iter().enumerate() {
            l[i % 4] = step(l[i % 4], w);
        }
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            l[words.len() % 4] = step(l[words.len() % 4], &word);
        }
        let mut h = l[0];
        for lane in &l[1..] {
            h = h.wrapping_mul(FNV_PRIME) ^ lane;
        }
        (h ^ bytes.len() as u64).wrapping_mul(FNV_PRIME)
    }

    /// `chunk_digest(1, &[0xa5; 24])` as computed before the refactor.
    const PINNED_DIGEST: u64 = 0x54ee_0c4f_f5a6_0f97;

    #[test]
    fn chunk_digest_matches_the_reference_at_every_tail_shape() {
        let mut rng = crimes_rng::ChaCha8Rng::seed_from_u64(0xd16e57);
        let mut bytes = vec![0u8; PAGE_SIZE];
        rng.fill_bytes(&mut bytes);
        // Every (words mod 4, ragged tail) combination twice over, then
        // the sizes the engine digests: sectors and pages.
        for len in (0..=70).chain([SECTOR_SIZE, PAGE_SIZE - 1, PAGE_SIZE]) {
            for tag in [0, 7, SECTOR_DOMAIN | 3, CONTENT_DOMAIN, rng.next_u64()] {
                assert_eq!(
                    chunk_digest(tag, &bytes[..len]),
                    reference_chunk_digest(tag, &bytes[..len]),
                    "len {len}, tag {tag:#x}"
                );
            }
        }
        // One pinned value, so the reference cannot drift along with it.
        assert_eq!(chunk_digest(1, &[0xa5u8; 24]), PINNED_DIGEST);
    }

    #[test]
    fn chunked_digest_fills_every_slot_with_its_own_digest() {
        let mut rng = crimes_rng::ChaCha8Rng::seed_from_u64(0xc4a7);
        // A short last chunk of each kind, and a ragged last page.
        let mut frames = vec![0u8; PAGE_SIZE * 130 + 100];
        let mut disk = vec![0u8; SECTOR_SIZE * 1030];
        rng.fill_bytes(&mut frames);
        rng.fill_bytes(&mut disk);
        let digest = ImageDigest::of(&frames, &disk);
        let pages: Vec<u64> =
            frames.chunks(PAGE_SIZE).enumerate().map(|(i, p)| chunk_digest(i as u64, p)).collect();
        let sectors: Vec<u64> = disk
            .chunks(SECTOR_SIZE)
            .enumerate()
            .map(|(i, s)| chunk_digest(SECTOR_DOMAIN | i as u64, s))
            .collect();
        let combined = pages.iter().chain(&sectors).fold(0, |a, d| a ^ d);
        assert_eq!(digest, ImageDigest { pages, sectors, combined });
    }

    #[test]
    fn incremental_matches_full_recompute() {
        let mut frames = vec![1u8; PAGE_SIZE * 4];
        let mut disk = vec![2u8; SECTOR_SIZE * 8];
        let mut digest = ImageDigest::of(&frames, &disk);

        frames[PAGE_SIZE * 2 + 17] = 0xaa;
        digest.update_page(2, &frames[PAGE_SIZE * 2..PAGE_SIZE * 3]);
        disk[SECTOR_SIZE * 5 + 3] = 0xbb;
        digest.update_sector(5, &disk[SECTOR_SIZE * 5..SECTOR_SIZE * 6]);

        assert_eq!(digest.combined(), image_digest(&frames, &disk));
        assert!(digest.verify(&frames, &disk).is_ok());
    }

    #[test]
    fn apply_page_digest_matches_update_page() {
        let mut frames = vec![3u8; PAGE_SIZE * 3];
        let disk = vec![4u8; SECTOR_SIZE * 2];
        let mut via_update = ImageDigest::of(&frames, &disk);
        let mut via_apply = via_update.clone();

        frames[PAGE_SIZE + 100] = 0xcc;
        let page = &frames[PAGE_SIZE..PAGE_SIZE * 2];
        via_update.update_page(1, page);
        via_apply.apply_page_digest(1, chunk_digest(1, page));

        assert_eq!(via_update.combined(), via_apply.combined());
        assert!(via_apply.verify(&frames, &disk).is_ok());
    }

    #[test]
    fn verify_counts_corrupt_chunks() {
        let frames = vec![0u8; PAGE_SIZE * 2];
        let disk = vec![0u8; SECTOR_SIZE * 2];
        let digest = ImageDigest::of(&frames, &disk);
        let mut rotted = frames.clone();
        rotted[3] ^= 0x01;
        rotted[PAGE_SIZE + 9] ^= 0x80;
        assert_eq!(digest.verify(&rotted, &disk), Err(2));
        let mut bad_disk = disk.clone();
        bad_disk[SECTOR_SIZE] ^= 0xff;
        assert_eq!(digest.verify(&frames, &bad_disk), Err(1));
    }

    #[test]
    fn identical_chunks_at_different_slots_digest_differently() {
        let page = vec![7u8; PAGE_SIZE];
        assert_ne!(chunk_digest(0, &page), chunk_digest(1, &page));
        // A page and a sector with equal index must live in distinct
        // domains.
        assert_ne!(
            chunk_digest(0, &page[..SECTOR_SIZE]),
            chunk_digest(SECTOR_DOMAIN, &page[..SECTOR_SIZE])
        );
    }

    /// The satellite property: checkpoint checksums detect **any** single
    /// flipped byte, anywhere in the image (frames or disk).
    #[test]
    fn prop_single_flipped_byte_changes_checksum() {
        prop::check(
            "single_flipped_byte_changes_checksum",
            prop::Config::with_cases(48),
            |g| {
                let mut frames = vec![0u8; PAGE_SIZE * 2];
                let mut disk = vec![0u8; SECTOR_SIZE * 4];
                let mut content = crimes_rng::ChaCha8Rng::seed_from_u64(g.any_u64());
                content.fill_bytes(&mut frames);
                content.fill_bytes(&mut disk);
                let clean = image_digest(&frames, &disk);

                let flip = 1u8 << g.int(0..8u32);
                if g.any_bool() {
                    let at = g.int(0..disk.len());
                    disk[at] ^= flip;
                } else {
                    let at = g.int(0..frames.len());
                    frames[at] ^= flip;
                }
                let corrupt = image_digest(&frames, &disk);
                assert_ne!(clean, corrupt, "a flipped byte must change the checksum");
            },
        );
    }
}
