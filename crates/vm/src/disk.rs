//! The guest's virtual disk.
//!
//! §3.1: "our current implementation [of the paper's prototype] focuses on
//! checkpointing CPU and memory state, but this can easily be extended to
//! include disk snapshots as well". This reproduction implements that
//! extension: a sector-addressed virtual disk with dirty-sector tracking,
//! so the checkpoint engine can propagate disk deltas alongside dirty
//! pages and rollback reverts storage too (an attack's dropped files
//! disappear with it).

use crate::dirty::DirtyBitmap;

/// Sector size in bytes.
pub const SECTOR_SIZE: usize = 512;

/// A virtual disk of fixed geometry.
#[derive(Debug, Clone)]
pub struct VirtualDisk {
    data: Vec<u8>,
    dirty: DirtyBitmap,
}

impl VirtualDisk {
    /// Create a zeroed disk of `sectors` sectors.
    ///
    /// # Panics
    ///
    /// Panics if `sectors` is zero.
    pub fn new(sectors: usize) -> Self {
        assert!(sectors > 0, "disk must have at least one sector");
        VirtualDisk {
            data: vec![0; sectors * SECTOR_SIZE],
            dirty: DirtyBitmap::new(sectors),
        }
    }

    /// Number of sectors.
    pub fn sectors(&self) -> usize {
        self.dirty.num_pages()
    }

    /// Capacity in bytes.
    pub fn size_bytes(&self) -> usize {
        self.data.len()
    }

    /// Read one sector.
    ///
    /// # Panics
    ///
    /// Panics if `sector` is out of range.
    pub fn read_sector(&self, sector: u64) -> &[u8] {
        let base = self.offset(sector);
        &self.data[base..base + SECTOR_SIZE]
    }

    /// Write up to one sector of data at `sector` (shorter writes leave
    /// the sector's tail untouched), marking it dirty.
    ///
    /// # Panics
    ///
    /// Panics if `sector` is out of range or `data` exceeds a sector.
    pub fn write_sector(&mut self, sector: u64, data: &[u8]) {
        assert!(
            data.len() <= SECTOR_SIZE,
            "write of {} bytes exceeds sector size",
            data.len()
        );
        let base = self.offset(sector);
        self.data[base..base + data.len()].copy_from_slice(data);
        self.dirty.mark(crate::addr::Pfn(sector));
    }

    /// Sectors written since the dirty log was last taken.
    pub fn dirty(&self) -> &DirtyBitmap {
        &self.dirty
    }

    /// Put `sector` back in the dirty log without writing it: a taken
    /// log whose checkpoint did not commit goes back this way.
    pub fn mark_dirty(&mut self, sector: u64) {
        self.dirty.mark(crate::addr::Pfn(sector));
    }

    /// Atomically take and reset the dirty-sector log.
    pub fn take_dirty(&mut self) -> DirtyBitmap {
        self.dirty.take()
    }

    /// The full image: what [`dump`](Self::dump) copies.
    pub fn image(&self) -> &[u8] {
        &self.data
    }

    /// Copy the full image.
    pub fn dump(&self) -> Vec<u8> {
        self.data.clone()
    }

    /// Restore the full image (rollback). Clears the dirty log.
    ///
    /// # Panics
    ///
    /// Panics if `image` does not match the disk size.
    pub fn restore(&mut self, image: &[u8]) {
        assert_eq!(image.len(), self.data.len(), "disk image size mismatch");
        self.data.copy_from_slice(image);
        self.dirty.clear();
    }

    /// Overwrite one sector without dirty tracking (backup-apply path).
    ///
    /// # Panics
    ///
    /// Panics if `sector` is out of range or `data` is not a whole sector.
    pub fn apply_sector(&mut self, sector: u64, data: &[u8]) {
        assert_eq!(data.len(), SECTOR_SIZE, "backup applies whole sectors");
        let base = self.offset(sector);
        self.data[base..base + SECTOR_SIZE].copy_from_slice(data);
    }

    fn offset(&self, sector: u64) -> usize {
        let base = sector as usize * SECTOR_SIZE;
        assert!(
            base + SECTOR_SIZE <= self.data.len(),
            "sector {sector} out of range for {} sectors",
            self.sectors()
        );
        base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Pfn;

    #[test]
    fn new_disk_is_zeroed_and_clean() {
        let d = VirtualDisk::new(16);
        assert_eq!(d.sectors(), 16);
        assert_eq!(d.size_bytes(), 16 * SECTOR_SIZE);
        assert!(d.read_sector(0).iter().all(|&b| b == 0));
        assert!(d.dirty().is_empty());
    }

    #[test]
    fn write_read_round_trip_marks_dirty() {
        let mut d = VirtualDisk::new(16);
        d.write_sector(3, b"hello disk");
        assert_eq!(&d.read_sector(3)[..10], b"hello disk");
        assert!(d.dirty().is_dirty(Pfn(3)));
        assert_eq!(d.dirty().count(), 1);
    }

    #[test]
    fn partial_write_preserves_tail() {
        let mut d = VirtualDisk::new(4);
        d.write_sector(0, &[0xff; SECTOR_SIZE]);
        d.write_sector(0, b"xy");
        assert_eq!(&d.read_sector(0)[..2], b"xy");
        assert_eq!(d.read_sector(0)[2], 0xff);
    }

    #[test]
    fn take_dirty_resets_log() {
        let mut d = VirtualDisk::new(8);
        d.write_sector(1, &[1]);
        let taken = d.take_dirty();
        assert_eq!(taken.count(), 1);
        assert!(d.dirty().is_empty());
    }

    #[test]
    fn dump_restore_round_trip() {
        let mut d = VirtualDisk::new(8);
        d.write_sector(2, b"keep me");
        let image = d.dump();
        d.write_sector(2, b"scribble");
        d.restore(&image);
        assert_eq!(&d.read_sector(2)[..7], b"keep me");
        assert!(d.dirty().is_empty(), "restore clears the log");
    }

    #[test]
    fn apply_sector_skips_dirty_tracking() {
        let mut d = VirtualDisk::new(8);
        d.apply_sector(5, &[7u8; SECTOR_SIZE]);
        assert!(d.dirty().is_empty());
        assert_eq!(d.read_sector(5)[0], 7);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_write_panics() {
        VirtualDisk::new(4).write_sector(4, &[0]);
    }

    #[test]
    #[should_panic(expected = "exceeds sector size")]
    fn oversized_write_panics() {
        VirtualDisk::new(4).write_sector(0, &[0u8; SECTOR_SIZE + 1]);
    }

    #[test]
    #[should_panic(expected = "at least one sector")]
    fn zero_sector_disk_panics() {
        VirtualDisk::new(0);
    }
}
