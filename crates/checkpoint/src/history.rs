//! Checkpoint history (paper extension).
//!
//! The CRIMES prototype "only maintains the most recent checkpoint,
//! however, CRIMES could be extended to include a history of checkpoints"
//! (§3.1). This module is that extension, cut to what reads it: a bounded
//! ring of verified generations — image, disk and bookkeeping — that
//! [`Checkpointer::rollback`](crate::Checkpointer::rollback) falls back to
//! when the live backup fails its checksum. Depth 0 keeps none.

use std::collections::VecDeque;
use std::sync::Arc;

use crimes_vm::MetaSnapshot;

/// One committed generation, complete enough to restore a VM from.
#[derive(Debug, Clone)]
pub struct CheckpointRecord {
    /// Epoch number at commit.
    pub epoch: u64,
    /// Combined image checksum (frames + disk) at commit time. Rollback
    /// re-derives the retained image's digest and restores only on a match.
    pub checksum: u64,
    /// Full frame image. Shared so that handing a record out never copies
    /// a whole guest image by accident.
    pub frames: Arc<Vec<u8>>,
    /// Full disk image, retained alongside `frames` so a fallback rollback
    /// restores a complete, internally-consistent generation.
    pub disk: Arc<Vec<u8>>,
    /// Host-side bookkeeping snapshot matching the image.
    pub meta: MetaSnapshot,
}

/// A bounded ring of committed generations, newest last. Each costs a
/// full image and disk copy per commit — the same trade-off §3.3
/// describes for the backup VM — so none are kept unless asked for.
#[derive(Debug, Clone)]
pub struct CheckpointHistory {
    records: VecDeque<CheckpointRecord>,
    depth: usize,
}

impl CheckpointHistory {
    /// Keep at most `depth` generations; 0 keeps none.
    pub fn new(depth: usize) -> Self {
        CheckpointHistory {
            records: VecDeque::with_capacity(depth),
            depth,
        }
    }

    /// Append the record `make` builds, evicting the oldest when full. At
    /// depth 0 `make` never runs, so a commit copies no image.
    pub fn push(&mut self, make: impl FnOnce() -> CheckpointRecord) {
        if self.depth == 0 {
            return;
        }
        if self.records.len() == self.depth {
            self.records.pop_front();
        }
        self.records.push_back(make());
    }

    /// The most recent record.
    pub fn latest(&self) -> Option<&CheckpointRecord> {
        self.records.back()
    }

    /// Records from oldest to newest.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &CheckpointRecord> {
        self.records.iter()
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` before the first retained commit, and always at depth 0.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(epoch: u64) -> CheckpointRecord {
        let mut b = crimes_vm::Vm::builder();
        b.pages(2048);
        CheckpointRecord {
            epoch,
            checksum: 0,
            frames: Arc::new(Vec::new()),
            disk: Arc::new(Vec::new()),
            meta: b.build().meta_snapshot(),
        }
    }

    #[test]
    fn push_evicts_oldest_at_depth() {
        let mut h = CheckpointHistory::new(2);
        for epoch in 1..=3 {
            h.push(|| rec(epoch));
        }
        assert_eq!(h.len(), 2);
        let epochs: Vec<u64> = h.iter().map(|r| r.epoch).collect();
        assert_eq!(epochs, vec![2, 3]);
        assert_eq!(h.latest().unwrap().epoch, 3);
    }

    #[test]
    fn zero_depth_keeps_nothing() {
        let mut h = CheckpointHistory::new(0);
        h.push(|| unreachable!("depth 0 builds no record"));
        assert!(h.is_empty());
        assert!(h.latest().is_none());
    }
}
