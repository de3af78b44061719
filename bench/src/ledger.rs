//! The harness's own account of every output it submitted.
//!
//! Each output carries a unique id in the first eight bytes of its
//! payload. The ledger knows, independently of the output buffer, which
//! ids are still held, which were released and which were discarded, so a
//! dropped, duplicated or wrongly released output shows up as a mismatch
//! against `BufferStats` instead of as a number nobody checks.

use std::collections::BTreeMap;

use crimes_outbuf::{BufferStats, DiskWrite, NetPacket, Output};

/// Bytes of every benchmark output (id + filler).
pub const OUTPUT_BYTES: usize = 512;

#[derive(Debug, Clone, Copy)]
struct Held {
    bytes: u64,
    /// Submitted by an attacked epoch: must be discarded, never released.
    tainted: bool,
}

#[derive(Debug, Default)]
pub struct Ledger {
    held: BTreeMap<u64, Held>,
    next_id: u64,
    released: u64,
    released_bytes: u64,
    discarded: u64,
    /// Releases the ledger cannot account for: unknown or already
    /// released ids, and tainted outputs that escaped.
    violations: u64,
}

impl Ledger {
    pub fn new() -> Self {
        Ledger::default()
    }

    fn submit(&mut self, tainted: bool) -> Vec<u8> {
        let id = self.next_id;
        self.next_id += 1;
        self.held.insert(
            id,
            Held {
                bytes: OUTPUT_BYTES as u64,
                tainted,
            },
        );
        let mut payload = vec![id as u8; OUTPUT_BYTES];
        payload[..8].copy_from_slice(&id.to_le_bytes());
        payload
    }

    /// A fresh network packet tagged with its epoch, entered as held.
    pub fn net_packet(&mut self, epoch: u64, tainted: bool) -> Output {
        Output::Net(NetPacket::new(epoch, self.submit(tainted)))
    }

    /// A fresh disk write to `sector`, entered as held.
    pub fn disk_write(&mut self, sector: u64) -> Output {
        Output::Disk(DiskWrite::new(sector, self.submit(false)))
    }

    /// Account for one output that came back in a `released` vec; one
    /// the ledger does not hold is a violation.
    pub fn release(&mut self, output: &Output) {
        let payload = match output {
            Output::Net(p) => &p.payload,
            Output::Disk(w) => &w.data,
        };
        let id = payload.first_chunk::<8>().map(|b| u64::from_le_bytes(*b));
        let Some(held) = id.and_then(|id| self.held.remove(&id)) else {
            self.violations += 1;
            return;
        };
        if held.tainted || held.bytes != payload.len() as u64 {
            self.violations += 1;
        }
        self.released += 1;
        self.released_bytes += held.bytes;
    }

    /// A commit whose `released` vec the caller cannot see (a scheduled
    /// fleet round): everything held is taken as released.
    pub fn release_all_held(&mut self) {
        for (_, held) in std::mem::take(&mut self.held) {
            if held.tainted {
                self.violations += 1;
            }
            self.released += 1;
            self.released_bytes += held.bytes;
        }
    }

    /// A rollback: everything held is discarded. Returns how many.
    pub fn discard_all_held(&mut self) -> u64 {
        let n = self.held.len() as u64;
        self.held.clear();
        self.discarded += n;
        n
    }

    pub fn released(&self) -> (u64, u64) {
        (self.released, self.released_bytes)
    }

    /// `true` when nothing is still held, nothing escaped, and the
    /// buffer's own counters equal the ledger exactly.
    pub fn balances(&self, stats: &BufferStats) -> bool {
        self.held.is_empty()
            && self.violations == 0
            && stats.released == self.released
            && stats.released_bytes == self.released_bytes
            && stats.discarded == self.discarded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crimes_outbuf::{OutputBuffer, SafetyMode};

    /// One epoch of five outputs through a real buffer; `tamper` edits
    /// the released vec before the ledger sees it.
    fn round_trip(tamper: impl FnOnce(&mut Vec<Output>)) -> bool {
        let mut buffer = OutputBuffer::new(SafetyMode::Synchronous);
        let mut ledger = Ledger::new();
        for _ in 0..4 {
            let out = ledger.net_packet(7, false);
            assert!(buffer.submit(out, 0).expect("unbounded buffer").is_none());
        }
        let out = ledger.disk_write(3);
        assert!(buffer.submit(out, 0).expect("unbounded buffer").is_none());
        let mut released = buffer.release(1);
        tamper(&mut released);
        for output in &released {
            ledger.release(output);
        }
        ledger.balances(&buffer.stats())
    }

    #[test]
    fn an_honest_release_balances() {
        assert!(round_trip(|_| {}));
    }

    #[test]
    fn a_dropped_output_fails_the_check() {
        assert!(!round_trip(|released| {
            released.pop();
        }));
    }

    #[test]
    fn a_duplicated_output_fails_the_check() {
        assert!(!round_trip(|released| {
            let dup = released[0].clone();
            released.push(dup);
        }));
    }

    #[test]
    fn a_released_attack_output_fails_the_check() {
        let mut buffer = OutputBuffer::new(SafetyMode::Synchronous);
        let mut ledger = Ledger::new();
        let exfil = ledger.net_packet(9, true);
        buffer.submit(exfil, 0).expect("unbounded buffer");
        for output in &buffer.release(1) {
            ledger.release(output);
        }
        assert!(!ledger.balances(&buffer.stats()));
    }

    #[test]
    fn a_rollback_discards_what_was_held() {
        let mut buffer = OutputBuffer::new(SafetyMode::Synchronous);
        let mut ledger = Ledger::new();
        for tainted in [false, true] {
            let out = ledger.net_packet(2, tainted);
            buffer.submit(out, 0).expect("unbounded buffer");
        }
        assert_eq!(buffer.discard() as u64, ledger.discard_all_held());
        assert!(ledger.balances(&buffer.stats()));
    }
}
