//! Monitor start-up on two CPUs: the one path `Crimes::protect` and
//! `Crimes::recover` build their pieces through.
//!
//! Start-up is three independent pieces, each a pure function of inputs
//! nobody writes while it runs: the caller's own piece (the VMI session's
//! System.map parse, plus the backup's initial copy in `protect`), the
//! lent piece (the journal replay in `recover`) and the digest of the
//! backup's image. With a resident worker, the caller runs its own piece
//! and the worker the lent one; then both digest the image, each taking
//! fixed chunks ([`DigestChunk`]) off one shared list until none are
//! left, so the split balances itself whichever of the other two pieces
//! took longer. The parse is compute-bound and the digest memory-bound,
//! which is why overlapping them pays where sharding the digest alone did
//! not (DESIGN.md, *Durable evidence journal & crash recovery*).
//!
//! The caller keeps its own piece because the VMI session draws its
//! faults from the calling thread's fault plan. Without a worker
//! everything runs on the caller in the serial order: the lent piece, the
//! own piece, the digest. Nothing a piece returns depends on where or in
//! which order it ran, so every result is bit-identical either way.

use std::num::NonZeroUsize;
use std::sync::{Mutex, PoisonError};

use crate::integrity::{DigestChunk, ImageDigest};
use crate::resident::{Resident, Task};

/// What one [`start_up`] made.
#[derive(Debug)]
pub struct StartUp<O, L> {
    /// What the caller's own piece returned.
    pub own: O,
    /// What the lent piece returned.
    pub lent: L,
    /// The digest of the image [`start_up`] was given.
    pub digest: ImageDigest,
    /// Image pages a resident worker digested: 0 without one. Which side
    /// took which chunk is a matter of timing, so this is not reproducible
    /// run to run; telemetry only.
    pub lent_pages: usize,
}

/// The executor one start-up lends to: a started one-worker [`Resident`]
/// on a host with a second CPU, none on one CPU. Build it for the call
/// and drop it before returning.
pub fn executor() -> Option<Resident> {
    let host_cpus = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    (host_cpus > 1).then(|| {
        let mut exec = Resident::new(1);
        exec.start();
        exec
    })
}

/// Run `own` on this thread and `lent` on a worker of `exec`, then digest
/// `frames` and `disk` on both (see the [module docs](self)). With no
/// worker to lend to, run `lent`, `own` and the digest here, in that
/// order.
///
/// A worker lost with its share costs time, not the result: the lent
/// piece is run again here if it had not returned, and the whole image
/// is digested again here, since which of its chunks the worker finished
/// died with it.
pub fn start_up<O, L: Send>(
    exec: Option<&mut Resident>,
    frames: &[u8],
    disk: &[u8],
    own: impl FnOnce() -> O,
    lent: &(impl Fn() -> L + Sync),
) -> StartUp<O, L> {
    let mut digest = ImageDigest::unfilled(frames, disk);
    let Some(exec) = exec.filter(|exec| exec.threads() > 0) else {
        let lent = lent();
        let own = own();
        digest.chunks(frames, disk).for_each(DigestChunk::run);
        return StartUp {
            own,
            lent,
            digest: digest.sealed(),
            lent_pages: 0,
        };
    };
    let mut own_result = None;
    let (lent_result, lent_pages) = {
        let chunks = Mutex::new(digest.chunks(frames, disk).collect::<Vec<_>>());
        let mut share = LentShare {
            piece: lent,
            result: None,
            chunks: &chunks,
            pages: 0,
            on_worker: false,
        };
        let ran = exec.scope(
            || {
                own_result = Some(own());
                digest_until(&chunks, 1);
            },
            [&mut share as &mut dyn Task],
        );
        let lent_pages = ran
            .ok()
            .map(|_| if share.on_worker { share.pages } else { 0 });
        (share.result, lent_pages)
    };
    // `None`: the worker was lost (see above).
    let lent_pages = lent_pages.unwrap_or_else(|| {
        digest.chunks(frames, disk).for_each(DigestChunk::run);
        0
    });
    StartUp {
        own: own_result.expect("a scope runs its own share or unwinds"),
        lent: lent_result.unwrap_or_else(lent),
        digest: digest.sealed(),
        lent_pages,
    }
}

/// Take chunks off `list` and digest them until `keep` are left; the
/// pages digested.
fn digest_until(list: &Mutex<Vec<DigestChunk<'_>>>, keep: usize) -> usize {
    let mut pages = 0;
    loop {
        let chunk = {
            // A pop is the only update made under the lock, so a list a
            // panic poisoned is still whole.
            let mut list = list.lock().unwrap_or_else(PoisonError::into_inner);
            if list.len() > keep { list.pop() } else { None }
        };
        let Some(chunk) = chunk else { return pages };
        pages += chunk.pages();
        chunk.run();
    }
}

/// The worker's share: the lent piece, then chunks until none are left.
/// The caller leaves the list's last chunk to it, so a share a worker ran
/// always digested some of the image, and a share taken back unstarted
/// finishes the image on the caller.
struct LentShare<'a, 'c, F, L> {
    piece: &'a F,
    result: Option<L>,
    chunks: &'a Mutex<Vec<DigestChunk<'c>>>,
    /// Pages the share digested.
    pages: usize,
    /// A resident worker ran it.
    on_worker: bool,
}

impl<F: Fn() -> L + Sync, L: Send> Task for LentShare<'_, '_, F, L> {
    fn run(&mut self) {
        self.result = Some((self.piece)());
        self.pages = digest_until(self.chunks, 0);
    }

    fn run_on_worker(&mut self) {
        self.run();
        self.on_worker = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrity::chunk_digest;
    use crate::resident::{pin, Placement};
    use crimes_vm::{Vm, PAGE_SIZE};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A guest's image: frames whose last digest chunk is a short one,
    /// and its disk.
    fn image() -> (Vec<u8>, Vec<u8>) {
        let mut b = Vm::builder();
        b.pages(1000).seed(5);
        let vm = b.build();
        (vm.memory().dump_frames(), vm.disk().dump())
    }

    /// Stands in for the journal replay: a pure function of immutable
    /// bytes, record by record.
    fn replay(log: &[u8]) -> Vec<u64> {
        log.chunks(1 << 10)
            .enumerate()
            .map(|(i, r)| chunk_digest(i as u64, r))
            .collect()
    }

    /// A started one-worker executor, on any host.
    fn one_worker() -> Resident {
        let mut exec = Resident::new(1);
        exec.start();
        exec
    }

    fn start(exec: Option<&mut Resident>, frames: &[u8], disk: &[u8]) -> StartUp<u64, Vec<u64>> {
        start_up(exec, frames, disk, || chunk_digest(1, disk), &|| {
            replay(frames)
        })
    }

    #[test]
    fn every_placement_makes_the_serial_bits() {
        let (frames, disk) = image();
        let serial = start(None, &frames, &disk);
        assert_eq!(serial.digest, ImageDigest::of(&frames, &disk));
        assert_eq!(serial.lent_pages, 0);
        let pages = frames.len() / PAGE_SIZE;
        for placement in Placement::ALL {
            let _pin = pin(placement);
            let mut exec = one_worker();
            for _ in 0..4 {
                let started = start(Some(&mut exec), &frames, &disk);
                assert_eq!(started.own, serial.own, "{placement:?}");
                assert_eq!(started.lent, serial.lent, "{placement:?}");
                assert_eq!(started.digest, serial.digest, "{placement:?}");
                let lent = started.lent_pages;
                match placement {
                    Placement::TakeAll => assert_eq!(lent, 0, "everything was taken back"),
                    Placement::TakeNone | Placement::Stalled => {
                        assert!(
                            (1..=pages).contains(&lent),
                            "{placement:?}: {lent} pages lent"
                        );
                    }
                    Placement::Free => assert!(lent <= pages),
                }
            }
        }
    }

    #[test]
    fn without_a_worker_the_pieces_run_here_in_the_serial_order() {
        let (frames, disk) = image();
        for mut exec in [None, Some(Resident::new(0))] {
            let order = AtomicUsize::new(0);
            let started = start_up(
                exec.as_mut(),
                &frames,
                &disk,
                || order.fetch_add(1, Ordering::Relaxed),
                &|| order.fetch_add(1, Ordering::Relaxed),
            );
            assert_eq!((started.lent, started.own), (0, 1), "the lent piece first");
            assert_eq!(started.digest, ImageDigest::of(&frames, &disk));
            assert_eq!(started.lent_pages, 0);
        }
    }

    #[test]
    fn a_lost_worker_costs_time_not_the_result() {
        let (frames, disk) = image();
        let serial = start(None, &frames, &disk);
        for after in [0, 1] {
            let _pin = pin(Placement::TakeNone);
            let mut exec = one_worker();
            exec.doom(after);
            // The worker runs `after` shares, then dies claiming the next;
            // from then on nothing is lent.
            for call in 0..after + 2 {
                let started = start(Some(&mut exec), &frames, &disk);
                assert_eq!(started.own, serial.own);
                assert_eq!(started.lent, serial.lent, "doom({after}), call {call}");
                assert_eq!(started.digest, serial.digest, "doom({after}), call {call}");
                assert_eq!(
                    started.lent_pages > 0,
                    call < after,
                    "doom({after}), call {call}"
                );
            }
            assert_eq!(exec.threads(), 0, "the worker is gone");
        }
    }
}
