//! What the harness does to one protected tenant, whichever workload
//! owns it: modules, the end-of-run checks, the fingerprint, recovery.

use std::sync::Arc;

use crimes::modules::{BlacklistScanModule, CanaryScanModule};
use crimes::{BoundaryProgress, Crimes, CrimesError, EpochOutcome};
use crimes_checkpoint::{chunk_digest, PauseWindowPool};
use crimes_journal::EvidenceJournal;
use crimes_telemetry::RealClock;
use crimes_vm::Mfn;

use crate::ledger::Ledger;
use crate::run::Run;

pub fn register_modules(crimes: &mut Crimes) {
    let secret = crimes.vm().canary_secret();
    crimes.register_module(Box::new(CanaryScanModule::new(secret)));
    crimes.register_module(Box::new(BlacklistScanModule::bundled()));
}

/// Both halves of a boundary back to back, on the guest as it stands.
fn boundary(crimes: &mut Crimes, pool: &mut PauseWindowPool) -> Result<EpochOutcome, CrimesError> {
    match crimes.run_epoch_leased(pool, |_, _| Ok(()))? {
        BoundaryProgress::Done(outcome) => Ok(outcome),
        BoundaryProgress::NeedsDrain(pending) => crimes.finish_boundary(pending),
    }
}

fn backup_equals_guest(crimes: &Crimes) -> bool {
    let mem = crimes.vm().memory();
    let backup = crimes.checkpointer().backup();
    backup.num_pages() == mem.num_pages()
        && (0..mem.num_pages() as u64).all(|mfn| backup.frame(Mfn(mfn)) == mem.frame(Mfn(mfn)))
}

/// The end-of-run checks of one tenant, by name. Also times the journal
/// replay and adds the tenant's exact counts to the run's.
pub fn audit(run: &mut Run, crimes: &Crimes, ledger: &Ledger) -> [(&'static str, bool); 6] {
    let t0 = run.tracer.now_ns();
    let replayed = EvidenceJournal::replay(crimes.journal().bytes());
    run.replay_ns += run.tracer.now_ns() - t0;
    run.counts.epochs_committed += crimes.committed_epochs();
    run.counts.zero_pages += replayed.drain_zero_pages;
    run.counts.dup_pages += replayed.drain_dup_pages;
    run.counts.journal_bytes += crimes.journal().bytes().len() as u64;
    // Every tenant of a workload shares the modelled suspend/resume cost.
    let checkpoint = crimes.config().checkpoint;
    run.counts.modelled_hypercalls =
        u64::from(checkpoint.suspend_hypercalls) + u64::from(checkpoint.resume_hypercalls);
    [
        ("no tenant is quarantined", !crimes.is_quarantined()),
        (
            "no drain is left pending",
            crimes.pending_drain_count() == 0,
        ),
        (
            "the backup verifies",
            crimes.checkpointer().verify_backup().is_ok(),
        ),
        (
            "the backup equals the guest after the last commit",
            backup_equals_guest(crimes),
        ),
        (
            "released and discarded outputs equal the ledger",
            ledger.balances(&crimes.buffer_stats()),
        ),
        (
            "the journal replays to the live committed count",
            replayed.committed_epochs == crimes.committed_epochs(),
        ),
    ]
}

/// Fingerprint seed (the FNV offset basis).
pub const FINGERPRINT_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold into `h` what a later, faster commit must leave unchanged about
/// one tenant: its guest image, dirty pages so far, the released ledger,
/// and the journal's zero/duplicate page and committed counts.
pub fn fingerprint(mut h: u64, crimes: &Crimes, ledger: &Ledger) -> u64 {
    // Word-wise FNV-1a.
    let fold = |h: u64, word: u64| (h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    let mem = crimes.vm().memory();
    for mfn in 0..mem.num_pages() as u64 {
        h = fold(h, chunk_digest(mfn, mem.frame(Mfn(mfn))));
    }
    let profile = EvidenceJournal::replay(crimes.journal().bytes());
    let (released, released_bytes) = ledger.released();
    [
        crimes.telemetry().dirty_pages().sum(),
        released,
        released_bytes,
        profile.drain_zero_pages,
        profile.drain_dup_pages,
        profile.committed_epochs,
    ]
    .into_iter()
    .fold(h, fold)
}

/// Time `Crimes::recover` from clones of the surviving pieces, and make
/// the last recovered monitor commit one more epoch.
pub fn recover_and_commit(run: &mut Run, crimes: &Crimes, pool: &mut PauseWindowPool) {
    let mut recovered_commits = false;
    let reps = run.opts.recover_reps();
    for rep in 0..reps {
        let vm = crimes.vm().clone();
        let backup = crimes.checkpointer().backup().clone();
        let journal = crimes.journal().bytes().to_vec();
        let t0 = run.tracer.now_ns();
        let recovered = Crimes::recover(
            vm,
            backup,
            *crimes.config(),
            Arc::new(RealClock::new()),
            &journal,
        );
        let t1 = run.tracer.now_ns();
        run.tracer.span(run.root, "recover", rep as u64, t0, t1);
        run.recover_ns.push(t1 - t0);
        if rep + 1 == reps {
            recovered_commits = recovered.is_ok_and(|mut monitor| {
                register_modules(&mut monitor);
                let before = monitor.committed_epochs();
                boundary(&mut monitor, pool).is_ok_and(|o| o.is_committed())
                    && monitor.committed_epochs() == before + 1
            });
        }
    }
    run.check(
        "a recovered monitor commits one more epoch",
        recovered_commits,
    );
}
