//! Shadow kernels: each layer's public entry point, re-timed from
//! outside on the epoch's real dirty set.
//!
//! The framework seam says how long the pause and the drain took; it
//! cannot say which layer the time went to. Until spans exist inside the
//! program, a traced run calls each layer's own public function on the
//! very pages the coming boundary will walk (new page from the guest,
//! old page from the backup) and records one span per kernel under
//! `shadow[e]`. Nothing here mutates the guest or the backup.

use std::hint::black_box;

use crimes_checkpoint::{
    chunk_digest, content_digest, encode_page, scan_page, BitmapScan, HypercallModel,
};
use crimes_journal::{EvidenceJournal, Record};
use crimes_outbuf::{NetPacket, Output, OutputBuffer, SafetyMode};
use crimes_vm::{Vm, PAGE_SIZE};
use crimes_vmi::{linux, CanaryScanner, VmiSession};

use crate::trace::Tracer;

/// Churn threshold the deferred workloads configure (`delta_threshold`).
pub const DELTA_THRESHOLD: usize = 64;
/// Simulated hypercalls per timing of the model.
const HYPERCALL_REPS: u32 = 2_000;
/// Outputs per submit/release round trip, as the workloads submit.
const OUTBUF_BATCH: u64 = 5;
/// Records per journal-append timing.
const JOURNAL_REPS: u64 = 64;

/// Run every kernel once against `vm`'s current dirty set, with `old`
/// the backup image (machine-frame order) the dirty pages will replace.
/// Returns the id of the `shadow` span.
pub fn run(
    tracer: &mut Tracer,
    parent: Option<usize>,
    index: u64,
    vm: &Vm,
    old: &[u8],
) -> Option<usize> {
    let t_start = tracer.now_ns();
    let shadow = tracer.span(parent, "shadow", index, t_start, t_start);
    let mem = vm.memory();

    let timed = |tracer: &mut Tracer, name: &'static str, kernel: &mut dyn FnMut()| {
        let t0 = tracer.now_ns();
        kernel();
        let t1 = tracer.now_ns();
        tracer.span(shadow, name, index, t0, t1);
    };

    let mut session = None;
    timed(tracer, "vmi.init", &mut || {
        session = VmiSession::init(vm).ok();
    });

    let mut dirty = Vec::new();
    timed(tracer, "checkpoint.bitscan", &mut || {
        dirty = BitmapScan::WordWise.scan(black_box(mem.dirty()));
    });
    // (machine frame, new page, old page) of every dirty page.
    let pages: Vec<(u64, &[u8], &[u8])> = dirty
        .iter()
        .filter_map(|&pfn| {
            let mfn = mem.pfn_to_mfn(pfn).0;
            let base = usize::try_from(mfn).ok()?.checked_mul(PAGE_SIZE)?;
            Some((mfn, mem.page(pfn), old.get(base..base + PAGE_SIZE)?))
        })
        .collect();

    timed(tracer, "checkpoint.chunk_digest", &mut || {
        for &(mfn, new, _) in &pages {
            black_box(chunk_digest(mfn, black_box(new)));
        }
    });
    timed(tracer, "checkpoint.content_digest", &mut || {
        for &(_, new, _) in &pages {
            black_box(content_digest(black_box(new)));
        }
    });
    timed(tracer, "checkpoint.scan_page", &mut || {
        for &(_, new, old) in &pages {
            black_box(scan_page(black_box(old), black_box(new)));
        }
    });
    timed(tracer, "checkpoint.encode_page", &mut || {
        for &(_, new, old) in &pages {
            black_box(encode_page(black_box(old), black_box(new), DELTA_THRESHOLD));
        }
    });

    if let Some(session) = &session {
        timed(tracer, "vmi.process_list", &mut || {
            black_box(
                linux::process_list(session, mem)
                    .map(|tasks| tasks.len())
                    .ok(),
            );
        });
        let scanner = CanaryScanner::new(vm.canary_secret());
        timed(tracer, "vmi.canary_scan", &mut || {
            black_box(
                scanner
                    .scan_dirty(session, mem, mem.dirty())
                    .map(|r| r.is_clean())
                    .ok(),
            );
        });
    }

    // The modelled and bookkeeping layers do not depend on the dirty
    // set; they are timed here so their samples see the same cache state
    // as the kernels above.
    timed(tracer, "checkpoint.hypercall", &mut || {
        let mut model = HypercallModel::new(HypercallModel::DEFAULT_STEPS);
        for _ in 0..HYPERCALL_REPS {
            black_box(model.call());
        }
    });
    timed(tracer, "outbuf.submit_release", &mut || {
        let mut buffer = OutputBuffer::new(SafetyMode::Synchronous);
        for conn in 0..OUTBUF_BATCH {
            let packet = Output::Net(NetPacket::new(conn, vec![0u8; crate::ledger::OUTPUT_BYTES]));
            black_box(buffer.submit(packet, conn).is_ok());
        }
        black_box(buffer.release(OUTBUF_BATCH).len());
    });
    timed(tracer, "journal.append", &mut || {
        let mut journal = EvidenceJournal::new();
        for epoch in 0..JOURNAL_REPS {
            journal.append(black_box(&Record::Committed { epoch }));
        }
        black_box(journal.bytes().len());
    });

    let t_end = tracer.now_ns();
    tracer.close(shadow, t_end);
    tracer.flag_shadow(shadow);
    shadow
}

/// Divisor turning a kernel's span into its per-operation cost, for the
/// kernels whose metric is "per call" rather than "per dirty set".
pub fn reps(kernel: &str) -> f64 {
    match kernel {
        "checkpoint.hypercall" => f64::from(HYPERCALL_REPS),
        "outbuf.submit_release" => OUTBUF_BATCH as f64,
        "journal.append" => JOURNAL_REPS as f64,
        _ => 1.0,
    }
}
