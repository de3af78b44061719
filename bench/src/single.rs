//! The four single-tenant workloads, driven at the framework seam the
//! fleet scheduler itself uses: `run_epoch_leased` (the pause half, on a
//! harness-owned pool) and `finish_boundary` (the drain half).

use crimes::{BoundaryProgress, Crimes, CrimesConfig, EpochOutcome};
use crimes_checkpoint::{HypercallModel, PauseWindowPool};
use crimes_rng::ChaCha8Rng;
use crimes_vm::{Gva, Vm, VmError, PAGE_SIZE, WORKLOAD_RIP};
use crimes_workloads::profile::profile;
use crimes_workloads::{ParsecWorkload, WebIntensity, WebServerWorkload};

use crate::ledger::Ledger;
use crate::run::{Opts, Run};
use crate::shadow;
use crate::tenant;

/// Workers of the harness-owned pause-window pool and of `pause_workers`.
const POOL_WORKERS: usize = 2;
/// Sectors of the default virtual disk; disk-write outputs rotate over it.
const DISK_SECTORS: u64 = 4096;
/// Timed epoch after which the fingerprint is taken. Fixed, so the
/// fingerprint covers the same work however long or fast the run is.
pub const FINGERPRINT_EPOCH: u64 = 128;
/// Epochs per recording / control block of a traced run.
const TRACE_BLOCK: u64 = 16;
/// A traced run shadows every 8th epoch of its recording blocks.
const SHADOW_EVERY: u64 = 8;
const SHADOW_PHASE: u64 = 4;

/// Pages the `bulk_drain` guest process owns, and rewrites per epoch.
const BULK_ARENA_PAGES: usize = 4096;
const BULK_PAGES_PER_EPOCH: usize = 600;
const BULK_TEMPLATES: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoadKind {
    Web,
    Parsec,
    Bulk,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pages: usize,
    interval_ms: u64,
    /// Deferred + encoded drain (`staging_buffers(2).delta_threshold(64).dedup(true)`)
    /// instead of the in-window copy.
    deferred: bool,
    load: LoadKind,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "web_inline",
        pages: 8192,
        interval_ms: 20,
        deferred: false,
        load: LoadKind::Web,
    },
    Spec {
        name: "parsec_inline",
        pages: 16384,
        interval_ms: 200,
        deferred: false,
        load: LoadKind::Parsec,
    },
    Spec {
        name: "web_drain",
        pages: 8192,
        interval_ms: 20,
        deferred: true,
        load: LoadKind::Web,
    },
    Spec {
        name: "bulk_drain",
        pages: 16384,
        interval_ms: 20,
        deferred: true,
        load: LoadKind::Bulk,
    },
];

/// Kernels inside the pause and the drain of each pipeline: the fused
/// in-window walk digests as it copies; the deferred one only snapshots
/// and leaves digests, compare and encode to the drain.
const INLINE_PAUSE: &[&str] = &[
    "checkpoint.bitscan",
    "checkpoint.chunk_digest",
    "vmi.process_list",
    "vmi.canary_scan",
];
const DEFERRED_PAUSE: &[&str] = &["checkpoint.bitscan", "vmi.process_list", "vmi.canary_scan"];
const DEFERRED_DRAIN: &[&str] = &[
    "checkpoint.chunk_digest",
    "checkpoint.content_digest",
    "checkpoint.scan_page",
    "checkpoint.encode_page",
];

/// Rewrites whole pages: mostly fresh random bytes, some copies of a few
/// templates (dedup hits), some zero pages. Every page ships full or as
/// a dedup/zero marker, the opposite of the web workload's one-byte
/// writes.
#[derive(Debug)]
struct BulkWriter {
    pid: u32,
    base: Gva,
    rng: ChaCha8Rng,
    templates: Vec<Vec<u8>>,
    page: Vec<u8>,
}

impl BulkWriter {
    fn launch(vm: &mut Vm, seed: u64) -> Result<Self, VmError> {
        let pid = vm.spawn_process("bulk", 1000, BULK_ARENA_PAGES)?;
        let base = vm
            .processes()
            .get(pid)
            .map(|p| p.mapping.virt_base)
            .ok_or(VmError::Process(crimes_vm::ProcessError::NoSuchProcess(
                pid,
            )))?;
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xb01c);
        let templates = (0..BULK_TEMPLATES)
            .map(|_| {
                let mut t = vec![0u8; PAGE_SIZE];
                rng.fill(&mut t);
                t
            })
            .collect();
        Ok(BulkWriter {
            pid,
            base,
            rng,
            templates,
            page: vec![0u8; PAGE_SIZE],
        })
    }

    fn run_ms(&mut self, vm: &mut Vm, ms: u64) -> Result<(), VmError> {
        for _ in 0..BULK_PAGES_PER_EPOCH {
            let index = self.rng.gen_range(0..BULK_ARENA_PAGES);
            match self.rng.gen_range(0..10u32) {
                0..=6 => self.rng.fill(&mut self.page),
                7..=8 => {
                    let t = self.rng.gen_range(0..BULK_TEMPLATES);
                    self.page.copy_from_slice(&self.templates[t]);
                }
                _ => self.page.fill(0),
            }
            let gva = self.base.add((index * PAGE_SIZE) as u64);
            vm.write_user(self.pid, gva, &self.page, WORKLOAD_RIP)?;
        }
        vm.advance_time(ms * 1_000_000);
        Ok(())
    }
}

#[derive(Debug)]
enum Load {
    Web(WebServerWorkload),
    Parsec(ParsecWorkload),
    Bulk(BulkWriter),
}

impl Load {
    fn launch(kind: LoadKind, vm: &mut Vm, seed: u64) -> Result<Self, VmError> {
        Ok(match kind {
            LoadKind::Web => Load::Web(WebServerWorkload::launch(vm, WebIntensity::Medium, seed)?),
            LoadKind::Parsec => {
                let fluid = profile("fluidanimate").expect("fluidanimate is a bundled profile");
                Load::Parsec(ParsecWorkload::launch(vm, fluid, seed)?)
            }
            LoadKind::Bulk => Load::Bulk(BulkWriter::launch(vm, seed)?),
        })
    }

    fn run_ms(&mut self, vm: &mut Vm, ms: u64) -> Result<(), VmError> {
        match self {
            Load::Web(w) => w.run_ms(vm, ms),
            Load::Parsec(w) => w.run_ms(vm, ms),
            Load::Bulk(w) => w.run_ms(vm, ms),
        }
    }
}

struct Guest {
    crimes: Crimes,
    pool: PauseWindowPool,
    load: Load,
}

fn config(spec: &Spec) -> CrimesConfig {
    let mut b = CrimesConfig::builder();
    b.epoch_interval_ms(spec.interval_ms)
        .pause_workers(POOL_WORKERS)
        .external_pool(true);
    if spec.deferred {
        b.staging_buffers(2)
            .delta_threshold(shadow::DELTA_THRESHOLD)
            .dedup(true);
    }
    b.build()
        .expect("the benchmark's own configuration is valid")
}

/// Everything `setup_s` covers: guest build, workload launch,
/// `Crimes::protect`, module registration and the pause-window pool.
fn setup(spec: &Spec, seed: u64) -> Guest {
    let mut vm = Vm::builder().pages(spec.pages).seed(seed).build();
    let load = Load::launch(spec.load, &mut vm, seed).expect("guest has room for the workload");
    let mut crimes = Crimes::protect(vm, config(spec)).expect("a fresh guest can be protected");
    tenant::register_modules(&mut crimes);
    let pool = PauseWindowPool::new(POOL_WORKERS, spec.pages, HypercallModel::DEFAULT_STEPS);
    Guest { crimes, pool, load }
}

/// How one epoch ended, as far as the loop needs to know.
enum Ended {
    Committed,
    Extended,
    Failed,
    /// The monitor can run no further epochs (quarantine, lost sync).
    Dead,
}

struct Driver<'a> {
    spec: &'a Spec,
    run: &'a mut Run,
    ledger: Ledger,
    /// Epochs whose outputs are still held: (epoch, end of its work).
    unreleased: Vec<(u64, u64)>,
    next_epoch: u64,
}

impl Driver<'_> {
    /// One epoch: submit, work, (shadow), pause half, drain half.
    /// `timed` epochs contribute samples; `work` is off for settle epochs.
    fn epoch(&mut self, g: &mut Guest, timed: bool, work: bool, shadowed: bool) -> Ended {
        let index = self.next_epoch;
        self.next_epoch += 1;
        self.run.attempted += 1;
        let recording = self.run.tracer.is_recording();
        let interval_ms = self.spec.interval_ms;

        let t0 = self.run.tracer.now_ns();
        let epoch_span = self.run.tracer.span(self.run.root, "epoch", index, t0, t0);
        let mut submitted = true;
        if work {
            for _ in 0..4 {
                let packet = self.ledger.net_packet(index, false);
                submitted &= g.crimes.submit_output(packet).is_ok();
            }
            let write = self.ledger.disk_write(index % DISK_SECTORS);
            submitted &= g.crimes.submit_output(write).is_ok();
        }
        let t1 = self.run.tracer.now_ns();
        let worked = !work || g.load.run_ms(g.crimes.vm_mut(), interval_ms).is_ok();
        let t2 = self.run.tracer.now_ns();
        self.unreleased.push((index, t2));
        if shadowed {
            let old = g.crimes.checkpointer().backup().frames();
            shadow::run(&mut self.run.tracer, epoch_span, index, g.crimes.vm(), old);
            self.run.tracer.flag_shadow(epoch_span);
        }
        let t3 = self.run.tracer.now_ns();
        let progress = g.crimes.run_epoch_leased(&mut g.pool, |_, _| Ok(()));
        let t4 = self.run.tracer.now_ns();
        let (outcome, drained) = match progress {
            Ok(BoundaryProgress::Done(outcome)) => (Ok(outcome), false),
            Ok(BoundaryProgress::NeedsDrain(pending)) => (g.crimes.finish_boundary(pending), true),
            Err(e) => (Err(e), false),
        };
        let t5 = self.run.tracer.now_ns();

        self.run.tracer.span(epoch_span, "submit", index, t0, t1);
        self.run.tracer.span(epoch_span, "work", index, t1, t2);
        self.run.tracer.span(epoch_span, "pause", index, t3, t4);
        if drained {
            self.run.tracer.span(epoch_span, "drain", index, t4, t5);
        }
        self.run.tracer.close(epoch_span, t5);

        let sample = timed && !shadowed;
        if sample && outcome.is_ok() {
            self.run.pause_ns.push(t4 - t3);
            self.run.interval_ns += interval_ms * 1_000_000;
            if drained {
                self.run.drain_ns.push(t5 - t4);
            }
        }
        let ended = match outcome {
            Ok(EpochOutcome::Committed { released, .. }) => {
                for output in &released {
                    self.ledger.release(output);
                }
                for (_, work_end) in self.unreleased.drain(..) {
                    if sample {
                        self.run.lag_ns.push((t5 - work_end, recording));
                    }
                }
                if sample {
                    self.run.round_ns.push(t5 - t0);
                    self.run.committed_timed += 1;
                }
                Ended::Committed
            }
            Ok(EpochOutcome::Extended { .. }) => {
                // Fail-safe, not a failure: the outputs stay in the
                // ledger until a later commit releases them.
                self.run.extended += 1;
                Ended::Extended
            }
            Ok(EpochOutcome::AttackDetected { .. }) => {
                // An incident on a clean epoch. Roll back so the run can
                // go on; the buffer discards what it held.
                let rolled_back = g.crimes.rollback_and_resume().is_ok();
                self.ledger.discard_all_held();
                self.unreleased.clear();
                if rolled_back {
                    Ended::Failed
                } else {
                    Ended::Dead
                }
            }
            Ok(EpochOutcome::Degraded { .. }) => Ended::Failed,
            Err(_) => {
                // A failed commit already rolled the guest back and
                // discarded its outputs; the load generator's own state
                // no longer matches the guest, so stop here.
                self.ledger.discard_all_held();
                self.unreleased.clear();
                Ended::Dead
            }
        };
        if !(submitted && worked) || matches!(ended, Ended::Failed | Ended::Dead) {
            self.run.failed += 1;
        }
        if !worked {
            return Ended::Dead;
        }
        ended
    }
}

pub fn run(spec: &Spec, opts: Opts) -> Run {
    let mut run = Run::new(spec.name, opts);
    if spec.deferred {
        run.pause_kernels = DEFERRED_PAUSE;
        run.drain_kernels = DEFERRED_DRAIN;
    } else {
        run.pause_kernels = INLINE_PAUSE;
    }

    let mut g = run.timed_setups(|| setup(spec, opts.seed));

    let mut driver = Driver {
        spec,
        run: &mut run,
        ledger: Ledger::new(),
        unreleased: Vec::new(),
        next_epoch: 0,
    };

    let mut alive = true;
    driver.run.tracer.set_recording(false);
    for _ in 0..opts.warmup_epochs() {
        if matches!(driver.epoch(&mut g, false, true, false), Ended::Dead) {
            alive = false;
            break;
        }
    }

    let budget_ns = (opts.seconds * 1e9) as u64;
    let timed_start = driver.run.tracer.now_ns();
    let mut excluded_ns = 0u64;
    let mut clean = alive;
    let mut timed_epochs = 0u64;
    while alive && driver.run.tracer.now_ns() - timed_start < budget_ns {
        let recording = driver.run.set_block_recording(timed_epochs, TRACE_BLOCK);
        let shadowed = recording && timed_epochs % SHADOW_EVERY == SHADOW_PHASE;
        match driver.epoch(&mut g, true, true, shadowed) {
            Ended::Committed => {}
            Ended::Extended | Ended::Failed => clean = false,
            Ended::Dead => alive = false,
        }
        timed_epochs += 1;
        if timed_epochs == FINGERPRINT_EPOCH && clean && alive {
            // Only an undisturbed prefix is comparable across runs.
            let t0 = driver.run.tracer.now_ns();
            driver.run.fingerprint = Some(tenant::fingerprint(
                tenant::FINGERPRINT_SEED,
                &g.crimes,
                &driver.ledger,
            ));
            excluded_ns += driver.run.tracer.now_ns() - t0;
        }
    }
    driver.run.timed_wall_ns =
        (driver.run.tracer.now_ns() - timed_start).saturating_sub(excluded_ns);
    driver.run.tracer.set_recording(false);

    // Settle: an epoch extended at the very end still owes its outputs.
    for _ in 0..4 {
        if !alive || driver.unreleased.is_empty() {
            break;
        }
        alive = !matches!(driver.epoch(&mut g, false, false, false), Ended::Dead);
    }
    let ledger = std::mem::take(&mut driver.ledger);
    run.tracer.set_recording(opts.trace);

    run.check("the monitor survived the run", alive);
    for (name, ok) in tenant::audit(&mut run, &g.crimes, &ledger) {
        run.check(name, ok);
    }
    run.note_peak_rss();
    tenant::recover_and_commit(&mut run, &g.crimes, &mut g.pool);
    run.counts.absorb_telemetry(g.crimes.telemetry());
    run.finish();
    run
}
