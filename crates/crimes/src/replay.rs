//! Rollback & replay — pinpointing the exact instruction of an attack
//! (§3.3 "Rollback and Replay", §4.2's replay flow, Figure 8).
//!
//! After a canary violation, the epoch is re-executed from the last clean
//! checkpoint with Xen-style memory-event monitoring armed on the page(s)
//! holding the corrupted canary. The first monitored write that overlaps
//! the canary bytes *is* the overflow; the VM is paused at that point and
//! the attack-instant dump captured.
//!
//! The paper's prototype replays best-effort (no determinism guarantee,
//! §6); this substrate's op traces are deterministic, so the pinpoint here
//! is exact by construction.

use crimes_vm::layout::CANARY_LEN;
use crimes_vm::{Guest, GuestOp, Gva, MetaSnapshot, Vm};
use crimes_vmi::{MemEventMonitor, VmiError, VmiSession};

use crate::error::CrimesError;

/// The pinpointed attack instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackPinpoint {
    /// Guest instruction pointer of the corrupting write.
    pub rip: u64,
    /// Index of the corrupting operation within the replayed epoch.
    pub op_index: usize,
    /// Start address of the corrupting write (guest physical).
    pub write_gpa: crimes_vm::Gpa,
    /// Length of the corrupting write.
    pub write_len: usize,
    /// The canary bytes before the write.
    pub canary_before: Vec<u8>,
    /// The canary bytes after the write.
    pub canary_after: Vec<u8>,
    /// Number of operations replayed in total before stopping.
    pub ops_replayed: usize,
}

/// The replay engine.
#[derive(Debug, Default)]
pub struct ReplayEngine;

impl ReplayEngine {
    /// Create the engine.
    pub fn new() -> Self {
        ReplayEngine
    }

    /// Roll `vm` back to the clean checkpoint (`backup_frames` + `meta`)
    /// and re-execute `ops` with event monitoring armed on the canary at
    /// `(pid, canary_gva)`. Returns the pinpoint, leaving the VM paused at
    /// the corrupting operation — or `None` if no replayed write touched
    /// the canary (e.g. non-memory evidence), with the VM at epoch end.
    ///
    /// # Errors
    ///
    /// Fails if the canary address cannot be translated or a replayed op
    /// faults (which deterministic traces rule out), or with
    /// [`CrimesError::ReplayDiverged`] when the replayed execution departs
    /// from the recorded trace (detected per-op; surfaced rather than
    /// silently producing a wrong pinpoint — the analyzer degrades to a
    /// no-pinpoint report).
    #[allow(clippy::too_many_arguments)]
    pub fn pinpoint_canary_attack(
        &self,
        vm: &mut Vm,
        backup_frames: &[u8],
        backup_disk: &[u8],
        meta: &MetaSnapshot,
        ops: &[GuestOp],
        pid: u32,
        canary_gva: Gva,
    ) -> Result<Option<AttackPinpoint>, CrimesError> {
        let secret = vm.canary_secret();
        // Roll back to the clean snapshot (memory and disk).
        vm.restore_with_frames(backup_frames, meta);
        vm.disk_mut().restore(backup_disk);

        // The canary may not exist yet at the checkpoint (the victim
        // object might be allocated during the replayed epoch). Arm the
        // page lazily: try now; if translation fails, re-try after every
        // op until it succeeds.
        let monitor = MemEventMonitor::new();
        let mut session = VmiSession::init(vm)?;
        let mut armed = self.try_arm(&mut session, vm, pid, canary_gva, &monitor)?;

        for (idx, op) in ops.iter().enumerate() {
            // Divergence check: the substrate's traces are deterministic,
            // so divergence only arises from injected faults — but a real
            // hypervisor's best-effort replay (paper §6) can diverge, and
            // the caller must see that, not a bogus pinpoint.
            if crimes_faults::should_inject(crimes_faults::FaultPoint::ReplayDiverge) {
                monitor.disarm_all(vm);
                return Err(CrimesError::ReplayDiverged { op_index: idx });
            }
            vm.apply(op)?;
            if !armed {
                armed = self.try_arm(&mut session, vm, pid, canary_gva, &monitor)?;
                // Events cannot predate arming; nothing to poll yet.
                continue;
            }
            let canary_gpa =
                session.translate_user(pid, Guest::new(canary_gva), CANARY_LEN as u64)?;
            for ev in monitor.poll(vm) {
                let overlaps = ev.gpa.0 < canary_gpa.0 + CANARY_LEN as u64
                    && canary_gpa.0 < ev.gpa.0 + ev.len as u64;
                if !overlaps {
                    continue;
                }
                // The guest allocator's own writes (placing or replacing
                // the canary) are legitimate: a write is only the attack
                // if the canary no longer holds the secret afterwards —
                // the same validity check the paper's replay performs.
                let now = vm
                    .memory()
                    .peek_array::<CANARY_LEN>(canary_gpa)
                    .map_err(VmiError::from)?;
                if now == secret {
                    continue;
                }
                // Extract the canary's before/after bytes from the event's
                // captured ranges where they overlap.
                let canary_before = slice_overlap(&ev.old_bytes, ev.gpa.0, canary_gpa.0);
                let canary_after = slice_overlap(&ev.new_bytes, ev.gpa.0, canary_gpa.0);
                // Pause at the attack instant.
                vm.vcpus_mut().pause_all();
                monitor.disarm_all(vm);
                return Ok(Some(AttackPinpoint {
                    rip: ev.rip,
                    op_index: idx,
                    write_gpa: ev.gpa,
                    write_len: ev.len,
                    canary_before,
                    canary_after,
                    ops_replayed: idx + 1,
                }));
            }
        }
        monitor.disarm_all(vm);
        Ok(None)
    }

    fn try_arm(
        &self,
        session: &mut VmiSession,
        vm: &mut Vm,
        pid: u32,
        canary_gva: Gva,
        monitor: &MemEventMonitor,
    ) -> Result<bool, CrimesError> {
        session.refresh_address_spaces(vm.memory())?;
        match monitor.arm_user_span(session, vm, pid, canary_gva, CANARY_LEN as u64) {
            Ok(()) => Ok(true),
            Err(VmiError::NoSuchTask(_)) | Err(VmiError::TranslationFault(_)) => Ok(false),
            Err(e) => Err(e.into()),
        }
    }
}

/// The bytes of `captured` (which starts at absolute address `base`) that
/// cover `[target, target + CANARY_LEN)`.
fn slice_overlap(captured: &[u8], base: u64, target: u64) -> Vec<u8> {
    let start = (target.saturating_sub(base) as usize).min(captured.len());
    let end = ((target + CANARY_LEN as u64).saturating_sub(base) as usize).min(captured.len());
    // `get` also covers `start > end` (a target entirely before `base`),
    // which the old slice-index version would have panicked on.
    captured.get(start..end).map(<[u8]>::to_vec).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crimes_workloads::attacks::{self, attack_rips};

    fn vm() -> Vm {
        let mut b = Vm::builder();
        b.pages(4096).seed(44);
        b.build()
    }

    /// Run a full detect→replay cycle and return the pinpoint.
    fn attack_and_replay(noise_before: usize, noise_after: usize) -> (AttackPinpoint, usize) {
        let mut vm = vm();
        vm.set_recording(true);
        let pid = vm.spawn_process("victim", 0, 32).expect("spawn");
        let frames = vm.memory().dump_frames();
        let disk = vm.disk().dump();
        let meta = vm.meta_snapshot();
        let mark = vm.trace_mark();

        // Epoch: legitimate noise, then the attack, then more noise.
        for i in 0..noise_before {
            vm.dirty_arena_page(pid, i % 8, i, 1).expect("dirty");
        }
        let rec = attacks::inject_heap_overflow(&mut vm, pid, 64, 16).expect("attack");
        for i in 0..noise_after {
            vm.dirty_arena_page(pid, 8 + i % 8, i, 2).expect("dirty");
        }
        let crimes_workloads::AttackRecord::HeapOverflow { object, size, .. } = rec else {
            panic!("wrong record")
        };
        let canary_gva = object.add(size);
        let ops = vm.trace_since(mark);
        let total_ops = ops.len();

        let pin = ReplayEngine::new()
            .pinpoint_canary_attack(&mut vm, &frames, &disk, &meta, &ops, pid, canary_gva)
            .expect("replay")
            .expect("attack must be pinpointed");
        assert!(vm.vcpus().all_paused(), "VM pauses at the attack instant");
        (pin, total_ops)
    }

    #[test]
    fn pinpoints_the_overflowing_instruction() {
        let (pin, _) = attack_and_replay(10, 10);
        assert_eq!(pin.rip, attack_rips::HEAP_OVERFLOW);
        assert_eq!(pin.canary_after, vec![0x41u8; CANARY_LEN]);
    }

    #[test]
    fn replay_stops_before_post_attack_noise() {
        let (pin, total_ops) = attack_and_replay(5, 50);
        assert!(
            pin.ops_replayed < total_ops,
            "replay must stop at the attack ({} of {total_ops})",
            pin.ops_replayed
        );
    }

    #[test]
    fn pinpoint_records_original_canary_bytes() {
        let mut vm = vm();
        let secret = vm.canary_secret();
        vm.set_recording(true);
        let pid = vm.spawn_process("victim", 0, 16).expect("spawn");
        // Allocate BEFORE the checkpoint so the canary exists at arm time.
        let obj = vm.malloc(pid, 32).expect("malloc");
        let frames = vm.memory().dump_frames();
        let disk = vm.disk().dump();
        let meta = vm.meta_snapshot();
        let mark = vm.trace_mark();
        vm.write_user(pid, obj, &[0x42u8; 48], 0x1337).expect("write");
        let ops = vm.trace_since(mark);
        let pin = ReplayEngine::new()
            .pinpoint_canary_attack(&mut vm, &frames, &disk, &meta, &ops, pid, obj.add(32))
            .expect("replay")
            .expect("pinpoint");
        assert_eq!(pin.rip, 0x1337);
        assert_eq!(pin.canary_before, secret.to_vec());
        assert_eq!(pin.canary_after, vec![0x42u8; CANARY_LEN]);
    }

    #[test]
    fn clean_epoch_replays_to_none() {
        let mut vm = vm();
        vm.set_recording(true);
        let pid = vm.spawn_process("app", 0, 16).expect("spawn");
        let obj = vm.malloc(pid, 32).expect("malloc");
        let frames = vm.memory().dump_frames();
        let disk = vm.disk().dump();
        let meta = vm.meta_snapshot();
        let mark = vm.trace_mark();
        vm.write_user(pid, obj, &[1u8; 32], 0).expect("write"); // in bounds
        let ops = vm.trace_since(mark);
        let pin = ReplayEngine::new()
            .pinpoint_canary_attack(&mut vm, &frames, &disk, &meta, &ops, pid, obj.add(32))
            .expect("replay");
        assert!(pin.is_none());
    }

    #[test]
    fn replayed_memory_matches_original_up_to_attack() {
        let mut vm = vm();
        vm.set_recording(true);
        let pid = vm.spawn_process("victim", 0, 16).expect("spawn");
        let frames = vm.memory().dump_frames();
        let disk = vm.disk().dump();
        let meta = vm.meta_snapshot();
        let mark = vm.trace_mark();
        let rec = attacks::inject_heap_overflow(&mut vm, pid, 16, 8).expect("attack");
        let attacked = vm.memory().dump_frames();
        let crimes_workloads::AttackRecord::HeapOverflow { object, size, .. } = rec else {
            panic!()
        };
        let ops = vm.trace_since(mark);
        ReplayEngine::new()
            .pinpoint_canary_attack(&mut vm, &frames, &disk, &meta, &ops, pid, object.add(size))
            .expect("replay")
            .expect("pinpoint");
        // The attack was the last op, so the replayed image equals the
        // attacked image.
        assert_eq!(vm.memory().dump_frames(), attacked);
    }

    #[test]
    fn injected_divergence_surfaces_as_error() {
        let mut vm = vm();
        vm.set_recording(true);
        let pid = vm.spawn_process("victim", 0, 16).expect("spawn");
        let obj = vm.malloc(pid, 32).expect("malloc");
        let frames = vm.memory().dump_frames();
        let disk = vm.disk().dump();
        let meta = vm.meta_snapshot();
        let mark = vm.trace_mark();
        vm.write_user(pid, obj, &[0x42u8; 48], 0x1337).expect("write");
        let ops = vm.trace_since(mark);
        let _scope = crimes_faults::install(
            crimes_faults::FaultPlan::disabled()
                .with_rate(crimes_faults::FaultPoint::ReplayDiverge, crimes_faults::SCALE),
            5,
        );
        let err = ReplayEngine::new()
            .pinpoint_canary_attack(&mut vm, &frames, &disk, &meta, &ops, pid, obj.add(32))
            .expect_err("full-rate divergence");
        assert_eq!(err, CrimesError::ReplayDiverged { op_index: 0 });
    }

    #[test]
    fn slice_overlap_extracts_canary_window() {
        // Write of 12 bytes at base 100; canary at 104.
        let captured: Vec<u8> = (0..12).collect();
        let got = slice_overlap(&captured, 100, 104);
        assert_eq!(got, (4..12).collect::<Vec<u8>>());
        // Write fully inside the canary: partial overlap from index 0.
        let got = slice_overlap(&[9, 9], 105, 104);
        assert_eq!(got, vec![9, 9]);
    }
}
