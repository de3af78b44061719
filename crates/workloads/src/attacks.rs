//! Attack injectors: reproducible versions of every attack the paper's
//! evaluation exercises, issued through the same guest-op interface as
//! legitimate work (so replay, dirty tracking, and detection treat them
//! identically — nothing marks them as attacks except the evidence they
//! leave).

use crimes_vm::{Gva, TcpState, Vm, VmError};

/// Synthetic instruction pointers used by injected attack code, so a
/// replay pinpoint can be asserted against ground truth.
pub mod attack_rips {
    /// The overflowing store of [`super::inject_heap_overflow`].
    pub const HEAP_OVERFLOW: u64 = 0xdead_beef_0000_1000;
    /// The registry-read loop of the §5.6 malware.
    pub const MALWARE_MAIN: u64 = 0xdead_beef_0000_2000;
}

/// What an injected attack did, for ground-truth assertions in tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttackRecord {
    /// A heap overflow overwrote `overrun` bytes past `object`.
    HeapOverflow {
        /// Victim pid.
        pid: u32,
        /// Overflowed object.
        object: Gva,
        /// Declared object size.
        size: u64,
        /// Bytes written past the object end.
        overrun: u64,
    },
    /// Syscall-table entry `idx` now points at `handler`.
    SyscallHijack {
        /// Hijacked index.
        idx: usize,
        /// Malicious handler address.
        handler: u64,
    },
    /// `pid` was unlinked from the task list.
    RootkitHide {
        /// Hidden pid.
        pid: u32,
    },
    /// A task's credentials were DKOM-patched to root.
    PrivilegeEscalation {
        /// Escalated pid.
        pid: u32,
    },
    /// A blacklisted process started exfiltrating.
    MalwareLaunch {
        /// Malware pid.
        pid: u32,
        /// Process name.
        name: String,
    },
}

/// Allocate a victim buffer and overflow it by `overrun` bytes — the §5.5
/// case-study attack. The overflowing store is attributed to
/// [`attack_rips::HEAP_OVERFLOW`], which replay should pinpoint.
///
/// # Errors
///
/// Fails if the victim allocation fails.
pub fn inject_heap_overflow(
    vm: &mut Vm,
    pid: u32,
    object_size: u64,
    overrun: u64,
) -> Result<AttackRecord, VmError> {
    let object = vm.malloc(pid, object_size)?;
    let payload = vec![0x41u8; (object_size + overrun) as usize];
    vm.write_user(pid, object, &payload, attack_rips::HEAP_OVERFLOW)?;
    Ok(AttackRecord::HeapOverflow {
        pid,
        object,
        size: object_size,
        overrun,
    })
}

/// Hijack syscall `idx`, pointing it at attacker-controlled code.
///
/// # Errors
///
/// Fails if `idx` is out of range.
pub fn inject_syscall_hijack(vm: &mut Vm, idx: usize) -> Result<AttackRecord, VmError> {
    let handler = 0xbad0_0000_0000_0000 + idx as u64;
    vm.hijack_syscall(idx, handler)?;
    Ok(AttackRecord::SyscallHijack { idx, handler })
}

/// Spawn a process and DKOM-hide it from the task list.
///
/// # Errors
///
/// Fails if the spawn fails.
pub fn inject_rootkit_hide(vm: &mut Vm, name: &str) -> Result<AttackRecord, VmError> {
    let pid = vm.spawn_process(name, 0, 2)?;
    vm.hide_process(pid)?;
    Ok(AttackRecord::RootkitHide { pid })
}

/// Spawn an unprivileged process and DKOM-patch its credentials to root.
///
/// # Errors
///
/// Fails if the spawn fails.
pub fn inject_privilege_escalation(vm: &mut Vm, name: &str) -> Result<AttackRecord, VmError> {
    let pid = vm.spawn_process(name, 1000, 2)?;
    vm.escalate_privileges(pid)?;
    Ok(AttackRecord::PrivilegeEscalation { pid })
}

/// Launch the §5.6 malware: a blacklisted process that reads registry
/// data, writes it to a loot file, and opens a socket to an external
/// aggregation server (104.28.18.89:8080, as in the paper's report).
///
/// # Errors
///
/// Fails if the spawn or its kernel objects fail.
pub fn inject_malware_launch(vm: &mut Vm, name: &str) -> Result<AttackRecord, VmError> {
    let pid = vm.spawn_process(name, 1000, 4)?;
    // Registry sweep: the malware touches its working buffer.
    let buf = vm.malloc(pid, 4096)?;
    vm.write_user(pid, buf, &[0x52u8; 1024], attack_rips::MALWARE_MAIN)?;
    vm.open_file(pid, r"\Device\HarddiskVolume2\Windows")?;
    vm.open_file(pid, r"\Device\HarddiskVolume2\Users\root\Desktop")?;
    vm.open_file(
        pid,
        r"\Device\HarddiskVolume2\Users\root\Desktop\write_file.txt",
    )?;
    // The loot file's contents persist to the virtual disk — state that a
    // rollback must revert along with memory.
    vm.write_disk(64, b"HKLM\\SOFTWARE dump: <registry secrets>")?;
    vm.open_socket(
        pid,
        6,
        u32::from_be_bytes([192, 168, 1, 76]),
        49164,
        u32::from_be_bytes([104, 28, 18, 89]),
        8080,
        TcpState::CloseWait,
    )?;
    Ok(AttackRecord::MalwareLaunch {
        pid,
        name: name.to_owned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crimes_vm::layout::CANARY_LEN;

    fn vm() -> Vm {
        let mut b = Vm::builder();
        b.pages(4096).seed(19);
        b.build()
    }

    #[test]
    fn heap_overflow_tramples_the_canary() {
        let mut vm = vm();
        let pid = vm.spawn_process("victim", 0, 16).unwrap();
        let rec = inject_heap_overflow(&mut vm, pid, 64, 8).unwrap();
        let AttackRecord::HeapOverflow { object, size, .. } = rec else {
            panic!("wrong record");
        };
        let mut canary = [0u8; CANARY_LEN];
        vm.read_user(pid, object.add(size), &mut canary).unwrap();
        assert_eq!(canary, [0x41u8; CANARY_LEN]);
        assert_ne!(canary, vm.canary_secret());
    }

    #[test]
    fn small_overrun_still_damages_canary_prefix() {
        let mut vm = vm();
        let pid = vm.spawn_process("victim", 0, 16).unwrap();
        inject_heap_overflow(&mut vm, pid, 64, 1).unwrap();
        // One byte past the object corrupts the canary's first byte.
        let allocs = vm.heap().allocations_of(pid);
        let mut canary = [0u8; CANARY_LEN];
        vm.read_user(pid, allocs[0].canary_gva, &mut canary)
            .unwrap();
        assert_ne!(canary, vm.canary_secret());
    }

    #[test]
    fn syscall_hijack_changes_table() {
        let mut vm = vm();
        let rec = inject_syscall_hijack(&mut vm, 13).unwrap();
        let AttackRecord::SyscallHijack { idx, handler } = rec else {
            panic!("wrong record");
        };
        assert_eq!(idx, 13);
        let at = vm.layout().syscall_table.add(13 * 8);
        assert!(vm.memory().peek_u64(at).unwrap() == handler);
    }

    #[test]
    fn rootkit_hide_removes_from_task_list_only() {
        let mut vm = vm();
        let rec = inject_rootkit_hide(&mut vm, "rootkitd").unwrap();
        let AttackRecord::RootkitHide { pid } = rec else {
            panic!("wrong record");
        };
        assert_eq!(vm.kernel().hidden_pids(), &[pid]);
    }

    #[test]
    fn malware_leaves_paper_case_study_artifacts() {
        let mut vm = vm();
        let rec = inject_malware_launch(&mut vm, "reg_read.exe").unwrap();
        let AttackRecord::MalwareLaunch { pid, name } = rec else {
            panic!("wrong record");
        };
        assert_eq!(name, "reg_read.exe");
        assert!(vm.kernel().task_slot_of(pid).is_some());
        // Three file handles + one socket, checked via kernel memory in
        // the forensics tests; here just confirm the process exists and
        // heap activity happened.
        assert!(vm.heap().live_count() >= 1);
    }

    #[test]
    fn attacks_are_replayable_ops() {
        let mut vm = vm();
        vm.set_recording(true);
        let pid = vm.spawn_process("victim", 0, 16).unwrap();
        let snap = vm.snapshot();
        let mark = vm.trace_mark();
        inject_heap_overflow(&mut vm, pid, 32, 16).unwrap();
        let after = vm.memory().dump_frames();
        let ops = vm.trace_since(mark);
        vm.restore(&snap);
        for op in &ops {
            vm.apply(op).unwrap();
        }
        assert_eq!(vm.memory().dump_frames(), after);
    }
}
