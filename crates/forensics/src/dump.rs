//! Memory dumps — the artifacts post-mortem analysis works on.
//!
//! CRIMES generates "two memory dumps of the VM: one at the last known safe
//! checkpoint and the other at the point where the audit failed" (§3.3),
//! plus a third at the pinpointed attack instruction during replay. A
//! [`MemoryDump`] is such an artifact: a self-contained frame image with
//! the PFN→MFN table and the parsed `System.map` needed to re-address it
//! offline. The parse is the capturer's: an incident's dumps share the
//! monitor's, and a standalone capture parses once with
//! [`Symbols::parse`].

use crimes_vm::{GuestMemory, Mfn, Vm, PAGE_SIZE};
use crimes_vmi::{Symbols, VmiError, VmiSession};

/// Which moment a dump captures, relative to a detected attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DumpKind {
    /// The last committed clean checkpoint.
    LastGoodCheckpoint,
    /// The end of the epoch whose audit failed.
    AuditFailure,
    /// The instant of the attack, found during replay.
    AttackInstant,
    /// Any other capture.
    Adhoc,
}

impl DumpKind {
    /// Human-readable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            DumpKind::LastGoodCheckpoint => "last-good-checkpoint",
            DumpKind::AuditFailure => "audit-failure",
            DumpKind::AttackInstant => "attack-instant",
            DumpKind::Adhoc => "adhoc",
        }
    }
}

/// A self-contained guest memory dump.
#[derive(Debug, Clone)]
pub struct MemoryDump {
    mem: GuestMemory,
    symbols: Symbols,
    kind: DumpKind,
    guest_time_ns: u64,
}

impl MemoryDump {
    /// Capture the VM's current memory, addressed through `symbols`
    /// (parsed from `vm`'s kernel build).
    pub fn from_vm(vm: &Vm, symbols: &Symbols, kind: DumpKind) -> Self {
        MemoryDump {
            mem: GuestMemory::from_raw_parts(
                vm.memory().dump_frames(),
                vm.memory().pfn_to_mfn_table().to_vec(),
            ),
            symbols: symbols.clone(),
            kind,
            guest_time_ns: vm.now_ns(),
        }
    }

    /// Build a dump from a raw frame image (e.g. the checkpointer's backup
    /// VM), borrowing addressing metadata from the live VM.
    ///
    /// # Panics
    ///
    /// Panics if `frames` does not match the VM's memory size.
    pub fn from_frames(
        frames: &[u8],
        vm: &Vm,
        symbols: &Symbols,
        kind: DumpKind,
        guest_time_ns: u64,
    ) -> Self {
        MemoryDump {
            mem: GuestMemory::from_raw_parts(
                frames.to_vec(),
                vm.memory().pfn_to_mfn_table().to_vec(),
            ),
            symbols: symbols.clone(),
            kind,
            guest_time_ns,
        }
    }

    /// What this dump captures.
    pub fn kind(&self) -> DumpKind {
        self.kind
    }

    /// Guest time at capture.
    pub fn guest_time_ns(&self) -> u64 {
        self.guest_time_ns
    }

    /// The addressable memory view.
    pub fn memory(&self) -> &GuestMemory {
        &self.mem
    }

    /// The parsed symbol table shipped with the dump.
    pub fn symbols(&self) -> &Symbols {
        &self.symbols
    }

    /// Number of guest pages.
    pub fn num_pages(&self) -> usize {
        self.mem.num_pages()
    }

    /// Dump size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.num_pages() * PAGE_SIZE
    }

    /// Open an introspection session over this dump on its shipped
    /// symbols: kernel detection and translation caches, never a symbol
    /// parse.
    ///
    /// # Errors
    ///
    /// Fails if the dump's kernel structures are too damaged to initialise
    /// against.
    pub fn open_session(&self) -> Result<VmiSession, VmiError> {
        VmiSession::open(&self.symbols, &self.mem)
    }

    /// Raw page content by guest frame number (for diffing).
    pub fn page(&self, pfn: crimes_vm::Pfn) -> &[u8] {
        self.mem.page(pfn)
    }

    /// The PFN→MFN table.
    pub fn pfn_to_mfn_table(&self) -> &[Mfn] {
        self.mem.pfn_to_mfn_table()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crimes_vm::Pfn;

    fn vm() -> Vm {
        let mut b = Vm::builder();
        b.pages(2048).seed(8);
        b.build()
    }

    fn symbols(vm: &Vm) -> Symbols {
        Symbols::parse(vm.system_map()).expect("parse")
    }

    #[test]
    fn dump_is_independent_of_the_live_vm() {
        let mut vm = vm();
        let pid = vm.spawn_process("app", 0, 4).unwrap();
        let obj = vm.malloc(pid, 16).unwrap();
        vm.write_user(pid, obj, b"at-dump", 0).unwrap();
        let dump = MemoryDump::from_vm(&vm, &symbols(&vm), DumpKind::Adhoc);
        vm.write_user(pid, obj, b"later!!", 0).unwrap();

        // The dump still reads the old bytes.
        let gpa = vm
            .processes()
            .get(pid)
            .unwrap()
            .mapping
            .translate(obj)
            .unwrap();
        assert!(dump.memory().peek_array::<7>(gpa).unwrap() == *b"at-dump");
    }

    #[test]
    fn dump_session_walks_kernel_structures() {
        let mut vm = vm();
        vm.spawn_process("nginx", 33, 4).unwrap();
        let symbols = symbols(&vm);
        let dump = MemoryDump::from_vm(&vm, &symbols, DumpKind::AuditFailure);
        let session = dump.open_session().expect("session over dump");
        assert!(Symbols::ptr_eq(session.symbols(), &symbols), "opened, not parsed");
        let tasks = crimes_vmi::linux::process_list(&session, dump.memory()).unwrap();
        assert!(tasks.iter().any(|t| t.comm == "nginx"));
    }

    #[test]
    fn from_frames_builds_checkpoint_dump() {
        let mut vm = vm();
        let pid = vm.spawn_process("app", 0, 4).unwrap();
        let clean = vm.memory().dump_frames();
        vm.dirty_arena_page(pid, 0, 0, 0xff).unwrap();
        let dump =
            MemoryDump::from_frames(&clean, &vm, &symbols(&vm), DumpKind::LastGoodCheckpoint, 123);
        assert_eq!(dump.kind(), DumpKind::LastGoodCheckpoint);
        assert_eq!(dump.guest_time_ns(), 123);
        // The checkpoint dump shows the pre-write value.
        let phys = vm.processes().get(pid).unwrap().mapping.phys_base;
        assert!(dump.memory().peek_array::<1>(phys).unwrap() == [0]);
        assert!(vm.memory().peek_array::<1>(phys).unwrap() == [0xff]);
    }

    #[test]
    fn metadata_accessors() {
        let vm = vm();
        let dump = MemoryDump::from_vm(&vm, &symbols(&vm), DumpKind::AttackInstant);
        assert_eq!(dump.num_pages(), 2048);
        assert_eq!(dump.size_bytes(), 2048 * PAGE_SIZE);
        assert_eq!(dump.kind().label(), "attack-instant");
        assert!(dump.symbols().map().lookup("sys_call_table").is_some());
        let _ = dump.page(Pfn(0));
    }

    #[test]
    fn kind_labels_are_distinct() {
        let labels = [
            DumpKind::LastGoodCheckpoint.label(),
            DumpKind::AuditFailure.label(),
            DumpKind::AttackInstant.label(),
            DumpKind::Adhoc.label(),
        ];
        let mut dedup = labels.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }
}
