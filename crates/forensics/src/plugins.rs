//! Volatility-equivalent analysis plugins.
//!
//! §4.2 and §5.5–5.6 of the paper run `pslist`, `psscan`, `psxview`,
//! `procdump`, `netscan`, `handles` and `linux_dump_map` over CRIMES'
//! memory dumps. Those this system reads are reimplemented here over
//! [`MemoryDump`] and called directly: the Analyzer, its report and the
//! async scans want rows, not a run-by-name front end.
//!
//! * [`pslist`] — walk the task list (fast, fooled by DKOM),
//! * [`psscan`] — heuristic sweep of *all* physical memory for task-struct
//!   magic (slow, O(memory), sees hidden and recently-freed tasks),
//! * [`psxview`] — cross-view comparison of pslist / psscan / pid-hash;
//!   a row visible to psscan or the pid hash but not pslist is a hidden
//!   process,
//! * [`procdump`] — extract one process's user memory for sandbox analysis,
//! * [`netscan`] — sweep the socket table,
//! * [`handles`] — sweep the open-file table,
//! * [`modscan`] — sweep the module slab.

use crimes_vm::kernel::{TaskState, TcpState};
use crimes_vm::layout::{
    file_offsets, socket_offsets, task_offsets, FILE_STRUCT_SIZE, SOCKET_STRUCT_SIZE,
    TASK_FREED_MAGIC, TASK_MAGIC, TASK_STRUCT_SIZE,
};
use crimes_vm::symbols::names;
use crimes_vm::{Gpa, Guest, Gva};
use crimes_vmi::{linux, TaskInfo, VmiError, VmiSession};

use crate::dump::MemoryDump;

/// A task found by the heuristic scanner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScannedTask {
    /// Decoded task fields.
    pub task: TaskInfo,
    /// `true` if the slab slot was marked freed (an exited process whose
    /// memory has not been scrubbed).
    pub freed: bool,
    /// Physical address the scanner hit.
    pub found_at: Gpa,
}

/// One row of the `psxview` cross-view table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PsxviewRow {
    /// Process id.
    pub pid: u32,
    /// Command name (from whichever view saw it).
    pub comm: String,
    /// Visible to the task-list walk.
    pub in_pslist: bool,
    /// Visible to the heuristic memory scan (live slots only).
    pub in_psscan: bool,
    /// Visible in the pid hash.
    pub in_pid_hash: bool,
}

impl PsxviewRow {
    /// `true` when the visibility pattern indicates a DKOM-hidden process:
    /// some view still sees it but the task list does not.
    pub fn is_suspicious(&self) -> bool {
        !self.in_pslist && (self.in_psscan || self.in_pid_hash)
    }
}

/// A socket reported by [`netscan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SocketInfo {
    /// Owning pid.
    pub pid: u32,
    /// Protocol number (6 = TCP, 17 = UDP).
    pub proto: u16,
    /// TCP state.
    pub state: TcpState,
    /// Local IPv4 address.
    pub laddr: u32,
    /// Local port.
    pub lport: u16,
    /// Foreign IPv4 address.
    pub faddr: u32,
    /// Foreign port.
    pub fport: u16,
}

impl SocketInfo {
    /// `"192.168.1.76:49164"`-style endpoint formatting.
    pub fn local_endpoint(&self) -> String {
        format_endpoint(self.laddr, self.lport)
    }

    /// Foreign endpoint formatting.
    pub fn foreign_endpoint(&self) -> String {
        format_endpoint(self.faddr, self.fport)
    }

    /// Protocol name as `netscan` prints it.
    pub fn proto_name(&self) -> &'static str {
        match self.proto {
            6 => "TCPv4",
            17 => "UDPv4",
            _ => "RAW",
        }
    }
}

/// An open file reported by [`handles`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileHandleInfo {
    /// Owning pid.
    pub pid: u32,
    /// Path.
    pub path: String,
}

/// Walk the task list of a dump (Volatility `pslist` / `linux_pslist`).
///
/// # Errors
///
/// Fails on a corrupted task list.
pub fn pslist(session: &VmiSession, dump: &MemoryDump) -> Result<Vec<TaskInfo>, VmiError> {
    linux::process_list(session, dump.memory())
}

/// Heuristic sweep of all physical memory for task structs (Volatility
/// `psscan`): every [`TASK_STRUCT_SIZE`]-aligned slot of every page is
/// tested for the live or freed magic. Costs O(memory) — this is why the
/// paper keeps Volatility off the synchronous path (§5.3).
pub fn psscan(dump: &MemoryDump) -> Vec<ScannedTask> {
    let mem = dump.memory();
    let mut found = Vec::new();
    let slots = mem.size_bytes() as u64 / TASK_STRUCT_SIZE;
    for slot in 0..slots {
        let gpa = Gpa(slot * TASK_STRUCT_SIZE);
        let Ok(magic) = mem.peek_u32(gpa.add(task_offsets::MAGIC)) else {
            continue;
        };
        if magic != TASK_MAGIC && magic != TASK_FREED_MAGIC {
            continue;
        }
        // Plausibility filter, like Volatility's sanity checks: the
        // list pointers must look like kernel addresses.
        let is_kernel = |off| {
            mem.peek_u64(gpa.add(off))
                .is_ok_and(|p| Guest::<Gva>::from(p).kernel_to_gpa().is_some())
        };
        if !is_kernel(task_offsets::NEXT) || !is_kernel(task_offsets::PREV) {
            continue;
        }
        let Ok(task) = linux::read_task(mem, gpa) else {
            continue;
        };
        found.push(ScannedTask {
            task,
            freed: magic == TASK_FREED_MAGIC,
            found_at: gpa,
        });
    }
    found
}

/// Cross-view process listing (Volatility `psxview` / `linux_psxview`).
///
/// # Errors
///
/// Fails if the pslist walk or pid-hash read fails.
pub fn psxview(session: &VmiSession, dump: &MemoryDump) -> Result<Vec<PsxviewRow>, VmiError> {
    let list = pslist(session, dump)?;
    let scan = psscan(dump);
    let hash = linux::pid_hash_entries(session, dump.memory())?;

    let mut rows: Vec<PsxviewRow> = Vec::new();
    let row_for = |pid: u32, comm: &str, rows: &mut Vec<PsxviewRow>| -> usize {
        if let Some(i) = rows.iter().position(|r| r.pid == pid) {
            i
        } else {
            rows.push(PsxviewRow {
                pid,
                comm: comm.to_owned(),
                in_pslist: false,
                in_psscan: false,
                in_pid_hash: false,
            });
            rows.len() - 1
        }
    };

    for t in &list {
        let i = row_for(t.pid, &t.comm, &mut rows);
        rows[i].in_pslist = true;
    }
    for s in scan.iter().filter(|s| !s.freed) {
        let i = row_for(s.task.pid, &s.task.comm, &mut rows);
        rows[i].in_psscan = true;
    }
    for e in &hash {
        // Resolve the comm via the task struct the hash points at.
        let t = linux::read_task_at(session, dump.memory(), e.task_gva)?;
        let i = row_for(e.pid, &t.comm, &mut rows);
        rows[i].in_pid_hash = true;
    }
    rows.sort_by_key(|r| r.pid);
    Ok(rows)
}

/// Extract a process's user memory (Volatility `procdump` /
/// `linux_dump_map`). Returns the raw bytes of its mapping.
///
/// # Errors
///
/// Fails if the pid is not visible, or with [`VmiError::OutOfImage`] if
/// its task struct claims a mapping larger than, or outside, the dump.
pub fn procdump(session: &VmiSession, dump: &MemoryDump, pid: u32) -> Result<Vec<u8>, VmiError> {
    let space = session
        .address_space(pid)
        .ok_or(VmiError::NoSuchTask(pid))?;
    let len = space.len.extent(dump.size_bytes())?;
    let gpa = session.translate_user(pid, space.virt_base, len as u64)?;
    let mut out = vec![0u8; len];
    dump.memory().peek(gpa, &mut out)?;
    Ok(out)
}

/// Sweep the socket table (Volatility `netscan`).
///
/// # Errors
///
/// Fails if the socket-table symbol is unknown.
pub fn netscan(session: &VmiSession, dump: &MemoryDump) -> Result<Vec<SocketInfo>, VmiError> {
    let base = session.hot_symbol(names::SOCKET_TABLE)?;
    let mem = dump.memory();
    let capacity = 1024usize;
    let mut sockets = Vec::new();
    for i in 0..capacity {
        let s = base.add(i as u64 * SOCKET_STRUCT_SIZE);
        if mem.peek_u32(s.add(socket_offsets::IN_USE))? != 1 {
            continue;
        }
        let u16_at = |off| {
            mem.peek_array::<2>(s.add(off))
                .map(|b| u16::from_le_bytes(b.unguarded()))
        };
        let u32_at = |off| mem.peek_u32(s.add(off)).map(Guest::unguarded);
        sockets.push(SocketInfo {
            pid: u32_at(socket_offsets::OWNER_PID)?,
            proto: u16_at(socket_offsets::PROTO)?,
            state: TcpState::from_raw(u16_at(socket_offsets::STATE)?),
            lport: u16_at(socket_offsets::LPORT)?,
            fport: u16_at(socket_offsets::FPORT)?,
            laddr: u32_at(socket_offsets::LADDR)?,
            faddr: u32_at(socket_offsets::FADDR)?,
        });
    }
    Ok(sockets)
}

/// Sweep the open-file table (Volatility `handles`), optionally scoped to
/// one pid.
///
/// # Errors
///
/// Fails if the file-table symbol is unknown.
pub fn handles(
    session: &VmiSession,
    dump: &MemoryDump,
    pid: Option<u32>,
) -> Result<Vec<FileHandleInfo>, VmiError> {
    let base = session.hot_symbol(names::FILE_TABLE)?;
    let mem = dump.memory();
    let capacity = 2048usize;
    let mut files = Vec::new();
    for i in 0..capacity {
        let fh = base.add(i as u64 * FILE_STRUCT_SIZE);
        if mem.peek_u32(fh.add(file_offsets::IN_USE))? != 1 {
            continue;
        }
        let owner = mem.peek_u32(fh.add(file_offsets::OWNER_PID))?;
        if pid.is_some_and(|p| owner != p) {
            continue;
        }
        files.push(FileHandleInfo {
            pid: owner.unguarded(),
            path: linux::read_fixed_string(
                mem,
                fh.add(file_offsets::PATH),
                file_offsets::PATH_LEN,
            )?,
        });
    }
    Ok(files)
}

/// Sweep the module slab for module structs (Volatility `modscan`): sees
/// modules unlinked from the module list by an LKM rootkit.
///
/// # Errors
///
/// Fails if the module-slab symbol is unknown.
pub fn modscan(
    session: &VmiSession,
    dump: &MemoryDump,
) -> Result<Vec<crimes_vmi::ScannedModule>, VmiError> {
    linux::module_scan(session, dump.memory())
}

/// `true` if the task looks alive (running or sleeping).
pub fn is_live_state(state: TaskState) -> bool {
    matches!(state, TaskState::Running | TaskState::Sleeping)
}

fn format_endpoint(addr: u32, port: u16) -> String {
    let b = addr.to_be_bytes();
    format!("{}.{}.{}.{}:{}", b[0], b[1], b[2], b[3], port)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dump::DumpKind;
    use crimes_vm::{Vm, PAGE_SIZE};

    fn vm() -> Vm {
        let mut b = Vm::builder();
        b.pages(2048).seed(14);
        b.build()
    }

    fn dump_and_session(vm: &Vm) -> (MemoryDump, VmiSession) {
        let symbols = crimes_vmi::Symbols::parse(vm.system_map()).expect("parse");
        let dump = MemoryDump::from_vm(vm, &symbols, DumpKind::Adhoc);
        let session = dump.open_session().expect("session");
        (dump, session)
    }

    #[test]
    fn pslist_and_psscan_agree_on_clean_system() {
        let mut vm = vm();
        vm.spawn_process("a", 0, 1).unwrap();
        vm.spawn_process("b", 0, 1).unwrap();
        let (dump, session) = dump_and_session(&vm);
        let list = pslist(&session, &dump).unwrap();
        let scan = psscan(&dump);
        let live: Vec<u32> = scan
            .iter()
            .filter(|s| !s.freed)
            .map(|s| s.task.pid)
            .collect();
        let listed: Vec<u32> = list.iter().map(|t| t.pid).collect();
        assert_eq!(live, listed);
    }

    #[test]
    fn psscan_finds_hidden_process() {
        let mut vm = vm();
        let evil = vm.spawn_process("rootkit", 0, 1).unwrap();
        vm.hide_process(evil).unwrap();
        let (dump, session) = dump_and_session(&vm);
        assert!(!pslist(&session, &dump)
            .unwrap()
            .iter()
            .any(|t| t.pid == evil));
        assert!(psscan(&dump).iter().any(|s| s.task.pid == evil && !s.freed));
    }

    #[test]
    fn psscan_reports_freed_tasks() {
        let mut vm = vm();
        let gone = vm.spawn_process("shortlived", 0, 1).unwrap();
        vm.exit_process(gone).unwrap();
        let (dump, _) = dump_and_session(&vm);
        let hit = psscan(&dump)
            .into_iter()
            .find(|s| s.task.pid == gone)
            .expect("freed slab slot still scannable");
        assert!(hit.freed);
        assert_eq!(hit.task.comm, "shortlived");
    }

    #[test]
    fn psxview_flags_hidden_process_only() {
        let mut vm = vm();
        let good = vm.spawn_process("nginx", 33, 1).unwrap();
        let evil = vm.spawn_process("rootkit", 0, 1).unwrap();
        vm.hide_process(evil).unwrap();
        let (dump, session) = dump_and_session(&vm);
        let rows = psxview(&session, &dump).unwrap();
        let evil_row = rows.iter().find(|r| r.pid == evil).unwrap();
        assert!(evil_row.is_suspicious());
        assert!(!evil_row.in_pslist);
        assert!(evil_row.in_psscan);
        assert!(evil_row.in_pid_hash);
        let good_row = rows.iter().find(|r| r.pid == good).unwrap();
        assert!(!good_row.is_suspicious());
        assert!(good_row.in_pslist && good_row.in_psscan && good_row.in_pid_hash);
    }

    #[test]
    fn procdump_extracts_process_bytes() {
        let mut vm = vm();
        let pid = vm.spawn_process("app", 0, 4).unwrap();
        let obj = vm.malloc(pid, 32).unwrap();
        vm.write_user(pid, obj, b"EVIDENCE", 0).unwrap();
        let (dump, session) = dump_and_session(&vm);
        let image = procdump(&session, &dump, pid).unwrap();
        assert_eq!(image.len(), 4 * PAGE_SIZE);
        let needle = b"EVIDENCE";
        assert!(
            image.windows(needle.len()).any(|w| w == needle),
            "dump must contain the written bytes"
        );
    }

    #[test]
    fn procdump_refuses_a_forged_mapping_size() {
        // A compromised guest claims a mapping larger than the whole dump:
        // sizing the buffer from it would allocate whatever the guest
        // asked for. The length is checked against the image first.
        let mut vm = vm();
        let pid = vm.spawn_process("app", 0, 4).unwrap();
        let slot = vm.kernel().task_slot_of(pid).unwrap();
        let task = vm.layout().task_slot(slot);
        let image = vm.memory().size_bytes() as u64;
        for forged in [image + 1, u64::MAX] {
            vm.memory_mut()
                .write_u64(task.add(task_offsets::MM_SIZE), forged);
            let (dump, session) = dump_and_session(&vm);
            let err = procdump(&session, &dump, pid).unwrap_err();
            assert_eq!(
                err,
                VmiError::OutOfImage(crimes_vm::OutOfRange {
                    value: forged,
                    len: 0,
                    limit: image,
                })
            );
        }
        // A length that fits the image but not the mapping's physical
        // placement is refused at translation.
        vm.memory_mut()
            .write_u64(task.add(task_offsets::MM_SIZE), image);
        let (dump, session) = dump_and_session(&vm);
        assert!(matches!(
            procdump(&session, &dump, pid),
            Err(VmiError::OutOfImage(_))
        ));
    }

    #[test]
    fn procdump_unknown_pid_fails() {
        let vm = vm();
        let (dump, session) = dump_and_session(&vm);
        assert!(matches!(
            procdump(&session, &dump, 777),
            Err(VmiError::NoSuchTask(777))
        ));
    }

    #[test]
    fn netscan_reports_paper_style_socket() {
        let mut vm = vm();
        let pid = vm.spawn_process("reg_read.exe", 0, 1).unwrap();
        // The §5.6 case study socket: 192.168.1.76:49164 → 104.28.18.89:8080.
        vm.open_socket(
            pid,
            6,
            u32::from_be_bytes([192, 168, 1, 76]),
            49164,
            u32::from_be_bytes([104, 28, 18, 89]),
            8080,
            TcpState::CloseWait,
        )
        .unwrap();
        let (dump, session) = dump_and_session(&vm);
        let socks = netscan(&session, &dump).unwrap();
        assert_eq!(socks.len(), 1);
        let s = &socks[0];
        assert_eq!(s.local_endpoint(), "192.168.1.76:49164");
        assert_eq!(s.foreign_endpoint(), "104.28.18.89:8080");
        assert_eq!(s.state, TcpState::CloseWait);
        assert_eq!(s.proto_name(), "TCPv4");
        assert_eq!(s.pid, pid);
    }

    #[test]
    fn handles_scopes_by_pid() {
        let mut vm = vm();
        let a = vm.spawn_process("a", 0, 1).unwrap();
        let b = vm.spawn_process("b", 0, 1).unwrap();
        vm.open_file(a, "/etc/passwd").unwrap();
        vm.open_file(b, "/tmp/loot.txt").unwrap();
        let (dump, session) = dump_and_session(&vm);
        let all = handles(&session, &dump, None).unwrap();
        assert_eq!(all.len(), 2);
        let only_b = handles(&session, &dump, Some(b)).unwrap();
        assert_eq!(only_b.len(), 1);
        assert_eq!(only_b[0].path, "/tmp/loot.txt");
    }

    #[test]
    fn endpoint_formatting_is_dotted_quad() {
        assert_eq!(
            format_endpoint(u32::from_be_bytes([10, 0, 0, 1]), 80),
            "10.0.0.1:80"
        );
    }
}
