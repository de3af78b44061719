//! Hostile-byte properties at the introspection surface.
//!
//! A compromised guest can write anything into the kernel structures the
//! readers walk. The property forges one field of a task, module, canary
//! table or pid-hash slot with a value drawn to straddle the image's edges,
//! then runs every reader. The contract: no panic; `Ok` or a typed
//! [`VmiError`]; every walk bounded by `MAX_LIST_STEPS`; and a pointer or
//! mapping that leaves the image refused as [`VmiError::OutOfImage`] before
//! anything is read through it. Failures shrink to a minimal tape on the
//! in-tree [`crimes_rng::prop`] harness.

#![cfg(test)]

use crimes_rng::prop::{check, Config, Gen};
use crimes_vm::layout::{
    canary_offsets, module_offsets, task_offsets, CANARY_RECORD_SIZE, MODULE_STRUCT_SIZE,
    TASK_STRUCT_SIZE,
};
use crimes_vm::symbols::names;
use crimes_vm::{Gpa, Guest, GuestMemory, Gva, OutOfRange, Vm, KERNEL_VIRT_BASE};

use crate::canary::CanaryScanner;
use crate::error::VmiError;
use crate::linux;
use crate::session::VmiSession;

/// What forging a field must do to the readers, beyond not panicking.
#[derive(Debug, Clone, Copy)]
enum Field {
    /// A listed task's `next`: an out-of-image target is refused at
    /// translation, a user address faults.
    TaskNext,
    /// `mm_phys` / `mm_size` of the task with this pid: a mapping that
    /// leaves the image fails every scan that meets one of its canaries.
    TaskMm(u32),
    /// The module list head's or a listed module's `next`.
    ModuleNext,
    /// The canary table's record count.
    CanaryCount,
    /// A canary record field: the record is skipped or flagged, no more.
    CanaryRecord,
    /// A pid-hash slot's task pointer (the slot is marked live too).
    PidHashTask,
    /// Anything else the walks read.
    Other,
}

/// A small guest with every structure populated (a hidden task and
/// module, live and freed canaries) and the fields to forge in it.
struct Fixture {
    vm: Vm,
    session: VmiSession,
    scanner: CanaryScanner,
    fields: Vec<(Gpa, Field)>,
}

fn fixture() -> Fixture {
    let mut b = Vm::builder();
    b.pages(2048).seed(29);
    let mut vm = b.build();
    for (name, size) in [("ext4", 0x8000), ("e1000", 0x2000), ("rootkit_lkm", 0x666)] {
        vm.load_module(name, size).unwrap();
    }
    vm.hide_module("rootkit_lkm").unwrap();
    let app = vm.spawn_process("app", 33, 8).unwrap();
    let web = vm.spawn_process("nginx", 80, 8).unwrap();
    let hidden = vm.spawn_process("rootkitd", 0, 4).unwrap();
    for pid in [app, web, app, hidden] {
        let obj = vm.malloc(pid, 48).unwrap();
        vm.malloc(pid, 16).unwrap();
        if pid == web {
            vm.free(pid, obj).unwrap();
        }
    }
    vm.hide_process(hidden).unwrap();
    let session = VmiSession::init(&vm).unwrap();
    let mut fields = Vec::new();
    for t in linux::process_list(&session, vm.memory()).unwrap() {
        let task = t.task_gva.kernel_to_gpa().unwrap();
        fields.push((task.add(task_offsets::NEXT), Field::TaskNext));
        fields.push((task.add(task_offsets::MM_PHYS), Field::TaskMm(t.pid)));
        fields.push((task.add(task_offsets::MM_SIZE), Field::TaskMm(t.pid)));
        fields.push((task.add(task_offsets::MM_START), Field::Other));
    }
    let head = session.hot_symbol(names::MODULES).unwrap();
    fields.push((head, Field::ModuleNext));
    for m in linux::module_list(&session, vm.memory()).unwrap() {
        let module = m.module_gva.kernel_to_gpa().unwrap();
        fields.push((module.add(module_offsets::NEXT), Field::ModuleNext));
        fields.push((module.add(module_offsets::MAGIC), Field::Other));
    }
    let table = session.hot_symbol(names::CANARY_TABLE).unwrap();
    fields.push((table, Field::CanaryCount));
    let count = vm.memory().peek_u64(table).unwrap().extent(64).unwrap() as u64;
    for rec in (0..count).map(|i| table.add(8 + i * CANARY_RECORD_SIZE)) {
        for off in [
            canary_offsets::CANARY_GVA,
            canary_offsets::SIZE,
            canary_offsets::LIVE,
            canary_offsets::PID,
        ] {
            fields.push((rec.add(off), Field::CanaryRecord));
        }
    }
    let pid_hash = session.hot_symbol(names::PID_HASH).unwrap();
    for slot in (0..8).map(|i| pid_hash.add(i * 16)) {
        fields.push((slot.add(8), Field::PidHashTask));
    }
    let scanner = CanaryScanner::new(vm.canary_secret());
    Fixture {
        vm,
        session,
        scanner,
        fields,
    }
}

/// A forged value: anything, but drawn mostly near the places a checked
/// reader must draw its lines — the image's end (as a physical address and
/// as a kernel pointer), past it, and the top of the address space.
fn hostile_u64(g: &mut Gen, image: u64) -> u64 {
    let near = g.int(0..2 * TASK_STRUCT_SIZE);
    match g.int(0u8..7) {
        0 => near,
        1 => image.saturating_sub(near),
        2 => image + g.int(0..1u64 << 40),
        3 => KERNEL_VIRT_BASE + image - near,
        4 => KERNEL_VIRT_BASE + image + g.int(0..1u64 << 40),
        5 => u64::MAX - near,
        _ => g.any_u64(),
    }
}

/// Where a kernel pointer `v` lands: `None` for a user address, else
/// whether a `span`-byte structure there fits in the image.
fn fits(v: u64, span: u64, image: u64) -> Option<bool> {
    let gpa = v.checked_sub(KERNEL_VIRT_BASE)?;
    Some(gpa.checked_add(span).is_some_and(|end| end <= image))
}

/// The error of a walk that met a kernel pointer to a `span`-byte
/// structure leaving the image: refused at translation, before any field
/// is read through it.
fn refused<T>(r: &Result<T, VmiError>, span: u64) -> bool {
    matches!(r, Err(VmiError::OutOfImage(OutOfRange { len, .. })) if *len == span)
}

/// Run every reader over `mem`; a panic anywhere fails the property.
/// Returns the serial canary scan's and the fused staging's outcomes.
fn every_reader(
    fx: &Fixture,
    session: &VmiSession,
    mem: &GuestMemory,
) -> [Result<usize, VmiError>; 3] {
    let _ = linux::process_list(session, mem);
    let _ = linux::module_list(session, mem);
    assert!(linux::module_scan(session, mem).is_ok(), "host-addressed");
    assert!(linux::syscall_table(session, mem).is_ok(), "host-addressed");
    for e in linux::pid_hash_entries(session, mem).expect("host-addressed") {
        let _ = linux::read_task_at(session, mem, e.task_gva);
    }
    let dirty = mem.dirty();
    let prepared = fx.scanner.prepare_dirty(session, mem, dirty);
    if let Ok(prepared) = &prepared {
        for pfn in dirty.iter() {
            prepared.check_page(pfn, mem, &mut |_| {});
        }
    }
    [
        fx.scanner.scan_all(session, mem).map(|r| r.checked),
        fx.scanner
            .scan_dirty(session, mem, dirty)
            .map(|r| r.checked),
        prepared.map(|p| p.checked()),
    ]
}

#[test]
fn forged_kernel_structures_fail_typed_and_bounded() {
    let fx = fixture();
    let image = fx.vm.memory().size_bytes() as u64;
    let init_gva = fx
        .session
        .hot_symbol(names::INIT_TASK)
        .unwrap()
        .to_kernel_gva();
    check(
        "forged_kernel_structures",
        Config::with_cases(160),
        |g: &mut Gen| {
            let (at, field) = fx.fields[g.int(0..fx.fields.len())];
            let v = hostile_u64(g, image);
            let mut mem = fx.vm.memory().clone();
            mem.write_u64(at, v);
            if matches!(field, Field::PidHashTask) {
                mem.write_u32(Gpa(at.0 - 4), 1);
            }
            let mut session = fx.session.clone();
            let refreshed = session.refresh_address_spaces(&mem);
            let scans = every_reader(&fx, &session, &mem);
            match field {
                Field::TaskNext if v != init_gva.0 => {
                    let walk = linux::process_list(&session, &mem);
                    match fits(v, TASK_STRUCT_SIZE, image) {
                        None => assert!(matches!(walk, Err(VmiError::TranslationFault(_)))),
                        Some(false) => {
                            assert!(refused(&walk, TASK_STRUCT_SIZE), "{walk:?}");
                            assert!(refused(&refreshed, TASK_STRUCT_SIZE), "{refreshed:?}");
                        }
                        Some(true) => {}
                    }
                }
                Field::TaskMm(pid) => {
                    let leaves = session.address_space(pid).is_some_and(|s| {
                        s.len != 0
                            && s.len
                                .extent(image as usize)
                                .and_then(|len| {
                                    s.phys_base.checked_span(len as u64, image as usize)
                                })
                                .is_err()
                    });
                    if leaves && !fx.vm.heap().allocations_of(pid).is_empty() {
                        for scan in [&scans[0], &scans[2]] {
                            assert!(matches!(scan, Err(VmiError::OutOfImage(_))), "{scans:?}");
                        }
                    }
                }
                Field::ModuleNext if fits(v, MODULE_STRUCT_SIZE, image) == Some(false) => {
                    let walk = linux::module_list(&session, &mem);
                    assert!(refused(&walk, MODULE_STRUCT_SIZE), "{walk:?}");
                }
                Field::CanaryCount if v > (image - at.0 - 8) / CANARY_RECORD_SIZE => {
                    let max = (image - at.0 - 8) / CANARY_RECORD_SIZE;
                    let want = VmiError::ImplausibleTableHeader {
                        what: "canary",
                        claimed: v,
                        max,
                    };
                    for scan in &scans {
                        assert_eq!(scan.as_ref().err(), Some(&want));
                    }
                }
                Field::CanaryRecord => assert!(scans.iter().all(Result::is_ok), "{scans:?}"),
                Field::PidHashTask => {
                    let task = linux::read_task_at(&session, &mem, Guest::new(Gva(v)));
                    match fits(v, TASK_STRUCT_SIZE, image) {
                        None => assert!(matches!(task, Err(VmiError::TranslationFault(_)))),
                        Some(false) => assert!(refused(&task, TASK_STRUCT_SIZE), "{task:?}"),
                        Some(true) => assert!(task.is_ok(), "{task:?}"),
                    }
                }
                _ => {}
            }
        },
    );
}

#[test]
fn a_cyclic_task_list_stops_at_the_step_bound() {
    let fx = fixture();
    let tasks = linux::process_list(&fx.session, fx.vm.memory()).unwrap();
    let mut mem = fx.vm.memory().clone();
    // The last task points back at the second: a loop that never reaches
    // init_task again.
    let last = tasks[tasks.len() - 1].task_gva.kernel_to_gpa().unwrap();
    mem.write_u64(last.add(task_offsets::NEXT), tasks[1].task_gva.0);
    let walk = linux::process_list(&fx.session, &mem);
    let bound = VmiError::MalformedList {
        what: "task",
        steps: linux::MAX_LIST_STEPS,
    };
    assert_eq!(walk, Err(bound.clone()));
    let mut session = fx.session.clone();
    assert_eq!(session.refresh_address_spaces(&mem), Err(bound));
}
