//! Memory-event monitoring — the LibVMI `VMI_EVENT_MEMORY` equivalent.
//!
//! Xen lets an external tool mark pages so that guest writes fault into an
//! event ring the tool polls. The paper only arms this during attack
//! replay because it is expensive in normal operation (§4.2); the replay
//! engine in the `crimes` crate uses this wrapper the same way: arm the
//! corrupted canary's page, re-execute the epoch, and poll for the write
//! that touches the canary.

use crimes_vm::{Guest, Gva, MemoryEvent, Vm};

use crate::error::VmiError;
use crate::session::VmiSession;

/// A monitor over one VM's watchpoint ring.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemEventMonitor;

impl MemEventMonitor {
    /// Create a monitor.
    pub fn new() -> Self {
        MemEventMonitor
    }

    /// Arm write-monitoring on every page backing the `len` bytes at
    /// `pid`'s user address `gva` (a span can straddle a page boundary).
    ///
    /// # Errors
    ///
    /// Fails if the span does not translate.
    pub fn arm_user_span(
        &self,
        session: &VmiSession,
        vm: &mut Vm,
        pid: u32,
        gva: Gva,
        len: u64,
    ) -> Result<(), VmiError> {
        let gpa = session.translate_user(pid, Guest::new(gva), len)?;
        let last = gpa.add(len.saturating_sub(1)).pfn();
        let watches = vm.memory_mut().watches_mut();
        watches.watch(gpa.pfn());
        watches.watch(last);
        Ok(())
    }

    /// Drain pending events (the Xen event ring poll).
    pub fn poll(&self, vm: &mut Vm) -> Vec<MemoryEvent> {
        vm.memory_mut().watches_mut().drain_events()
    }

    /// Disarm everything and drop pending events.
    pub fn disarm_all(&self, vm: &mut Vm) {
        vm.memory_mut().watches_mut().clear();
    }

    /// Number of armed pages.
    pub fn armed_pages(&self, vm: &Vm) -> usize {
        vm.memory().watches().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crimes_vm::Vm;

    fn setup() -> (Vm, VmiSession) {
        let mut b = Vm::builder();
        b.pages(2048).seed(17);
        let mut vm = b.build();
        vm.spawn_process("app", 0, 8).unwrap();
        let mut s = VmiSession::init(&vm).expect("init");
        s.refresh_address_spaces(vm.memory()).unwrap();
        (vm, s)
    }

    #[test]
    fn armed_page_reports_writes_with_rip() {
        let (mut vm, s) = setup();
        let pid = 1;
        let obj = vm.malloc(pid, 32).unwrap();
        let mon = MemEventMonitor::new();
        mon.arm_user_span(&s, &mut vm, pid, obj, 3).unwrap();
        vm.write_user(pid, obj, &[1, 2, 3], 0x4141).unwrap();
        let events = mon.poll(&mut vm);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].rip, 0x4141);
        assert_eq!(events[0].new_bytes, vec![1, 2, 3]);
    }

    #[test]
    fn poll_drains_the_ring() {
        let (mut vm, s) = setup();
        let obj = vm.malloc(1, 32).unwrap();
        let mon = MemEventMonitor::new();
        mon.arm_user_span(&s, &mut vm, 1, obj, 1).unwrap();
        vm.write_user(1, obj, &[1], 0).unwrap();
        assert_eq!(mon.poll(&mut vm).len(), 1);
        assert!(mon.poll(&mut vm).is_empty());
    }

    #[test]
    fn disarm_stops_reporting() {
        let (mut vm, s) = setup();
        let obj = vm.malloc(1, 32).unwrap();
        let mon = MemEventMonitor::new();
        mon.arm_user_span(&s, &mut vm, 1, obj, 1).unwrap();
        assert_eq!(mon.armed_pages(&vm), 1);
        mon.disarm_all(&mut vm);
        assert_eq!(mon.armed_pages(&vm), 0);
        vm.write_user(1, obj, &[1], 0).unwrap();
        assert!(mon.poll(&mut vm).is_empty());
    }

    #[test]
    fn arming_unmapped_address_fails() {
        let (mut vm, s) = setup();
        let mon = MemEventMonitor::new();
        assert!(mon.arm_user_span(&s, &mut vm, 1, Gva(0), 1).is_err());
    }
}
