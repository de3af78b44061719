//! Virtual CPUs: the register state the checkpointer must save and restore
//! alongside memory, and the run/paused state machine that the epoch loop
//! drives (suspend → audit → checkpoint → resume, Figure 2).

/// Run state of a vCPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VcpuState {
    /// Executing guest instructions.
    #[default]
    Running,
    /// Paused by the hypervisor (checkpoint window).
    Paused,
}

/// Architectural state of one virtual CPU (the subset a checkpoint carries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Vcpu {
    /// Instruction pointer.
    pub rip: u64,
    /// Stack pointer.
    pub rsp: u64,
    /// General-purpose registers rax..r15.
    pub gprs: [u64; 16],
    /// Page-table root (per-process address-space tag in the simulation).
    pub cr3: u64,
    /// Current run state.
    pub state: VcpuState,
}

impl Vcpu {
    /// A vCPU at the reset vector.
    pub fn new() -> Self {
        Vcpu::default()
    }

    /// `true` while paused.
    pub fn is_paused(&self) -> bool {
        self.state == VcpuState::Paused
    }
}

/// The VM's set of vCPUs.
#[derive(Debug, PartialEq, Eq)]
pub struct VcpuSet {
    cpus: Vec<Vcpu>,
}

impl Clone for VcpuSet {
    fn clone(&self) -> Self {
        VcpuSet { cpus: self.cpus.clone() }
    }

    /// Copies into the registers held: between sets of one size, no
    /// allocation (a checkpoint saves the guest's set every epoch).
    fn clone_from(&mut self, source: &Self) {
        self.cpus.clone_from(&source.cpus);
    }
}

impl VcpuSet {
    /// Create `n` vCPUs.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a VM needs at least one vCPU");
        VcpuSet {
            cpus: vec![Vcpu::new(); n],
        }
    }

    /// Number of vCPUs.
    pub fn len(&self) -> usize {
        self.cpus.len()
    }

    /// `VcpuSet::new` enforces non-emptiness, so this is always `false`;
    /// provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.cpus.is_empty()
    }

    /// Pause every vCPU (entering the checkpoint window). Returns how many
    /// were running, so suspend cost can scale with activity.
    pub fn pause_all(&mut self) -> usize {
        let mut n = 0;
        for c in &mut self.cpus {
            if c.state == VcpuState::Running {
                n += 1;
            }
            c.state = VcpuState::Paused;
        }
        n
    }

    /// Resume every vCPU.
    pub fn resume_all(&mut self) {
        for c in &mut self.cpus {
            c.state = VcpuState::Running;
        }
    }

    /// `true` if all vCPUs are paused.
    pub fn all_paused(&self) -> bool {
        self.cpus.iter().all(Vcpu::is_paused)
    }

    /// Access a vCPU.
    pub fn get(&self, idx: usize) -> Option<&Vcpu> {
        self.cpus.get(idx)
    }

    /// Mutable access to a vCPU.
    pub fn get_mut(&mut self, idx: usize) -> Option<&mut Vcpu> {
        self.cpus.get_mut(idx)
    }

    /// All vCPUs.
    pub fn iter(&self) -> impl Iterator<Item = &Vcpu> {
        self.cpus.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_set_is_running() {
        let set = VcpuSet::new(4);
        assert_eq!(set.len(), 4);
        assert!(!set.all_paused());
    }

    #[test]
    fn pause_all_counts_running_cpus() {
        let mut set = VcpuSet::new(3);
        assert_eq!(set.pause_all(), 3);
        assert!(set.all_paused());
        // Second pause finds nothing running.
        assert_eq!(set.pause_all(), 0);
    }

    #[test]
    fn resume_restores_running() {
        let mut set = VcpuSet::new(2);
        set.pause_all();
        set.resume_all();
        assert!(!set.all_paused());
        assert_eq!(set.pause_all(), 2);
    }

    #[test]
    fn register_state_is_mutable() {
        let mut set = VcpuSet::new(1);
        set.get_mut(0).unwrap().rip = 0x1000;
        assert_eq!(set.get(0).unwrap().rip, 0x1000);
        assert!(set.get(1).is_none());
    }

    #[test]
    #[should_panic(expected = "at least one vCPU")]
    fn zero_cpus_panics() {
        VcpuSet::new(0);
    }
}
