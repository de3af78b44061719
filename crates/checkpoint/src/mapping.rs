//! PFN→MFN mapping strategies (§4.1, Optimization 2: Global Memory Mapping).
//!
//! To copy a dirty page the checkpointer must know (and have mapped) its
//! machine frame. Remus maps the dirty pages each interval and unmaps them
//! afterwards; every map is a hypercall plus page-table surgery. CRIMES
//! instead loads the full PFN→MFN table once at start-up into a plain array
//! indexed by PFN, making every per-epoch lookup O(1) with no hypercall.
//!
//! There is no hypervisor here to issue hypercalls against, so
//! [`HypercallModel`] stands in: each simulated hypercall burns a fixed
//! dependent-ALU delay, costing a realistic sub-microsecond latency *per
//! call* that scales linearly with call count — the property the paper's
//! map-phase numbers depend on. See DESIGN.md's substitution table.

use crimes_vm::{Mfn, Pfn, Vm};

/// Deterministic ALU-bound delay standing in for hypercall + page-table
/// update latency.
///
/// Earlier revisions modelled the trap as a pointer chase through a 4 MiB
/// buffer; its per-call cost then depended on how much of that buffer was
/// still cached, so out-of-window memory traffic (a guest slice, the
/// deferred drain's cipher churn) silently re-priced the *next* window's
/// suspend/resume loops. A dependent chain of 64-bit divisions burns the
/// same latency with no memory footprint, making the cost a function of
/// the call count alone. Division specifically, not a multiply chain: the
/// hardware divider's latency is about the same whether the surrounding
/// code was optimised or not, so the modelled cost holds in debug-profile
/// tests too, where a longer chain of cheap ops balloons several-fold.
#[derive(Debug, Clone)]
pub struct HypercallModel {
    state: u64,
    steps_per_call: u32,
    calls: u64,
}

/// Dependent divisions per latency step. Calibrated so
/// [`HypercallModel::DEFAULT_STEPS`] steps cost ≈0.3 µs on current
/// hardware (measured via the engine's suspend phase: ~1 500 calls per
/// epoch), the same order as the trap cost the paper's Table 1 implies.
/// Calibrate against the engine's own phases, not a standalone
/// microbenchmark — inlining context has misled that road before.
const DIVS_PER_STEP: u32 = 9;

impl HypercallModel {
    /// Create a model burning `steps_per_call` dependent latency steps per
    /// simulated hypercall. The default used by the engine is
    /// [`HypercallModel::DEFAULT_STEPS`].
    pub fn new(steps_per_call: u32) -> Self {
        HypercallModel {
            state: 0x243F_6A88_85A3_08D3, // pi digits, an arbitrary odd seed
            steps_per_call,
            calls: 0,
        }
    }

    /// Steps used when the engine builds its own model: 8 steps ≈ 0.3 µs on
    /// current hardware, the same order as the per-page map cost implied
    /// by the paper's Table 1 (≈1.6 ms / ~3 000 pages ≈ 0.5 µs).
    pub const DEFAULT_STEPS: u32 = 8;

    /// Issue one simulated hypercall. Returns an opaque value derived from
    /// the delay chain so the compiler cannot elide the work.
    pub fn call(&mut self) -> u32 {
        // Each quotient feeds the next divisor, so the chain's latency is
        // serial by construction and the optimiser cannot vectorise or
        // strength-reduce it (the divisor is never a known constant).
        let mut s = self.state | 1;
        for _ in 0..self.steps_per_call * DIVS_PER_STEP {
            s = (!s).wrapping_div(s | 1).wrapping_add(s.rotate_right(23)) | 1;
        }
        self.state = self.state.wrapping_add(s);
        self.calls += 1;
        self.state as u32
    }

    /// Total simulated hypercalls issued.
    pub fn calls(&self) -> u64 {
        self.calls
    }
}

impl Default for HypercallModel {
    fn default() -> Self {
        HypercallModel::new(Self::DEFAULT_STEPS)
    }
}

/// A page mapped into the checkpointer's address space for this epoch.
pub type MappedPage = (Pfn, Mfn);

/// How the checkpointer resolves and maps machine frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MappingStrategy {
    /// Remus-style: map each dirty page of the *primary* this epoch and
    /// unmap afterwards (one hypercall per page). The backup lives behind
    /// the socket, mapped by the remote Restore process.
    PerEpochPrimary,
    /// Local-memcpy mode without pre-mapping: the checkpointer must map the
    /// dirty pages of *both* primary and backup each epoch (two hypercalls
    /// per page) — why the paper's Figure 4 shows `memcpy` paying double
    /// map cost.
    PerEpochPrimaryAndBackup,
    /// CRIMES: a global PFN→MFN array built once at start-up; per-epoch
    /// lookups are plain indexed loads.
    Global,
}

/// Mapping engine: owns the global table (when used) and the hypercall
/// model shared by per-epoch strategies.
#[derive(Debug, Clone)]
pub struct Mapper {
    strategy: MappingStrategy,
    global: Option<Vec<Mfn>>,
    hypercalls: HypercallModel,
}

impl Mapper {
    /// Build a mapper for `vm`. With [`MappingStrategy::Global`] this loads
    /// the full PFN→MFN table up front (the start-up cost the paper accepts
    /// in exchange for cheap epochs).
    pub fn new(vm: &Vm, strategy: MappingStrategy, hypercalls: HypercallModel) -> Self {
        let global = match strategy {
            MappingStrategy::Global => Some(vm.memory().pfn_to_mfn_table().to_vec()),
            _ => None,
        };
        Mapper {
            strategy,
            global,
            hypercalls,
        }
    }

    /// The configured strategy.
    pub fn strategy(&self) -> MappingStrategy {
        self.strategy
    }

    /// Hypercalls issued so far (per-epoch strategies only).
    pub fn hypercalls_issued(&self) -> u64 {
        self.hypercalls.calls()
    }

    /// Map this epoch's dirty pages into `mapped` (replacing its contents)
    /// as `(pfn, mfn)` pairs ready for the copy phase. Per-epoch
    /// strategies pay one (or two) simulated hypercalls per page; the
    /// global strategy pays an indexed load. The checkpointer's list has
    /// room for every page, so nothing allocates.
    pub fn map_epoch(&mut self, vm: &Vm, dirty: &[Pfn], mapped: &mut Vec<MappedPage>) {
        mapped.clear();
        match self.strategy {
            MappingStrategy::PerEpochPrimary => {
                for &pfn in dirty {
                    self.hypercalls.call();
                    mapped.push((pfn, vm.memory().pfn_to_mfn(pfn)));
                }
            }
            MappingStrategy::PerEpochPrimaryAndBackup => {
                for &pfn in dirty {
                    self.hypercalls.call(); // map primary frame
                    self.hypercalls.call(); // map backup frame
                    mapped.push((pfn, vm.memory().pfn_to_mfn(pfn)));
                }
            }
            MappingStrategy::Global => {
                let table = self
                    .global
                    .as_ref()
                    .expect("global strategy always builds its table");
                for &pfn in dirty {
                    mapped.push((pfn, table[pfn.0 as usize]));
                }
            }
        }
    }

    /// Unmap this epoch's pages. Per-epoch strategies pay one hypercall per
    /// page again (the unmap); the global strategy is free.
    pub fn unmap_epoch(&mut self, mapped: &[MappedPage]) {
        match self.strategy {
            MappingStrategy::PerEpochPrimary => {
                for _ in mapped {
                    self.hypercalls.call();
                }
            }
            MappingStrategy::PerEpochPrimaryAndBackup => {
                for _ in mapped {
                    self.hypercalls.call();
                    self.hypercalls.call();
                }
            }
            MappingStrategy::Global => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crimes_vm::Vm;

    fn map(m: &mut Mapper, vm: &Vm, dirty: &[Pfn]) -> Vec<MappedPage> {
        let mut mapped = Vec::new();
        m.map_epoch(vm, dirty, &mut mapped);
        mapped
    }

    fn vm() -> Vm {
        let mut b = Vm::builder();
        b.pages(2048).seed(9);
        b.build()
    }

    #[test]
    fn hypercall_model_counts_calls() {
        let mut h = HypercallModel::new(4);
        h.call();
        h.call();
        assert_eq!(h.calls(), 2);
    }

    #[test]
    fn hypercall_cursor_advances() {
        let mut h = HypercallModel::new(4);
        let a = h.call();
        let b = h.call();
        // With a full-cycle permutation consecutive calls land on different
        // slots.
        assert_ne!(a, b);
    }

    #[test]
    fn all_strategies_return_correct_mfns() {
        let vm = vm();
        let dirty: Vec<Pfn> = (0..50).map(Pfn).collect();
        for strategy in [
            MappingStrategy::PerEpochPrimary,
            MappingStrategy::PerEpochPrimaryAndBackup,
            MappingStrategy::Global,
        ] {
            let mut m = Mapper::new(&vm, strategy, HypercallModel::new(2));
            let mapped = map(&mut m, &vm, &dirty);
            assert_eq!(mapped.len(), 50);
            for (pfn, mfn) in mapped {
                assert_eq!(vm.memory().pfn_to_mfn(pfn), mfn, "wrong mfn for {pfn}");
            }
        }
    }

    #[test]
    fn per_epoch_issues_one_hypercall_per_page() {
        let vm = vm();
        let dirty: Vec<Pfn> = (0..10).map(Pfn).collect();
        let mut m = Mapper::new(
            &vm,
            MappingStrategy::PerEpochPrimary,
            HypercallModel::new(2),
        );
        let mapped = map(&mut m, &vm, &dirty);
        assert_eq!(m.hypercalls_issued(), 10);
        m.unmap_epoch(&mapped);
        assert_eq!(m.hypercalls_issued(), 20);
    }

    #[test]
    fn primary_and_backup_doubles_hypercalls() {
        let vm = vm();
        let dirty: Vec<Pfn> = (0..10).map(Pfn).collect();
        let mut m = Mapper::new(
            &vm,
            MappingStrategy::PerEpochPrimaryAndBackup,
            HypercallModel::new(2),
        );
        map(&mut m, &vm, &dirty);
        assert_eq!(m.hypercalls_issued(), 20);
    }

    #[test]
    fn global_issues_no_hypercalls() {
        let vm = vm();
        let dirty: Vec<Pfn> = (0..100).map(Pfn).collect();
        let mut m = Mapper::new(&vm, MappingStrategy::Global, HypercallModel::new(2));
        let mapped = map(&mut m, &vm, &dirty);
        m.unmap_epoch(&mapped);
        assert_eq!(m.hypercalls_issued(), 0);
    }

    #[test]
    fn empty_dirty_set_maps_nothing() {
        let vm = vm();
        let mut m = Mapper::new(
            &vm,
            MappingStrategy::PerEpochPrimary,
            HypercallModel::new(2),
        );
        assert!(map(&mut m, &vm, &[]).is_empty());
        assert_eq!(m.hypercalls_issued(), 0);
    }
}
