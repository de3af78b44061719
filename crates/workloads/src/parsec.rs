//! The PARSEC workload driver: turns a [`ParsecProfile`] into real guest
//! activity — page writes, canary-wrapped allocations, and simulated time —
//! on a `crimes-vm` guest.
//!
//! All randomness is seeded, so a recorded epoch replays bit-identically
//! (the property the Analyzer's replay phase needs).

use crimes_rng::ChaCha8Rng;

use crimes_vm::{Gva, Vm, VmError, PAGE_SIZE};

use crate::profile::ParsecProfile;

/// A running PARSEC-style workload bound to one guest process.
#[derive(Debug, Clone)]
pub struct ParsecWorkload {
    profile: ParsecProfile,
    pid: u32,
    rng: ChaCha8Rng,
    /// Fractional carry of pages/allocations owed from previous slices.
    dirty_debt: f64,
    alloc_debt: f64,
    /// Live allocations available for freeing, bounding heap growth.
    live_allocs: Vec<Gva>,
    total_dirtied: u64,
    total_ms: u64,
}

/// Cap on outstanding allocations per workload; beyond it the workload
/// frees before allocating, modelling steady-state heap churn.
const MAX_LIVE_ALLOCS: usize = 512;

impl ParsecWorkload {
    /// Launch the workload: spawns its process (arena = the profile's
    /// footprint) inside `vm`.
    ///
    /// # Errors
    ///
    /// Fails if the guest lacks memory for the footprint.
    pub fn launch(vm: &mut Vm, profile: &ParsecProfile, seed: u64) -> Result<Self, VmError> {
        let pid = vm.spawn_process(profile.name, 1000, profile.footprint_pages)?;
        Ok(ParsecWorkload {
            profile: *profile,
            pid,
            rng: ChaCha8Rng::seed_from_u64(seed ^ hash_name(profile.name)),
            dirty_debt: 0.0,
            alloc_debt: 0.0,
            live_allocs: Vec::new(),
            total_dirtied: 0,
            total_ms: 0,
        })
    }

    /// The guest pid this workload runs as.
    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// The profile driving this workload.
    pub fn profile(&self) -> &ParsecProfile {
        &self.profile
    }

    /// Total page writes issued (not unique pages).
    pub fn total_dirtied(&self) -> u64 {
        self.total_dirtied
    }

    /// Total simulated milliseconds run.
    pub fn total_ms(&self) -> u64 {
        self.total_ms
    }

    /// Execute `ms` milliseconds of the benchmark: the profile's dirty-page
    /// and allocation rates worth of real guest writes, then advance the
    /// guest clock.
    ///
    /// # Errors
    ///
    /// Propagates guest faults (cannot happen with a well-formed profile).
    pub fn run_ms(&mut self, vm: &mut Vm, ms: u64) -> Result<(), VmError> {
        // Page writes: uniformly random over the data region of the
        // footprint, so unique dirty pages per epoch grow sublinearly with
        // the interval, like Figure 5c's curves. The bottom quarter of the
        // arena is the malloc region — raw page-touch traffic must not
        // scribble over live heap objects (and their canaries).
        let touch_start = self.profile.footprint_pages / 4;
        self.dirty_debt += self.profile.dirty_pages_per_ms * ms as f64;
        let writes = self.dirty_debt as u64;
        self.dirty_debt -= writes as f64;
        for _ in 0..writes {
            let page = self
                .rng
                .gen_range(touch_start..self.profile.footprint_pages);
            let offset = self.rng.gen_range(0..PAGE_SIZE);
            let val = self.rng.gen();
            vm.dirty_arena_page(self.pid, page, offset, val)?;
        }
        self.total_dirtied += writes;

        // Heap churn through the canary wrapper.
        self.alloc_debt += self.profile.allocs_per_ms * ms as f64;
        let allocs = self.alloc_debt as u64;
        self.alloc_debt -= allocs as f64;
        for _ in 0..allocs {
            if self.live_allocs.len() >= MAX_LIVE_ALLOCS {
                let idx = self.rng.gen_range(0..self.live_allocs.len());
                let gva = self.live_allocs.swap_remove(idx);
                vm.free(self.pid, gva)?;
            }
            // Power-of-two size classes (64..=1024), like a bucketing
            // allocator: freed blocks recycle perfectly, so the heap stays
            // inside the arena's malloc region for arbitrarily long runs.
            let size = 64u64 << self.rng.gen_range(0..5);
            match vm.malloc(self.pid, size) {
                Ok(gva) => {
                    // Touch the object like real code would.
                    let fill = vec![self.rng.gen::<u8>(); (size as usize).min(256)];
                    vm.write_user(self.pid, gva, &fill, crimes_vm::WORKLOAD_RIP)?;
                    self.live_allocs.push(gva);
                }
                Err(VmError::Heap(_)) => {
                    // Arena full: free half the live set and move on,
                    // mimicking a generational burst.
                    for gva in self.live_allocs.split_off(self.live_allocs.len() / 2) {
                        vm.free(self.pid, gva)?;
                    }
                }
                Err(e) => return Err(e),
            }
        }

        vm.advance_time(ms * 1_000_000);
        self.total_ms += ms;
        Ok(())
    }
}

fn hash_name(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{profile, PROFILES};

    fn vm() -> Vm {
        let mut b = Vm::builder();
        b.pages(16384).seed(2); // 64 MiB: room for big footprints
        b.build()
    }

    #[test]
    fn run_ms_dirties_roughly_rate_times_ms() {
        let mut vm = vm();
        let p = profile("swaptions").unwrap();
        let mut w = ParsecWorkload::launch(&mut vm, p, 7).unwrap();
        vm.memory_mut().clear_dirty();
        w.run_ms(&mut vm, 100).unwrap();
        // 8 pages/ms * 100ms = 800 writes; unique pages ≤ writes.
        assert_eq!(w.total_dirtied(), 800);
        let unique = vm.memory().dirty().count();
        assert!(unique > 400, "unique dirty pages too low: {unique}");
        assert!(unique <= 800 + 64, "unique exceeds writes: {unique}");
    }

    #[test]
    fn unique_dirty_pages_grow_sublinearly() {
        let p = profile("freqmine").unwrap();
        let unique_at = |ms: u64| {
            let mut vm = vm();
            let mut w = ParsecWorkload::launch(&mut vm, p, 7).unwrap();
            vm.memory_mut().clear_dirty();
            w.run_ms(&mut vm, ms).unwrap();
            vm.memory().dirty().count()
        };
        let u60 = unique_at(60);
        let u200 = unique_at(200);
        assert!(u200 > u60, "more time, more unique pages");
        assert!(
            (u200 as f64) < (u60 as f64) * (200.0 / 60.0),
            "growth must be sublinear: {u60} -> {u200}"
        );
    }

    #[test]
    fn fractional_rates_accumulate_debt() {
        let mut vm = vm();
        let p = ParsecProfile {
            name: "slow",
            description: "",
            dirty_pages_per_ms: 0.3,
            footprint_pages: 100,
            allocs_per_ms: 0.0,
            mem_op_fraction: 0.5,
        };
        let mut w = ParsecWorkload::launch(&mut vm, &p, 1).unwrap();
        vm.memory_mut().clear_dirty();
        for _ in 0..10 {
            w.run_ms(&mut vm, 1).unwrap();
        }
        // Exactly 3 with real arithmetic; fp truncation may round one
        // write into the next slice.
        assert!(
            (2..=3).contains(&w.total_dirtied()),
            "got {}",
            w.total_dirtied()
        );
    }

    #[test]
    fn workload_is_deterministic_for_a_seed() {
        let run = || {
            let mut vm = vm();
            let p = profile("vips").unwrap();
            let mut w = ParsecWorkload::launch(&mut vm, p, 99).unwrap();
            w.run_ms(&mut vm, 50).unwrap();
            vm.memory().dump_frames()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seeds_diverge() {
        let run = |seed| {
            let mut vm = vm();
            let p = profile("vips").unwrap();
            let mut w = ParsecWorkload::launch(&mut vm, p, seed).unwrap();
            w.run_ms(&mut vm, 50).unwrap();
            vm.memory().dump_frames()
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn heap_churn_stays_bounded() {
        let mut vm = vm();
        let p = profile("freqmine").unwrap();
        let mut w = ParsecWorkload::launch(&mut vm, p, 3).unwrap();
        for _ in 0..20 {
            w.run_ms(&mut vm, 100).unwrap();
        }
        assert!(vm.heap().live_count() <= MAX_LIVE_ALLOCS + 1);
        assert_eq!(w.total_ms(), 2000);
    }

    #[test]
    fn all_profiles_launch_and_run() {
        let mut vm = Vm::builder().pages(32768).seed(5).build();
        for p in &PROFILES {
            let mut w = ParsecWorkload::launch(&mut vm, p, 11)
                .unwrap_or_else(|e| panic!("{}: {e}", p.name));
            w.run_ms(&mut vm, 10).unwrap();
            vm.exit_process(w.pid()).unwrap();
        }
    }

    #[test]
    fn clock_advances_with_run() {
        let mut vm = vm();
        let p = profile("raytrace").unwrap();
        let mut w = ParsecWorkload::launch(&mut vm, p, 1).unwrap();
        let t0 = vm.now_ns();
        w.run_ms(&mut vm, 20).unwrap();
        assert_eq!(vm.now_ns() - t0, 20_000_000);
    }
}
