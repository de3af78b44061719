//! An AddressSanitizer-style inline memory-safety baseline.
//!
//! The paper compares CRIMES against Google's AddressSanitizer, whose cost
//! model is the opposite of CRIMES': *every* memory access pays an inline
//! shadow-memory check on the critical path, in exchange for a true zero
//! window of vulnerability. This module implements the same mechanism —
//! byte-granular shadow memory, redzones around allocations, and a
//! free-quarantine — so that the Figure 3 `AS` bars come from measured
//! instrumented-vs-raw execution of identical access sequences, not from a
//! made-up constant.

use crimes_rng::ChaCha8Rng;
use crimes_telemetry::{Clock, RealClock};

/// Shadow encoding: one shadow byte per application byte (simpler than
/// ASan's 1:8 compression; the check cost per access is equivalent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shadow {
    /// Unallocated or redzone.
    Poisoned,
    /// Valid application memory.
    Addressable,
    /// Freed and quarantined.
    Freed,
}

/// Redzone placed before and after every allocation, in bytes.
pub const REDZONE: usize = 16;

/// A detected invalid access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AsanViolation {
    /// Offending arena offset.
    pub offset: usize,
    /// What the access hit.
    pub kind: AsanViolationKind,
}

/// Classification of an invalid access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AsanViolationKind {
    /// Write/read into a redzone or unallocated memory — buffer overflow.
    RedzoneHit,
    /// Access to quarantined memory — use after free.
    UseAfterFree,
}

impl std::fmt::Display for AsanViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            AsanViolationKind::RedzoneHit => {
                write!(f, "heap-buffer-overflow at offset {:#x}", self.offset)
            }
            AsanViolationKind::UseAfterFree => {
                write!(f, "heap-use-after-free at offset {:#x}", self.offset)
            }
        }
    }
}

/// An instrumented heap arena.
#[derive(Debug, Clone)]
pub struct AsanArena {
    data: Vec<u8>,
    shadow: Vec<Shadow>,
    cursor: usize,
    /// Whether checks are active (off = the uninstrumented baseline).
    checks: bool,
}

impl AsanArena {
    /// Create an arena of `size` bytes with instrumentation `checks`.
    pub fn new(size: usize, checks: bool) -> Self {
        AsanArena {
            data: vec![0; size],
            shadow: vec![Shadow::Poisoned; size],
            cursor: 0,
            checks,
        }
    }

    /// `true` when shadow checks run on every access.
    pub fn instrumented(&self) -> bool {
        self.checks
    }

    /// Allocate `size` bytes with redzones. Returns the payload offset, or
    /// `None` when the arena is exhausted.
    pub fn malloc(&mut self, size: usize) -> Option<usize> {
        let need = size + 2 * REDZONE;
        if self.cursor + need > self.data.len() {
            return None;
        }
        let payload = self.cursor + REDZONE;
        // Redzones stay poisoned; payload becomes addressable.
        for s in &mut self.shadow[payload..payload + size] {
            *s = Shadow::Addressable;
        }
        self.cursor += need;
        Some(payload)
    }

    /// Free a payload of `size` bytes at `offset`: poison it as quarantined.
    pub fn free(&mut self, offset: usize, size: usize) {
        for s in &mut self.shadow[offset..offset + size] {
            *s = Shadow::Freed;
        }
    }

    /// Instrumented 1-byte store.
    ///
    /// # Errors
    ///
    /// Returns the violation when instrumentation catches an invalid
    /// access. Uninstrumented arenas never error (the bug proceeds
    /// silently, like un-sanitised C).
    #[inline]
    pub fn store(&mut self, offset: usize, val: u8) -> Result<(), AsanViolation> {
        if self.checks {
            self.check(offset)?;
        }
        self.data[offset] = val;
        Ok(())
    }

    /// Instrumented 1-byte load.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AsanArena::store`].
    #[inline]
    pub fn load(&mut self, offset: usize) -> Result<u8, AsanViolation> {
        if self.checks {
            self.check(offset)?;
        }
        Ok(self.data[offset])
    }

    #[inline]
    fn check(&self, offset: usize) -> Result<(), AsanViolation> {
        match self.shadow[offset] {
            Shadow::Addressable => Ok(()),
            Shadow::Poisoned => Err(AsanViolation {
                offset,
                kind: AsanViolationKind::RedzoneHit,
            }),
            Shadow::Freed => Err(AsanViolation {
                offset,
                kind: AsanViolationKind::UseAfterFree,
            }),
        }
    }
}

/// Measured instrumentation slowdown for a mixed allocate/access workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsanSlowdown {
    /// Raw (uninstrumented) run time in nanoseconds.
    pub raw_ns: u64,
    /// Instrumented run time in nanoseconds.
    pub instrumented_ns: u64,
}

impl AsanSlowdown {
    /// Instrumented / raw ratio (≥ 1 in practice).
    pub fn ratio(&self) -> f64 {
        self.instrumented_ns as f64 / self.raw_ns.max(1) as f64
    }
}

/// Run the same seeded allocate/store/load sequence over a raw and an
/// instrumented arena and time both. `ops` memory operations are issued
/// per run; each variant is warmed up and measured five times alternately,
/// and the medians are compared, so cache-warm-up order cannot skew the
/// ratio.
pub fn measure_slowdown(ops: usize, seed: u64) -> AsanSlowdown {
    // Warm-up (untimed).
    run_sequence(ops / 4, seed, false);
    run_sequence(ops / 4, seed, true);
    let mut raw = Vec::with_capacity(5);
    let mut instr = Vec::with_capacity(5);
    for round in 0..5 {
        // Alternate the order each round.
        if round % 2 == 0 {
            raw.push(run_sequence(ops, seed, false));
            instr.push(run_sequence(ops, seed, true));
        } else {
            instr.push(run_sequence(ops, seed, true));
            raw.push(run_sequence(ops, seed, false));
        }
    }
    raw.sort_unstable();
    instr.sort_unstable();
    AsanSlowdown {
        raw_ns: raw[raw.len() / 2],
        instrumented_ns: instr[instr.len() / 2],
    }
}

/// Convert a measured instrumentation ratio into a whole-benchmark
/// slowdown, scaling by the profile's memory-op fraction (compute-bound
/// phases are not instrumented-away by ASan either).
pub fn workload_slowdown(instr_ratio: f64, mem_op_fraction: f64) -> f64 {
    1.0 + mem_op_fraction * (instr_ratio - 1.0)
}

fn run_sequence(ops: usize, seed: u64, checks: bool) -> u64 {
    let mut arena = AsanArena::new(4 << 20, checks);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut allocs: Vec<(usize, usize)> = Vec::new();
    // Pre-populate allocations so accesses dominate.
    for _ in 0..256 {
        let size = rng.gen_range(64..512);
        if let Some(off) = arena.malloc(size) {
            allocs.push((off, size));
        }
    }
    // Precompute the access trace so the timed loop measures *only* the
    // (possibly instrumented) memory accesses — otherwise the trace
    // arithmetic swamps the shadow check and the ratio collapses to 1.
    let trace: Vec<(u32, bool)> = (0..ops)
        .map(|i| {
            let (off, size) = allocs[i % allocs.len()];
            ((off + (i * 37) % size) as u32, i % 3 == 0)
        })
        .collect();
    let mut sink = 0u64;
    let clock = RealClock::new();
    for &(at, is_load) in &trace {
        if is_load {
            sink = sink.wrapping_add(arena.load(at as usize).expect("valid access") as u64);
        } else {
            arena
                .store(at as usize, (at & 0xff) as u8)
                .expect("valid access");
        }
    }
    let elapsed = clock.now_ns();
    // Defeat dead-code elimination.
    std::hint::black_box(sink);
    std::hint::black_box(&arena);
    elapsed.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_accesses_pass() {
        let mut a = AsanArena::new(4096, true);
        let off = a.malloc(64).unwrap();
        a.store(off, 7).unwrap();
        a.store(off + 63, 8).unwrap();
        assert_eq!(a.load(off).unwrap(), 7);
    }

    #[test]
    fn overflow_hits_redzone() {
        let mut a = AsanArena::new(4096, true);
        let off = a.malloc(64).unwrap();
        let err = a.store(off + 64, 1).unwrap_err();
        assert_eq!(err.kind, AsanViolationKind::RedzoneHit);
        assert!(err.to_string().contains("heap-buffer-overflow"));
    }

    #[test]
    fn underflow_hits_redzone_too() {
        let mut a = AsanArena::new(4096, true);
        let off = a.malloc(64).unwrap();
        assert!(a.store(off - 1, 1).is_err());
    }

    #[test]
    fn use_after_free_is_caught() {
        let mut a = AsanArena::new(4096, true);
        let off = a.malloc(64).unwrap();
        a.free(off, 64);
        let err = a.load(off).unwrap_err();
        assert_eq!(err.kind, AsanViolationKind::UseAfterFree);
        assert!(err.to_string().contains("use-after-free"));
    }

    #[test]
    fn uninstrumented_arena_lets_bugs_through() {
        let mut a = AsanArena::new(4096, false);
        let off = a.malloc(64).unwrap();
        assert!(!a.instrumented());
        // The overflow silently succeeds — the behaviour CRIMES' canary
        // scan exists to catch after the fact.
        a.store(off + 64, 1).unwrap();
    }

    #[test]
    fn adjacent_allocations_are_redzone_separated() {
        let mut a = AsanArena::new(4096, true);
        let first = a.malloc(32).unwrap();
        let second = a.malloc(32).unwrap();
        assert!(second >= first + 32 + 2 * REDZONE - REDZONE);
        // Every byte between the two payloads is poisoned.
        for off in first + 32..second {
            assert!(a.store(off, 1).is_err(), "byte {off} not poisoned");
        }
    }

    #[test]
    fn exhausted_arena_returns_none() {
        let mut a = AsanArena::new(128, true);
        assert!(a.malloc(256).is_none());
    }

    #[test]
    fn instrumentation_costs_more_than_raw() {
        // Generous op count so timing noise cannot flip the comparison.
        let s = measure_slowdown(2_000_000, 42);
        assert!(s.ratio() > 1.0, "instrumented must be slower: {:?}", s);
    }

    #[test]
    fn workload_slowdown_interpolates() {
        assert!((workload_slowdown(2.0, 0.5) - 1.5).abs() < 1e-9);
        assert!((workload_slowdown(1.0, 0.9) - 1.0).abs() < 1e-9);
        assert!((workload_slowdown(3.0, 0.0) - 1.0).abs() < 1e-9);
    }
}
