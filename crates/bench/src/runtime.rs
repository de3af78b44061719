//! Shared experiment machinery: run a workload under the checkpoint engine
//! for N epochs and collect the quantities the paper's figures report.
//!
//! Guest *run* time is simulated (the workload's `run_ms` advances the
//! guest clock and issues the profile's real memory writes); *pause* time
//! is measured wall-clock over the real checkpoint work. Normalised
//! runtime is therefore
//!
//! ```text
//! (epochs × interval + Σ measured pause) / (epochs × interval)
//! ```
//!
//! matching the paper's "runtime normalised against the same VM with no
//! security enabled" — the unprotected run spends exactly the epoch
//! intervals and never pauses.

use std::time::Duration;

use crimes_checkpoint::{AuditVerdict, CheckpointConfig, Checkpointer, OptLevel, Phase};
use crimes_vm::{Vm, VmError};
use crimes_workloads::{ParsecProfile, ParsecWorkload, WebIntensity, WebServerWorkload};

/// Guest size used by the PARSEC experiments (64 MiB: fits the largest
/// footprint with headroom).
pub const PARSEC_GUEST_PAGES: usize = 16_384;

/// What one protected run produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunStats {
    /// Epochs executed.
    pub epochs: u32,
    /// Epoch interval in milliseconds.
    pub interval_ms: u64,
    /// Mean per-epoch pause breakdown (measured), indexed by
    /// `Phase as usize`.
    pub pause_mean: [Duration; Phase::ALL.len()],
    /// Mean dirty pages per epoch.
    pub dirty_pages_mean: f64,
    /// Normalised runtime (≥ 1.0).
    pub normalized_runtime: f64,
    /// Map/unmap hypercalls issued across the run (deterministic).
    pub map_hypercalls: u64,
}

impl RunStats {
    /// Mean total pause per epoch.
    pub fn pause_total_mean(&self) -> Duration {
        self.pause_mean.iter().sum()
    }

    /// Mean time in one phase per epoch.
    pub fn phase_mean(&self, phase: Phase) -> Duration {
        self.pause_mean[phase as usize]
    }
}

fn finish(
    cp: &Checkpointer,
    epochs: u32,
    interval_ms: u64,
    dirty_total: u64,
    phase_ns: [u64; Phase::ALL.len()],
) -> RunStats {
    let pause_sum = Duration::from_nanos(phase_ns.iter().sum());
    let native = Duration::from_millis(interval_ms) * epochs;
    RunStats {
        epochs,
        interval_ms,
        pause_mean: phase_ns.map(|ns| Duration::from_nanos(ns) / epochs),
        dirty_pages_mean: dirty_total as f64 / epochs as f64,
        normalized_runtime: (native + pause_sum).as_secs_f64() / native.as_secs_f64(),
        map_hypercalls: cp.map_hypercalls(),
    }
}

/// Run one PARSEC profile under the checkpoint engine.
///
/// # Errors
///
/// Propagates guest faults (cannot occur for the bundled profiles).
///
/// # Panics
///
/// Panics if `epochs` is zero.
pub fn run_parsec(
    profile: &ParsecProfile,
    opt: OptLevel,
    interval_ms: u64,
    epochs: u32,
    seed: u64,
) -> Result<RunStats, VmError> {
    assert!(epochs > 0, "need at least one epoch");
    let mut builder = Vm::builder();
    builder.pages(PARSEC_GUEST_PAGES).seed(seed);
    let mut vm = builder.build();
    let mut workload = ParsecWorkload::launch(&mut vm, profile, seed)?;
    // Boot + spawn writes are not part of the measured epochs.
    vm.memory_mut().take_dirty();
    let mut cp = Checkpointer::new(
        &vm,
        CheckpointConfig {
            opt,
            ..CheckpointConfig::default()
        },
    );
    let (mut dirty_total, mut phase_ns) = (0u64, [0u64; Phase::ALL.len()]);
    for _ in 0..epochs {
        workload.run_ms(&mut vm, interval_ms)?;
        // The overhead experiments configure a minimal no-op scan (§5.2).
        let report = cp
            .run_epoch(&mut vm, &mut |_, _| AuditVerdict::Pass)
            .expect("no faults armed in benches");
        dirty_total += report.dirty_pages as u64;
        for (sum, ns) in phase_ns.iter_mut().zip(report.phase_ns) {
            *sum += ns;
        }
    }
    Ok(finish(&cp, epochs, interval_ms, dirty_total, phase_ns))
}

/// Run the web-server workload at an intensity under the checkpoint
/// engine (Table 1's setup: 20 ms epochs, no optimisations).
///
/// # Errors
///
/// Propagates guest faults.
///
/// # Panics
///
/// Panics if `epochs` is zero.
pub fn run_web(
    intensity: WebIntensity,
    opt: OptLevel,
    interval_ms: u64,
    epochs: u32,
    seed: u64,
) -> Result<RunStats, VmError> {
    assert!(epochs > 0, "need at least one epoch");
    let mut builder = Vm::builder();
    builder.pages(8_192).seed(seed);
    let mut vm = builder.build();
    let mut workload = WebServerWorkload::launch(&mut vm, intensity, seed)?;
    vm.memory_mut().take_dirty();
    let mut cp = Checkpointer::new(
        &vm,
        CheckpointConfig {
            opt,
            ..CheckpointConfig::default()
        },
    );
    let (mut dirty_total, mut phase_ns) = (0u64, [0u64; Phase::ALL.len()]);
    for _ in 0..epochs {
        workload.run_ms(&mut vm, interval_ms)?;
        let report = cp
            .run_epoch(&mut vm, &mut |_, _| AuditVerdict::Pass)
            .expect("no faults armed in benches");
        dirty_total += report.dirty_pages as u64;
        for (sum, ns) in phase_ns.iter_mut().zip(report.phase_ns) {
            *sum += ns;
        }
    }
    Ok(finish(&cp, epochs, interval_ms, dirty_total, phase_ns))
}

/// Geometric mean of a slice of positive numbers.
///
/// # Panics
///
/// Panics on an empty slice or non-positive values.
pub fn geometric_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of nothing");
    assert!(
        values.iter().all(|v| *v > 0.0),
        "geometric mean needs positive values"
    );
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crimes_workloads::profile;

    #[test]
    fn parsec_run_produces_sane_stats() {
        let _guard = crate::measurement_lock();
        let p = profile("raytrace").unwrap();
        let stats = run_parsec(p, OptLevel::Full, 50, 4, 1).unwrap();
        assert_eq!(stats.epochs, 4);
        assert!(stats.normalized_runtime >= 1.0);
        assert!(stats.dirty_pages_mean > 0.0);
        assert!(stats.pause_total_mean() > Duration::ZERO);
    }

    #[test]
    fn noopt_pauses_longer_than_full() {
        let _guard = crate::measurement_lock();
        let p = profile("swaptions").unwrap();
        let full = run_parsec(p, OptLevel::Full, 100, 4, 1).unwrap();
        let noopt = run_parsec(p, OptLevel::NoOpt, 100, 4, 1).unwrap();
        assert!(
            noopt.pause_total_mean() > full.pause_total_mean(),
            "No-opt {:?} must pause longer than Full {:?}",
            noopt.pause_total_mean(),
            full.pause_total_mean()
        );
        assert!(noopt.normalized_runtime > full.normalized_runtime);
    }

    #[test]
    fn web_intensity_orders_dirty_pages() {
        let _guard = crate::measurement_lock();
        let light = run_web(WebIntensity::Light, OptLevel::NoOpt, 20, 4, 1).unwrap();
        let high = run_web(WebIntensity::High, OptLevel::NoOpt, 20, 4, 1).unwrap();
        assert!(high.dirty_pages_mean > light.dirty_pages_mean);
    }

    #[test]
    fn geometric_mean_basics() {
        let _guard = crate::measurement_lock();
        assert!((geometric_mean(&[4.0, 1.0]) - 2.0).abs() < 1e-9);
        assert!((geometric_mean(&[3.0]) - 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "nothing")]
    fn geometric_mean_empty_panics() {
        geometric_mean(&[]);
    }
}
