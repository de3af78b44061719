//! Order statistics over raw samples.
//!
//! Percentiles are nearest-rank, so every reported value is a sample that
//! was actually measured. A tail percentile is only meaningful when enough
//! samples lie beyond it; [`pick_tail`] is the one place that rule lives.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles the detail report may pick from, highest first.
pub const LADDER: [u32; 4] = [99, 95, 90, 75];

/// 1-based nearest rank of `pct` among `n` samples.
fn rank(n: usize, pct: u32) -> usize {
    (n * pct as usize).div_ceil(100).clamp(1, n.max(1))
}

/// Samples strictly beyond the `pct` rank of `n` samples.
pub fn beyond(n: usize, pct: u32) -> usize {
    n.saturating_sub(rank(n, pct))
}

/// The highest percentile of [`LADDER`] with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even the lowest has too few.
pub fn pick_tail(n: usize) -> Option<u32> {
    LADDER.into_iter().find(|&pct| beyond(n, pct) >= MIN_BEYOND)
}

/// `true` when `pct` of `n` samples has enough samples beyond it.
pub fn supported(n: usize, pct: u32) -> bool {
    beyond(n, pct) >= MIN_BEYOND
}

/// Samples sorted ascending (NaN-free by construction: all are durations
/// or counts).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending slice; 0 for an empty one.
pub fn percentile(sorted: &[f64], pct: u32) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), pct) - 1]
}

/// Median of unsorted samples; 0 for none.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50)
}

/// Median of the last tenth of `samples` (in arrival order) over the
/// median of the first tenth: how much a cost drifted as the guest aged.
/// 0 when there are too few samples for two deciles.
pub fn age_drift(samples: &[f64]) -> f64 {
    let decile = samples.len() / 10;
    if decile == 0 {
        return 0.0;
    }
    let first = median(&samples[..decile]);
    let last = median(&samples[samples.len() - decile..]);
    if first > 0.0 {
        last / first
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picked_tail_always_has_ten_samples_beyond_it() {
        for n in 0..5_000 {
            match pick_tail(n) {
                Some(pct) => {
                    assert!(beyond(n, pct) >= MIN_BEYOND, "n={n} picked p{pct}");
                    // ... and nothing higher on the ladder qualifies.
                    for higher in LADDER.into_iter().filter(|&h| h > pct) {
                        assert!(beyond(n, higher) < MIN_BEYOND, "n={n} skipped p{higher}");
                    }
                }
                None => assert!(beyond(n, 75) < MIN_BEYOND, "n={n} picked nothing"),
            }
        }
    }

    #[test]
    fn tail_thresholds_are_where_the_arithmetic_says() {
        assert_eq!(pick_tail(39), None);
        assert_eq!(pick_tail(40), Some(75));
        assert_eq!(pick_tail(100), Some(90));
        assert_eq!(pick_tail(200), Some(95));
        assert_eq!(pick_tail(999), Some(95));
        assert_eq!(pick_tail(1_000), Some(99));
        assert!(supported(200, 95) && !supported(199, 95));
    }

    #[test]
    fn percentiles_are_measured_samples() {
        let s = sorted(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(percentile(&s, 50), 3.0);
        assert_eq!(percentile(&s, 99), 5.0);
        assert_eq!(percentile(&s, 1), 1.0);
        assert_eq!(percentile(&[], 50), 0.0);
        assert_eq!(median(&[2.0, 9.0]), 2.0);
    }

    #[test]
    fn age_drift_compares_last_decile_to_first() {
        let ramp: Vec<f64> = (0..100).map(|i| 1.0 + f64::from(i)).collect();
        // first decile 1..=10 -> median 5; last decile 91..=100 -> median 95.
        assert_eq!(age_drift(&ramp), 19.0);
        assert_eq!(age_drift(&[3.0; 50]), 1.0);
        assert_eq!(age_drift(&[1.0; 9]), 0.0);
    }
}
