//! Latency summaries: medians and the tail percentile a sample supports.

/// The tail percentiles a latency may be reported at, highest first.
pub const TAIL_PERCENTILES: [u32; 3] = [99, 95, 90];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest value
/// with at least `p`% of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// Samples lying strictly above the nearest-rank `p`th percentile.
pub fn beyond(n: usize, p: u32) -> usize {
    n - (p as usize * n).div_ceil(100)
}

/// The highest tail percentile, no higher than `ceiling`, that leaves at
/// least [`MIN_BEYOND`] of `n` samples beyond it; `None` when even p90
/// does not. Each workload fixes its `ceiling` from its run length, so a
/// faster program does not move a metric to a different percentile.
pub fn tail_percentile(n: usize, ceiling: u32) -> Option<u32> {
    TAIL_PERCENTILES.into_iter().filter(|&p| p <= ceiling).find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// A latency sample summarised as median and tail, in milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    pub count: usize,
    pub p50_ms: f64,
    pub tail_ms: f64,
    pub tail_pct: u32,
}

impl Latency {
    /// Summarise nanosecond samples. `None` for an empty sample or one
    /// too small for any tail percentile.
    pub fn of(samples_ns: &[u64], ceiling: u32) -> Option<Latency> {
        let mut ms: Vec<f64> = samples_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
        ms.sort_by(f64::total_cmp);
        let tail_pct = tail_percentile(ms.len(), ceiling)?;
        Some(Latency {
            count: ms.len(),
            p50_ms: percentile(&ms, 50.0),
            tail_ms: percentile(&ms, f64::from(tail_pct)),
            tail_pct,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_selection_keeps_ten_samples_beyond() {
        for n in 1..5000 {
            for ceiling in TAIL_PERCENTILES {
                let Some(p) = tail_percentile(n, ceiling) else {
                    assert!(beyond(n, 90) < MIN_BEYOND, "n={n}: p90 was available");
                    continue;
                };
                assert!(p <= ceiling);
                // Count the samples strictly above the reported value
                // directly, on distinct values.
                let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
                let cut = percentile(&v, f64::from(p));
                let above = v.iter().filter(|&&x| x > cut).count();
                assert!(above >= MIN_BEYOND, "n={n} p{p}: only {above} beyond");
                // And no higher allowed percentile would have qualified.
                for higher in TAIL_PERCENTILES.into_iter().filter(|&h| h > p && h <= ceiling) {
                    assert!(beyond(n, higher) < MIN_BEYOND, "n={n}: p{higher} also qualifies");
                }
            }
        }
        assert_eq!(tail_percentile(1000, 99), Some(99));
        assert_eq!(tail_percentile(999, 99), Some(95));
        assert_eq!(tail_percentile(1000, 95), Some(95));
        assert_eq!(tail_percentile(199, 99), Some(90));
        assert_eq!(tail_percentile(99, 99), None);
    }

    #[test]
    fn latency_summary_reports_its_percentile() {
        let ns: Vec<u64> = (1..=400).map(|i| i * 1_000_000).collect();
        let l = Latency::of(&ns, 99).expect("400 samples support p95");
        assert_eq!((l.count, l.tail_pct), (400, 95));
        assert_eq!(l.p50_ms, 200.0);
        assert_eq!(l.tail_ms, 380.0);
    }
}
