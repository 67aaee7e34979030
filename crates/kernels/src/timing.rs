//! Robust wall-clock measurement helpers.
//!
//! SpMV iterations on small matrices run in microseconds, so single
//! measurements are hopelessly noisy. [`measure_median`] runs a warmup
//! then repeated timed runs and reports the full sample spread as a
//! [`Samples`] summary — the estimator the bench harness uses when
//! operating in wall-clock (`--measured`) mode. Every timed iteration
//! is also recorded into the `timing.measure_median` trace histogram
//! (when `wise-trace` is enabled), so measured runs leave their noise
//! profile in the emitted `perf_summary.json` instead of discarding it.

use std::time::{Duration, Instant};

/// The spread of one [`measure_median`] run: order statistics over the
/// timed iterations, not just the median.
///
/// All percentiles (including `median`) use one definition —
/// *nearest-rank with rounding*: percentile `p` is the sorted sample at
/// index `round((len - 1) · p)`, with ties rounding away from zero. For
/// even-length samples the median is therefore the **upper** middle
/// element (index `len / 2`): the median is the nearest-rank p50.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Samples {
    /// The median timed iteration (the headline estimate).
    pub median: Duration,
    pub min: Duration,
    pub p95: Duration,
    pub max: Duration,
    /// Sum of every timed iteration — what the whole measurement
    /// actually cost in wall-clock terms (the honest "preprocessing
    /// spent" figure for trial-executing inspectors).
    pub total: Duration,
    /// Timed iterations taken (after warmup).
    pub iters: usize,
}

impl Samples {
    /// Summarizes a set of raw durations (need not be sorted).
    pub fn from_durations(mut samples: Vec<Duration>) -> Samples {
        assert!(!samples.is_empty(), "need at least one sample");
        let total: Duration = samples.iter().sum();
        samples.sort_unstable();
        // Nearest-rank with rounding (see the type docs); the single
        // definition shared by every field so they cannot disagree.
        let pct = |p: f64| samples[((samples.len() - 1) as f64 * p).round() as usize];
        Samples {
            median: pct(0.50),
            min: samples[0],
            p95: pct(0.95),
            max: samples[samples.len() - 1],
            total,
            iters: samples.len(),
        }
    }
}

/// Runs `f` `warmup` times untimed, then `iters` timed runs, returning
/// the sample summary (median, min/p95/max, count). `iters` of 0 is
/// treated as 1. Each timed run is recorded into the
/// `timing.measure_median` trace histogram when tracing is enabled.
pub fn measure_median(mut f: impl FnMut(), warmup: usize, iters: usize) -> Samples {
    for _ in 0..warmup {
        f();
    }
    let iters = iters.max(1);
    let mut samples: Vec<Duration> = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        f();
        let d = t0.elapsed();
        wise_trace::observe_ns("timing.measure_median", d.as_nanos() as u64);
        samples.push(d);
    }
    Samples::from_durations(samples)
}

/// Times a single invocation (used for one-shot preprocessing costs).
pub fn measure_once<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_warmup_plus_iters() {
        let calls = AtomicUsize::new(0);
        let s = measure_median(
            || {
                calls.fetch_add(1, Ordering::Relaxed);
            },
            3,
            5,
        );
        assert_eq!(calls.load(Ordering::Relaxed), 8);
        assert_eq!(s.iters, 5);
        assert!(s.median < Duration::from_secs(1));
    }

    #[test]
    fn zero_iters_still_measures_once() {
        let calls = AtomicUsize::new(0);
        let s = measure_median(
            || {
                calls.fetch_add(1, Ordering::Relaxed);
            },
            0,
            0,
        );
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(s.iters, 1);
        assert_eq!(s.min, s.max);
    }

    #[test]
    fn samples_order_statistics() {
        let ms = Duration::from_millis;
        let s = Samples::from_durations(vec![ms(5), ms(1), ms(3), ms(2), ms(4)]);
        assert_eq!(s.min, ms(1));
        assert_eq!(s.median, ms(3));
        assert_eq!(s.p95, ms(5)); // round(4 * 0.95) = 4 -> last sample
        assert_eq!(s.max, ms(5));
        assert_eq!(s.total, ms(15));
        assert_eq!(s.iters, 5);
    }

    #[test]
    fn spread_ordering_invariants() {
        let s = measure_median(
            || {
                std::hint::black_box((0..100).sum::<u64>());
            },
            1,
            9,
        );
        assert!(s.min <= s.median && s.median <= s.p95 && s.p95 <= s.max);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_samples_rejected() {
        Samples::from_durations(vec![]);
    }

    #[test]
    fn median_equals_p50_on_even_lengths() {
        let ms = Duration::from_millis;
        for len in [2usize, 4, 6, 10] {
            let s = Samples::from_durations((1..=len as u64).map(ms).collect());
            // The nearest-rank p50: the upper middle element.
            assert_eq!(s.median, ms(len as u64 / 2 + 1), "len={len}");
            assert_eq!(s.total, ms((1..=len as u64).sum()), "len={len}");
        }
    }

    #[test]
    fn measure_once_returns_value() {
        let (v, d) = measure_once(|| 2 + 2);
        assert_eq!(v, 4);
        assert!(d < Duration::from_secs(1));
    }
}
