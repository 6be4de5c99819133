//! Order statistics with the reporting rule the benchmark follows: a
//! percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it, and always together with its sample count.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A reported percentile: which one, its value, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The percentile, 1..=99.
    pub pct: u32,
    /// The nearest-rank order statistic.
    pub value: u64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// Nearest-rank 1-based rank of percentile `pct` among `n` samples.
fn rank(n: usize, pct: u32) -> usize {
    (pct as usize * n).div_ceil(100).max(1)
}

/// The `pct` percentile of `sorted` (ascending), or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[u64], pct: u32) -> Option<Quantile> {
    assert!((1..=99).contains(&pct), "percentile {pct} out of 1..=99");
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let r = rank(n, pct);
    if n - r < MIN_BEYOND {
        return None;
    }
    Some(Quantile {
        pct,
        value: sorted[r - 1],
        samples: n,
    })
}

/// The highest percentile up to `max_pct` that the sample supports (see
/// [`percentile`]); `None` when not even the median is supported.
pub fn tail(sorted: &[u64], max_pct: u32) -> Option<Quantile> {
    (50..=max_pct).rev().find_map(|pct| percentile(sorted, pct))
}

/// Median of a float sample (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Interquartile range of a float sample as a share of its median — the
/// run-to-run noise a layer difference is compared against.
pub fn relative_iqr(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    let med = median(&v);
    if med == 0.0 {
        return 0.0;
    }
    ((at(0.75) - at(0.25)) / med).abs()
}

/// Median over fixed time slices of the work completed per second.
///
/// `done` yields `(completion ns since the window start, work)`; only
/// slices lying wholly inside `window_ns` count. A short stall then
/// moves one slice, not the reported rate.
pub fn median_slice_rate(
    done: impl IntoIterator<Item = (u64, u64)>,
    window_ns: u64,
    slice_ns: u64,
) -> f64 {
    let slices = (window_ns / slice_ns) as usize;
    assert!(slices > 0, "window shorter than one slice");
    let mut work = vec![0u64; slices];
    for (t, w) in done {
        if let Some(slot) = work.get_mut((t / slice_ns) as usize) {
            *slot += w;
        }
    }
    let rates: Vec<f64> = work
        .iter()
        .map(|&w| w as f64 * 1e9 / slice_ns as f64)
        .collect();
    median(&rates)
}

/// Median and tail of a latency sample, each taken per time slice and
/// then as the median over slices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sliced {
    /// Median over slices of each slice's median.
    pub p50: u64,
    /// Median over slices of each slice's tail (see [`tail`]).
    pub tail: u64,
    /// The lowest tail percentile any slice supported.
    pub tail_pct: u32,
    /// Samples over all slices.
    pub samples: usize,
}

/// Splits `(time ns, latency ns)` samples into `slices` equal stretches of
/// `window_ns` by time (later samples join the last stretch), and takes
/// each stretch's median and tail (≤ `max_pct`); `None` if a stretch
/// supports neither.
/// A burst of host noise then moves one stretch's figures, not the
/// reported ones.
pub fn sliced(
    samples: &[(u64, u64)],
    window_ns: u64,
    slices: usize,
    max_pct: u32,
) -> Option<Sliced> {
    let mut groups: Vec<Vec<u64>> = vec![Vec::new(); slices];
    for &(t, v) in samples {
        let i = ((t as u128 * slices as u128 / window_ns.max(1) as u128) as usize).min(slices - 1);
        groups[i].push(v);
    }
    let mut p50s = Vec::with_capacity(slices);
    let mut tails = Vec::with_capacity(slices);
    let mut tail_pct = max_pct;
    for g in &mut groups {
        g.sort_unstable();
        p50s.push(percentile(g, 50)?.value as f64);
        let t = tail(g, max_pct)?;
        tail_pct = tail_pct.min(t.pct);
        tails.push(t.value as f64);
    }
    Some(Sliced {
        p50: median(&p50s) as u64,
        tail: median(&tails) as u64,
        tail_pct,
        samples: samples.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: u64) -> Vec<u64> {
        (1..=n).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, exactly 10 beyond.
        let q = percentile(&ramp(1000), 99).expect("supported");
        assert_eq!((q.pct, q.value, q.samples), (99, 990, 1000));
        // 999 samples: rank 990, only 9 beyond.
        assert_eq!(percentile(&ramp(999), 99), None);
    }

    #[test]
    fn median_needs_ten_beyond_too() {
        assert_eq!(percentile(&ramp(19), 50), None);
        let q = percentile(&ramp(20), 50).expect("supported");
        assert_eq!(q.value, 10);
    }

    #[test]
    fn tail_falls_back_to_the_highest_supported_percentile() {
        // 200 samples: p95 has rank 190 and 10 beyond; p96 has 8.
        let q = tail(&ramp(200), 99).expect("some tail");
        assert_eq!((q.pct, q.value, q.samples), (95, 190, 200));
        assert_eq!(tail(&ramp(5000), 99).map(|q| q.pct), Some(99));
        assert_eq!(tail(&ramp(10), 99), None);
    }

    #[test]
    fn slice_rate_ignores_one_stalled_slice_and_the_ragged_end() {
        // 10 units per 100 ns, except nothing in slice 2; completions
        // past the last whole slice are dropped.
        let done = (0..50u64)
            .filter(|t| t / 10 != 2)
            .map(|t| (t * 10, 1))
            .chain([(505, 1000)]);
        assert_eq!(median_slice_rate(done, 550, 100), 1e8);
    }

    #[test]
    fn one_noisy_slice_moves_neither_figure() {
        // Three 100 ns stretches of 1000 samples each; the middle one is
        // ten times slower.
        let samples: Vec<(u64, u64)> = (0..3000u64)
            .map(|i| {
                let t = i / 10;
                let base = if (100..200).contains(&t) {
                    10_000
                } else {
                    1000
                };
                (t, base + i % 1000)
            })
            .collect();
        let s = sliced(&samples, 300, 3, 99).expect("every stretch supports p99");
        assert_eq!(
            (s.p50, s.tail, s.tail_pct, s.samples),
            (1499, 1989, 99, 3000)
        );
        // Too few samples per stretch for even a median.
        assert_eq!(sliced(&samples[..50], 300, 3, 99), None);
    }

    #[test]
    fn float_summaries() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // Quartiles 2 and 4 around median 3.
        assert!((relative_iqr(&[1.0, 2.0, 3.0, 4.0, 5.0]) - 2.0 / 3.0).abs() < 1e-12);
    }
}
