//! Simulation statistics, including the confidence-instance samples that
//! feed reliability diagrams.

use std::sync::OnceLock;

use paco::{ConfidenceScore, FromScore};
use paco_branch::Mdc;
use paco_types::Probability;

/// Number of percent bins in the predicted-probability histogram (0–100).
pub const PROB_BINS: usize = 101;

/// The percent bin of a predicted goodpath probability: the nearest
/// whole percent.
#[inline]
pub(crate) fn percent_bin(p: Probability) -> usize {
    ((p.value() * 100.0).round() as usize).min(PROB_BINS - 1)
}

/// The percent bin of the goodpath probability each confidence score
/// decodes to, by table lookup.
///
/// Every probability-producing estimator's probability is
/// [`Probability::from_score`] of its score, so the bin of a confidence
/// instance is a pure function of the integer score. The table holds
/// [`percent_bin`] of that decode for every score below the first one
/// that bins to 0 (about 7.8k: where the probability drops under
/// 0.5%); the decode falls monotonically, so every later score bins to
/// 0 too. The simulator thus bins two instances per instruction with
/// one load instead of an `exp2` and a rounding each.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PercentBins(&'static [u8]);

impl PercentBins {
    /// The table (built on first use).
    pub(crate) fn get() -> Self {
        static TABLE: OnceLock<Vec<u8>> = OnceLock::new();
        PercentBins(TABLE.get_or_init(|| {
            (0..)
                .map(|score| percent_bin(Probability::from_score(ConfidenceScore(score))) as u8)
                .take_while(|&bin| bin > 0)
                .collect()
        }))
    }

    /// The percent bin of `Probability::from_score(ConfidenceScore(score))`.
    #[inline]
    pub(crate) fn bin(self, score: u64) -> usize {
        usize::try_from(score)
            .ok()
            .and_then(|s| self.0.get(s))
            .map_or(0, |&bin| bin as usize)
    }
}

/// Maximum tracked low-confidence counter value for counter-instance
/// sampling (larger scores are clamped into the last bin).
pub const SCORE_BINS: usize = 64;

/// Per-thread statistics for one simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadStats {
    /// Instructions retired (architectural work).
    pub retired: u64,
    /// Instructions fetched (good + bad path).
    pub fetched: u64,
    /// Instructions fetched while the fetch unit was on the wrong path.
    pub fetched_badpath: u64,
    /// Instructions issued to functional units.
    pub executed: u64,
    /// Wrong-path instructions issued to functional units.
    pub executed_badpath: u64,
    /// Conditional branches retired.
    pub cond_retired: u64,
    /// Conditional branches retired that were mispredicted.
    pub cond_mispredicted: u64,
    /// All control-flow instructions retired.
    pub control_retired: u64,
    /// Control-flow instructions retired that were mispredicted.
    pub control_mispredicted: u64,
    /// Retired conditional branches per MDC-at-fetch bucket.
    pub mdc_retired: [u64; Mdc::BUCKETS],
    /// Mispredicted retired conditional branches per MDC-at-fetch bucket.
    pub mdc_mispredicted: [u64; Mdc::BUCKETS],
    /// Cycles in which gating blocked all fetch for this thread.
    pub gated_cycles: u64,
    /// Confidence instances binned by predicted goodpath percent:
    /// `(instances, instances-on-goodpath)`.
    pub prob_instances: Vec<(u64, u64)>,
    /// Confidence instances binned by integer confidence score
    /// (low-confidence branch count): `(instances, instances-on-goodpath)`.
    pub score_instances: Vec<(u64, u64)>,
}

impl ThreadStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        ThreadStats {
            retired: 0,
            fetched: 0,
            fetched_badpath: 0,
            executed: 0,
            executed_badpath: 0,
            cond_retired: 0,
            cond_mispredicted: 0,
            control_retired: 0,
            control_mispredicted: 0,
            mdc_retired: [0; Mdc::BUCKETS],
            mdc_mispredicted: [0; Mdc::BUCKETS],
            gated_cycles: 0,
            prob_instances: vec![(0, 0); PROB_BINS],
            score_instances: vec![(0, 0); SCORE_BINS],
        }
    }

    /// Records one confidence instance: `prob_bin` is the percent bin
    /// (nearest whole percent, 0–100) of the predicted goodpath
    /// probability (`None` for estimators without one), `score` the
    /// confidence score.
    #[inline]
    pub fn sample_instance(&mut self, prob_bin: Option<usize>, score: u64, on_goodpath: bool) {
        if let Some(bin) = prob_bin {
            self.prob_instances[bin].0 += 1;
            self.prob_instances[bin].1 += on_goodpath as u64;
        }
        let sbin = (score as usize).min(SCORE_BINS - 1);
        self.score_instances[sbin].0 += 1;
        self.score_instances[sbin].1 += on_goodpath as u64;
    }

    /// Conditional mispredict rate in percent (None when no branches
    /// retired).
    pub fn cond_mispredict_pct(&self) -> Option<f64> {
        (self.cond_retired > 0)
            .then(|| 100.0 * self.cond_mispredicted as f64 / self.cond_retired as f64)
    }

    /// Overall control-flow mispredict rate in percent.
    pub fn overall_mispredict_pct(&self) -> Option<f64> {
        (self.control_retired > 0)
            .then(|| 100.0 * self.control_mispredicted as f64 / self.control_retired as f64)
    }

    /// Observed goodpath probability for a given score value, if sampled.
    pub fn observed_goodpath_at_score(&self, score: u64) -> Option<f64> {
        let (n, good) = self.score_instances[(score as usize).min(SCORE_BINS - 1)];
        (n > 0).then(|| good as f64 / n as f64)
    }

    /// Per-MDC-bucket mispredict rate in percent.
    pub fn mdc_bucket_mispredict_pct(&self, bucket: usize) -> Option<f64> {
        let n = self.mdc_retired[bucket];
        (n > 0).then(|| 100.0 * self.mdc_mispredicted[bucket] as f64 / n as f64)
    }
}

impl Default for ThreadStats {
    fn default() -> Self {
        ThreadStats::new()
    }
}

/// Whole-machine statistics for one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// Simulated cycles.
    pub cycles: u64,
    /// Per-thread statistics.
    pub threads: Vec<ThreadStats>,
}

impl MachineStats {
    /// Instructions per cycle for one thread.
    pub fn ipc(&self, thread: usize) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.threads[thread].retired as f64 / self.cycles as f64
        }
    }

    /// Total retired instructions across threads.
    pub fn total_retired(&self) -> u64 {
        self.threads.iter().map(|t| t.retired).sum()
    }

    /// Total wrong-path instructions executed across threads.
    pub fn total_badpath_executed(&self) -> u64 {
        self.threads.iter().map(|t| t.executed_badpath).sum()
    }

    /// Total wrong-path instructions fetched across threads.
    pub fn total_badpath_fetched(&self) -> u64 {
        self.threads.iter().map(|t| t.fetched_badpath).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bin(p: f64) -> Option<usize> {
        Some(percent_bin(Probability::new(p).unwrap()))
    }

    #[test]
    fn sampling_bins_probabilities() {
        let mut s = ThreadStats::new();
        s.sample_instance(bin(0.995), 0, true);
        s.sample_instance(bin(1.0), 0, true);
        s.sample_instance(bin(0.004), 7, false);
        assert_eq!(s.prob_instances[100].0, 2);
        assert_eq!(s.prob_instances[0], (1, 0));
        assert_eq!(s.score_instances[7], (1, 0));
        assert_eq!(s.score_instances[0], (2, 2));
    }

    #[test]
    fn sampling_clamps_out_of_range_scores() {
        let mut s = ThreadStats::new();
        s.sample_instance(None, 10_000, true);
        assert_eq!(s.score_instances[SCORE_BINS - 1], (1, 1));
        // No probability recorded.
        assert!(s.prob_instances.iter().all(|&(n, _)| n == 0));
    }

    #[test]
    fn percent_bins_match_the_rounded_decode_for_every_score() {
        // The table against the decode-and-round it replaces, spelled
        // out independently, over the whole 22-bit score range (far past
        // the table's end, where everything must bin to 0).
        let bins = PercentBins::get();
        for score in 0..=1u64 << 22 {
            let p = (-(score as f64) / 1024.0).exp2();
            let expected = ((p * 100.0).round() as usize).min(100);
            assert_eq!(bins.bin(score), expected, "score={score}");
        }
        assert_eq!(bins.bin(u64::MAX), 0);
    }

    #[test]
    fn percent_bin_table_ends_where_the_probability_rounds_to_zero() {
        // 2^(−s/1024) < 0.005  ⇔  s > 1024·log2(200) ≈ 7827.
        let end = PercentBins::get().0.len();
        assert!((7_800..7_900).contains(&end), "table end {end}");
        assert_eq!(PercentBins::get().bin(end as u64 - 1), 1);
    }

    #[test]
    fn rates_handle_empty_denominators() {
        let s = ThreadStats::new();
        assert_eq!(s.cond_mispredict_pct(), None);
        assert_eq!(s.overall_mispredict_pct(), None);
        assert_eq!(s.observed_goodpath_at_score(5), None);
        assert_eq!(s.mdc_bucket_mispredict_pct(0), None);
    }

    #[test]
    fn machine_ipc() {
        let mut m = MachineStats {
            cycles: 100,
            threads: vec![ThreadStats::new()],
        };
        m.threads[0].retired = 250;
        assert!((m.ipc(0) - 2.5).abs() < 1e-12);
        assert_eq!(m.total_retired(), 250);
    }
}
