//! Pipeline gating and SMT fetch-prioritization policies.

use paco::{ConfidenceScore, EncodedProb};
use paco_types::canon::Canon;
use paco_types::Probability;

/// Pipeline gating / throttling policy (paper §5.1 and the selective
/// throttling extension of Aragón et al. discussed in §6).
///
/// The policy maps the current confidence score to an allowed fetch width.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum GatingPolicy {
    /// Never gate.
    #[default]
    None,
    /// Conventional gating: stop fetch while the number of unresolved
    /// low-confidence branches is at least `gate_count` (Manne et al.).
    CountGate {
        /// The gate-count threshold (paper sweeps 1–10).
        gate_count: u64,
    },
    /// PaCo gating: stop fetch while the predicted goodpath probability is
    /// below a target (the encoded threshold is precomputed once, as the
    /// paper prescribes).
    PacoGate {
        /// Gate when the encoded confidence sum exceeds this value.
        encoded_threshold: u64,
    },
    /// Selective throttling on the low-confidence count: full width below
    /// `start`, then one width step lost per additional outstanding
    /// low-confidence branch.
    CountThrottle {
        /// Count at which throttling begins.
        start: u64,
    },
    /// Selective throttling on PaCo's encoded confidence: full width at or
    /// below `full`, zero width at or above `zero`, linear in between.
    PacoThrottle {
        /// Encoded sum at which throttling begins.
        full: u64,
        /// Encoded sum at which fetch stops entirely.
        zero: u64,
    },
}

impl GatingPolicy {
    /// Builds a [`GatingPolicy::PacoGate`] from a target goodpath
    /// probability: fetch is gated whenever the predicted goodpath
    /// probability falls below `min_goodpath`.
    ///
    /// This is the *only* place a probability is converted to the encoded
    /// domain — done once at configuration time (paper §3.2).
    pub fn paco_gate(min_goodpath: Probability) -> Self {
        GatingPolicy::PacoGate {
            encoded_threshold: EncodedProb::from_probability(min_goodpath).raw() as u64,
        }
    }

    /// Builds a [`GatingPolicy::PacoThrottle`] between two goodpath
    /// probabilities (`full_above` > `zero_below`).
    pub fn paco_throttle(full_above: Probability, zero_below: Probability) -> Self {
        GatingPolicy::PacoThrottle {
            full: EncodedProb::from_probability(full_above).raw() as u64,
            zero: EncodedProb::from_probability(zero_below).raw() as u64,
        }
    }

    /// The fetch width allowed this cycle given the estimator score.
    pub fn allowed_width(&self, score: ConfidenceScore, full_width: usize) -> usize {
        match *self {
            GatingPolicy::None => full_width,
            GatingPolicy::CountGate { gate_count } => {
                if score.0 >= gate_count {
                    0
                } else {
                    full_width
                }
            }
            GatingPolicy::PacoGate { encoded_threshold } => {
                if score.0 > encoded_threshold {
                    0
                } else {
                    full_width
                }
            }
            GatingPolicy::CountThrottle { start } => {
                if score.0 < start {
                    full_width
                } else {
                    full_width.saturating_sub((score.0 - start + 1) as usize)
                }
            }
            GatingPolicy::PacoThrottle { full, zero } => {
                if score.0 <= full {
                    full_width
                } else if score.0 >= zero {
                    0
                } else {
                    let span = (zero - full).max(1);
                    let frac = (zero - score.0) as f64 / span as f64;
                    ((full_width as f64 * frac).round() as usize).min(full_width)
                }
            }
        }
    }
}

impl Canon for GatingPolicy {
    fn canon(&self, out: &mut Vec<u8>) {
        out.push(0x22); // type tag
        match *self {
            GatingPolicy::None => out.push(0),
            GatingPolicy::CountGate { gate_count } => {
                out.push(1);
                gate_count.canon(out);
            }
            GatingPolicy::PacoGate { encoded_threshold } => {
                out.push(2);
                encoded_threshold.canon(out);
            }
            GatingPolicy::CountThrottle { start } => {
                out.push(3);
                start.canon(out);
            }
            GatingPolicy::PacoThrottle { full, zero } => {
                out.push(4);
                full.canon(out);
                zero.canon(out);
            }
        }
    }
}

/// SMT fetch prioritization policy: which thread fetches this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchPolicy {
    /// Alternate threads regardless of state.
    RoundRobin,
    /// ICOUNT (Tullsen et al.): the thread with the fewest in-flight
    /// instructions fetches.
    ICount,
    /// Confidence-based prioritization (Luo et al.): the thread whose path
    /// confidence estimator reports the *lower* score (more likely on the
    /// goodpath) fetches; ties fall back to ICOUNT.
    Confidence,
}

impl Canon for FetchPolicy {
    fn canon(&self, out: &mut Vec<u8>) {
        out.push(0x23); // type tag
        out.push(match self {
            FetchPolicy::RoundRobin => 0,
            FetchPolicy::ICount => 1,
            FetchPolicy::Confidence => 2,
        });
    }
}

/// The most hardware threads a machine can run (the paper's SMT machine
/// runs two).
pub const MAX_THREADS: usize = 4;

/// A fetch-priority order: thread ids, highest priority first.
///
/// Fixed-size, so the front end can ask for one every cycle without
/// allocating; it dereferences to the slice of ordered thread ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchOrder {
    tids: [usize; MAX_THREADS],
    len: usize,
}

impl std::ops::Deref for FetchOrder {
    type Target = [usize];

    fn deref(&self) -> &[usize] {
        &self.tids[..self.len]
    }
}

impl FetchPolicy {
    /// Picks the preferred fetching thread from per-thread
    /// `(in_flight, score)` observations. `round` breaks remaining ties
    /// fairly.
    pub fn pick(&self, observations: &[(usize, ConfidenceScore)], round: u64) -> usize {
        self.priority_order(observations, round)[0]
    }

    /// Produces the full fetch-priority order. The front end offers the
    /// fetch port to threads in this order and the first one able to
    /// fetch this cycle (not stalled, not gated, pipe not full) takes it —
    /// a stalled high-priority thread must never idle the port while the
    /// other thread could use it (classic SMT fetch-policy practice; a
    /// strict-priority port assignment starves the low-confidence thread
    /// whenever its partner parks long-latency misses in the shared ROB).
    ///
    /// # Panics
    ///
    /// Panics if `observations` is empty or longer than [`MAX_THREADS`].
    pub fn priority_order(
        &self,
        observations: &[(usize, ConfidenceScore)],
        round: u64,
    ) -> FetchOrder {
        let n = observations.len();
        assert!(n > 0, "no threads to pick from");
        assert!(n <= MAX_THREADS, "more than {MAX_THREADS} threads");
        let mut order = FetchOrder {
            tids: [0; MAX_THREADS],
            len: n,
        };
        if n == 1 {
            return order; // a lone thread needs no rotation or sort
        }
        // Start from a rotated order so that exact ties alternate fairly.
        let rr = (round as usize) % n;
        let tids = &mut order.tids[..n];
        for (k, tid) in tids.iter_mut().enumerate() {
            *tid = (rr + k) % n;
        }
        match self {
            FetchPolicy::RoundRobin => {}
            FetchPolicy::ICount => {
                tids.sort_by_key(|&i| observations[i].0);
            }
            FetchPolicy::Confidence => {
                // Lower score (more confident) first; ICOUNT among equals.
                tids.sort_by_key(|&i| (observations[i].1, observations[i].0));
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    #[test]
    fn count_gate_cuts_at_threshold() {
        let g = GatingPolicy::CountGate { gate_count: 3 };
        assert_eq!(g.allowed_width(ConfidenceScore(2), 4), 4);
        assert_eq!(g.allowed_width(ConfidenceScore(3), 4), 0);
        assert_eq!(g.allowed_width(ConfidenceScore(9), 4), 0);
    }

    #[test]
    fn paco_gate_threshold_from_probability() {
        // Gate below 10% goodpath: encoded threshold ~3402.
        let g = GatingPolicy::paco_gate(p(0.10));
        match g {
            GatingPolicy::PacoGate { encoded_threshold } => {
                assert_eq!(encoded_threshold, 3402);
            }
            _ => unreachable!(),
        }
        assert_eq!(g.allowed_width(ConfidenceScore(3402), 4), 4);
        assert_eq!(g.allowed_width(ConfidenceScore(3403), 4), 0);
    }

    #[test]
    fn none_never_gates() {
        let g = GatingPolicy::None;
        assert_eq!(g.allowed_width(ConfidenceScore(u64::MAX), 4), 4);
    }

    #[test]
    fn count_throttle_degrades_gradually() {
        let g = GatingPolicy::CountThrottle { start: 2 };
        assert_eq!(g.allowed_width(ConfidenceScore(1), 4), 4);
        assert_eq!(g.allowed_width(ConfidenceScore(2), 4), 3);
        assert_eq!(g.allowed_width(ConfidenceScore(3), 4), 2);
        assert_eq!(g.allowed_width(ConfidenceScore(5), 4), 0);
    }

    #[test]
    fn paco_throttle_is_linear() {
        let g = GatingPolicy::PacoThrottle {
            full: 1000,
            zero: 3000,
        };
        assert_eq!(g.allowed_width(ConfidenceScore(500), 4), 4);
        assert_eq!(g.allowed_width(ConfidenceScore(2000), 4), 2);
        assert_eq!(g.allowed_width(ConfidenceScore(3000), 4), 0);
    }

    #[test]
    fn icount_picks_emptier_thread() {
        let obs = [(10, ConfidenceScore(0)), (3, ConfidenceScore(0))];
        assert_eq!(FetchPolicy::ICount.pick(&obs, 0), 1);
        assert_eq!(FetchPolicy::ICount.pick(&obs, 1), 1);
    }

    #[test]
    fn confidence_prefers_lower_score() {
        let obs = [(1, ConfidenceScore(5000)), (20, ConfidenceScore(40))];
        assert_eq!(FetchPolicy::Confidence.pick(&obs, 0), 1);
    }

    #[test]
    fn confidence_ties_fall_back_to_icount() {
        let obs = [(9, ConfidenceScore(7)), (2, ConfidenceScore(7))];
        assert_eq!(FetchPolicy::Confidence.pick(&obs, 0), 1);
    }

    #[test]
    fn priority_order_ranks_every_thread() {
        let obs = [
            (7, ConfidenceScore(0)),
            (2, ConfidenceScore(0)),
            (5, ConfidenceScore(0)),
        ];
        assert_eq!(*FetchPolicy::ICount.priority_order(&obs, 0), [1, 2, 0]);
        assert_eq!(*FetchPolicy::RoundRobin.priority_order(&obs, 4), [1, 2, 0]);
    }

    #[test]
    fn a_lone_thread_always_comes_first() {
        let obs = [(3, ConfidenceScore(9))];
        for policy in [
            FetchPolicy::RoundRobin,
            FetchPolicy::ICount,
            FetchPolicy::Confidence,
        ] {
            for round in [0, 1, 7] {
                assert_eq!(*policy.priority_order(&obs, round), [0]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "more than 4 threads")]
    fn priority_order_rejects_more_threads_than_supported() {
        let obs = [(0, ConfidenceScore(0)); MAX_THREADS + 1];
        FetchPolicy::ICount.priority_order(&obs, 0);
    }

    #[test]
    fn round_robin_alternates() {
        let obs = [(0, ConfidenceScore(0)), (0, ConfidenceScore(0))];
        assert_eq!(FetchPolicy::RoundRobin.pick(&obs, 0), 0);
        assert_eq!(FetchPolicy::RoundRobin.pick(&obs, 1), 1);
    }
}
