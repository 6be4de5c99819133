//! Property-based tests for the PaCo core: token discipline, encoding
//! algebra, MRT counter behaviour and log-circuit error bounds.

use paco::{
    AdaptiveMrtConfig, AdaptiveMrtPredictor, BranchFetchInfo, BranchToken, EncodedProb, FromScore,
    LogCircuit, LogMode, MrtBucket, PacoConfig, PacoPredictor, PathConfidenceEstimator,
    PerBranchMrtConfig, PerBranchMrtPredictor, StaticMrtPredictor, ThresholdCountConfig,
    ThresholdCountPredictor,
};
use paco_branch::Mdc;
use paco_types::Probability;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// An abstract event stream for a path-confidence estimator.
#[derive(Debug, Clone)]
enum Event {
    /// Fetch a conditional branch with the given MDC value.
    Fetch(u8),
    /// Fetch non-conditional control flow.
    FetchOther,
    /// Resolve the oldest outstanding branch (mispredicted flag).
    Resolve(bool),
    /// Squash the youngest outstanding branch.
    Squash,
    /// Advance time.
    Tick(u16),
}

fn event_strategy() -> impl Strategy<Value = Event> {
    prop_oneof![
        (0u8..16).prop_map(Event::Fetch),
        Just(Event::FetchOther),
        any::<bool>().prop_map(Event::Resolve),
        Just(Event::Squash),
        (1u16..1000).prop_map(Event::Tick),
    ]
}

/// Drives an estimator through an arbitrary event sequence, maintaining
/// the outstanding-token list the way the simulator's ROB would.
fn drive<E: PathConfidenceEstimator>(est: &mut E, events: &[Event]) -> Vec<BranchToken> {
    drive_observed(est, events, |_| {})
}

/// [`drive`], showing the estimator to `observe` after every event.
fn drive_observed<E: PathConfidenceEstimator>(
    est: &mut E,
    events: &[Event],
    mut observe: impl FnMut(&E),
) -> Vec<BranchToken> {
    let mut outstanding: Vec<BranchToken> = Vec::new();
    for ev in events {
        match ev {
            Event::Fetch(mdc) => {
                outstanding.push(est.on_fetch(BranchFetchInfo::conditional_keyed(
                    Mdc::new(*mdc),
                    *mdc as u64 * 977,
                )));
            }
            Event::FetchOther => {
                outstanding.push(est.on_fetch(BranchFetchInfo::non_conditional()));
            }
            Event::Resolve(mispred) => {
                if !outstanding.is_empty() {
                    let t = outstanding.remove(0);
                    est.on_resolve(t, *mispred);
                }
            }
            Event::Squash => {
                if let Some(t) = outstanding.pop() {
                    est.on_squash(t);
                }
            }
            Event::Tick(c) => est.tick(*c as u64),
        }
        observe(est);
    }
    outstanding
}

/// Drives `est` and checks after every event that its probability is
/// exactly `Probability::from_score` of its score.
fn decodes_from_score<E: PathConfidenceEstimator>(
    mut est: E,
    events: &[Event],
) -> Result<(), TestCaseError> {
    let mut mismatch = None;
    drive_observed(&mut est, events, |e| {
        let p = e.goodpath_probability().map(|p| p.value().to_bits());
        let decoded = Probability::from_score(e.score()).value().to_bits();
        if mismatch.is_none() && p != Some(decoded) {
            mismatch = Some((e.score(), p, decoded));
        }
    });
    prop_assert!(
        mismatch.is_none(),
        "(score, probability, decoded): {mismatch:?}"
    );
    Ok(())
}

proptest! {
    /// After any event sequence, PaCo's confidence register equals the sum
    /// of the outstanding tokens' contributions; surrendering the rest
    /// drives it to exactly zero.
    #[test]
    fn paco_register_balances(events in proptest::collection::vec(event_strategy(), 0..300)) {
        let mut paco = PacoPredictor::new(PacoConfig::paper().with_refresh_period(500));
        let outstanding = drive(&mut paco, &events);
        let expected: u64 = outstanding.iter().map(|t| t.encoded_contribution() as u64).sum();
        prop_assert_eq!(paco.score().0, expected);
        for t in outstanding {
            paco.on_squash(t);
        }
        prop_assert_eq!(paco.score().0, 0);
        prop_assert_eq!(paco.goodpath_probability().unwrap().value(), 1.0);
    }

    /// Every probability-producing estimator's probability is the pinned
    /// decode of its score, bit for bit, after any event sequence — the
    /// identity that lets the simulator bin instances from the score.
    #[test]
    fn probability_is_the_decoded_score(
        events in proptest::collection::vec(event_strategy(), 0..300),
    ) {
        decodes_from_score(PacoPredictor::new(PacoConfig::paper().with_refresh_period(500)), &events)?;
        decodes_from_score(StaticMrtPredictor::with_default_profile(), &events)?;
        decodes_from_score(PerBranchMrtPredictor::new(PerBranchMrtConfig::paper()), &events)?;
        decodes_from_score(
            AdaptiveMrtPredictor::new(
                AdaptiveMrtConfig::paper().with_refresh_period(500).with_detect_window(16),
            ),
            &events,
        )?;
    }

    /// The threshold-and-count counter equals the number of outstanding
    /// low-confidence tokens under any event sequence.
    #[test]
    fn counter_balances(
        events in proptest::collection::vec(event_strategy(), 0..300),
        threshold in 1u8..16,
    ) {
        let mut est = ThresholdCountPredictor::new(ThresholdCountConfig::with_threshold(threshold));
        let outstanding = drive(&mut est, &events);
        let expected = outstanding.iter().filter(|t| t.is_low_confidence()).count() as u64;
        prop_assert_eq!(est.score().0, expected);
        for t in outstanding {
            est.on_squash(t);
        }
        prop_assert_eq!(est.score().0, 0);
    }

    /// Encoding is antitone: a larger probability never encodes to a
    /// larger value.
    #[test]
    fn encoding_is_antitone(a in 0.0f64..=1.0, b in 0.0f64..=1.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let e_lo = EncodedProb::from_probability(Probability::new(lo).unwrap());
        let e_hi = EncodedProb::from_probability(Probability::new(hi).unwrap());
        prop_assert!(e_hi <= e_lo);
    }

    /// Round-tripping through the encoded domain loses at most the fixed
    /// saturation floor.
    #[test]
    fn encoding_round_trip(p in 0.0701f64..=1.0) {
        let enc = EncodedProb::from_probability(Probability::new(p).unwrap());
        let back = enc.to_probability().value();
        prop_assert!((back - p).abs() < 0.01, "p={p} back={back}");
    }

    /// Encoded addition corresponds to probability multiplication.
    #[test]
    fn encoded_addition_is_multiplication(a in 0.3f64..=1.0, b in 0.3f64..=1.0) {
        let ea = EncodedProb::from_probability(Probability::new(a).unwrap());
        let eb = EncodedProb::from_probability(Probability::new(b).unwrap());
        let sum = ea.saturating_add(eb);
        let expect = a * b;
        let got = sum.to_probability().value();
        // Two ceil roundings: at most ~2/1024 bits of error.
        prop_assert!((got - expect).abs() / expect < 0.01, "a={a} b={b} got={got}");
    }

    /// MRT buckets preserve their mispredict rate across counter-overflow
    /// halvings and never exceed hardware widths.
    #[test]
    fn mrt_bucket_rate_stable(outcomes in proptest::collection::vec(any::<bool>(), 1..5000)) {
        let mut bucket = MrtBucket::default();
        let mut correct = 0u64;
        let mut mispred = 0u64;
        for &m in &outcomes {
            bucket.record(m);
            if m { mispred += 1 } else { correct += 1 }
            prop_assert!(bucket.correct() <= MrtBucket::CORRECT_MAX);
            prop_assert!(bucket.mispred() <= MrtBucket::MISPRED_MAX);
        }
        let true_rate = mispred as f64 / (correct + mispred) as f64;
        let bucket_rate = bucket.mispred() as f64 / bucket.total().max(1) as f64;
        // Halving preserves the rate up to quantization on small counters.
        prop_assert!((true_rate - bucket_rate).abs() < 0.25,
            "true {true_rate:.3} vs bucket {bucket_rate:.3}");
    }

    /// Mitchell's approximation stays within its theoretical error bound
    /// of the exact log over the full counter range.
    #[test]
    fn mitchell_bounded_error(x in 1u32..=2048) {
        let m = LogCircuit::new(LogMode::Mitchell).log2_fixed(x) as i64;
        let e = LogCircuit::new(LogMode::Exact).log2_fixed(x) as i64;
        // Mitchell underestimates log2 by at most ~0.0861 bits (88 fixed-
        // point units); allow rounding slack.
        prop_assert!(e - m >= -1, "Mitchell must not overestimate: x={x}");
        prop_assert!(e - m <= 90, "error too large at x={x}: {}", e - m);
    }

    /// The ratio encoding never exceeds saturation and is zero only when
    /// no mispredicts were recorded.
    #[test]
    fn ratio_encoding_bounds(correct in 0u32..1024, mispred in 0u32..64) {
        let enc = LogCircuit::new(LogMode::Mitchell).encode_ratio(correct, mispred);
        prop_assert!(enc.raw() <= EncodedProb::SATURATION);
        if correct > 0 && mispred == 0 {
            prop_assert_eq!(enc, EncodedProb::CERTAIN);
        }
        if correct == 0 && mispred > 0 {
            prop_assert_eq!(enc, EncodedProb::MAX);
        }
    }
}
