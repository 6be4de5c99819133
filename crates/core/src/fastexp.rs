//! Bit-exact table-driven decode of the confidence register.
//!
//! The chunked estimator pass decodes `2^(−sum/1024)` once per event.
//! The scalar reference lane spells that as a libm `exp2` call
//! ([`PathConfidenceCalculator::goodpath_probability`]
//! (crate::PathConfidenceCalculator::goodpath_probability)), which
//! dominates the batched PaCo hot loop. This module replaces the call
//! with a 1024-entry fraction table and an exact power-of-two exponent
//! adjustment — **bit-identical** to the libm spelling over the entire
//! domain the fast path accepts, which is the property every
//! lane-parity digest in the workspace rests on.
//!
//! Why the identity holds: write `sum = 1024·k + f` with `f < 1024`.
//! Then `2^(−sum/1024) = 2^(−k) · 2^(−f/1024)`. Both `−f/1024` and
//! `−sum/1024` are exact in f64 (the numerators are < 2⁵³ and the
//! divisor is a power of two), glibc's `exp2` reduces its argument to
//! the same fractional remainder for both inputs (the integer parts
//! differ by exactly `k`), and the final scaling by `2^(−k)` is an
//! exact exponent-field adjustment while the result stays normal. The
//! unit tests pin the identity exhaustively over every reachable
//! fraction and a deep sweep of the reachable register range; sums
//! outside [`FAST_LIMIT`] (beyond any reachable register value, and
//! approaching the subnormal range where exponent adjustment stops
//! being exact) fall back to the libm spelling itself.

use std::sync::OnceLock;

use paco_types::Probability;

use crate::{ConfidenceScore, FromScore};

/// Sums at or above this decode through libm directly. The largest
/// reachable register value is `outstanding × 4096` with `outstanding`
/// bounded by the in-flight window (≤ 2¹² + 1 entries), about 2²⁴ —
/// far below this guard, which itself stays clear of the subnormal
/// boundary near `1021 × 1024`.
const FAST_LIMIT: u64 = 1_000_000;

/// The libm spelling the fast path must match bit-for-bit: the pinned
/// decode [`Probability::from_score`] itself.
#[inline]
pub(crate) fn prob_bits_libm(sum: u64) -> u64 {
    Probability::from_score(ConfidenceScore(sum))
        .value()
        .to_bits()
}

/// `exp2(−f/1024)` for every fraction `f`, computed by libm once so the
/// table cannot drift from the scalar spelling.
fn frac_table() -> &'static [f64; 1024] {
    static TABLE: OnceLock<[f64; 1024]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0.0f64; 1024];
        for (f, slot) in t.iter_mut().enumerate() {
            *slot = (-(f as f64) / 1024.0).exp2();
        }
        t
    })
}

/// A handle over the fraction table, resolved once per chunk so the
/// per-event decode is two loads and a multiply (no `OnceLock` check in
/// the loop).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ProbDecoder {
    frac: &'static [f64; 1024],
}

impl ProbDecoder {
    /// Resolves (initializing on first use) the fraction table.
    pub(crate) fn new() -> Self {
        ProbDecoder { frac: frac_table() }
    }

    /// The IEEE-754 bits of `2^(−sum/1024)`, bit-identical to
    /// [`prob_bits_libm`] for every `sum`.
    #[inline]
    pub(crate) fn prob_bits(&self, sum: u64) -> u64 {
        if sum >= FAST_LIMIT {
            return prob_bits_libm(sum);
        }
        let k = sum >> 10;
        let f = (sum & 1023) as usize;
        // 2^(−k) as an exact f64: exponent field 1023 − k, k < 977 here.
        let scale = f64::from_bits((1023 - k) << 52);
        (self.frac[f] * scale).to_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EncodedProb;

    #[test]
    fn matches_libm_exhaustively_over_low_registers() {
        // Every (fraction, small exponent) pair — covers every table
        // entry against every scaling the paper configuration can
        // produce in a full window of saturated branches.
        let d = ProbDecoder::new();
        for sum in 0..64 * 1024u64 {
            assert_eq!(d.prob_bits(sum), prob_bits_libm(sum), "sum={sum}");
        }
    }

    #[test]
    fn matches_libm_across_the_reachable_range() {
        // Stride an odd step through the full reachable register range
        // (4097 in-flight branches × 4096 max encoding) so every
        // fraction recurs under many different exponents.
        let d = ProbDecoder::new();
        let max = 4097u64 * 4096;
        let mut sum = 0u64;
        while sum <= max {
            assert_eq!(d.prob_bits(sum), prob_bits_libm(sum), "sum={sum}");
            sum += 977;
        }
    }

    #[test]
    fn guard_band_falls_back_to_libm() {
        let d = ProbDecoder::new();
        for sum in [FAST_LIMIT - 1, FAST_LIMIT, FAST_LIMIT + 1, u64::MAX >> 1] {
            assert_eq!(d.prob_bits(sum), prob_bits_libm(sum), "sum={sum}");
        }
    }

    #[test]
    fn certainty_decodes_to_one() {
        assert_eq!(ProbDecoder::new().prob_bits(0), 1.0f64.to_bits());
    }

    #[test]
    fn matches_the_shared_probability_spelling() {
        // prob_bits_libm is pinned to the exact arithmetic of the
        // scalar lane's goodpath_probability (including its clamp,
        // which is the identity on exp2's [0, 1] range).
        let d = ProbDecoder::new();
        for sum in [0u64, 1, 1023, 1024, 4096, 131_072, 2_000_000] {
            let scalar = paco_types::Probability::clamped(
                (-(sum as f64) / EncodedProb::SCALE as f64).exp2(),
            )
            .value()
            .to_bits();
            assert_eq!(d.prob_bits(sum), scalar, "sum={sum}");
        }
    }
}
