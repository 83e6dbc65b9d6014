//! Reproducible quantiles — Algorithm 1 of the paper (`rQuantile`),
//! reducing the `p`-quantile to a median by `±∞` padding.
//!
//! Given `n` samples from `D`, the reduction appends `x = (1−p)·n` copies
//! of `−∞` and `y = p·n` copies of `+∞`: the median of the padded multiset
//! sits at rank `n` of `2n`, i.e. at rank `n − x = p·n` of the real
//! values — the `p`-quantile. The paper pads the *distribution* (its
//! `D'`); padding the sample with the exact expected counts is the
//! Rao–Blackwellized version: it has strictly less variance and makes the
//! padding identical across runs, which can only help reproducibility.
//!
//! `−∞` and `+∞` are encoded in the one-bit-extended domain
//! ([`Domain::extended`]): real values shift up by one, `0` encodes `−∞`
//! and the extended maximum encodes `+∞`; outputs are clamped back.
//!
//! The padded sample is never built. Its `2n` positions are the `n` real
//! values followed by the lows and the highs; a shared-seed Fisher–Yates
//! shuffle permutes those *positions*, and rMedian's top level needs of
//! the resulting order only which group (half B, or one of the 32 batches
//! of half A) each position's arrival falls in. So the shuffle is kept as
//! an arrival-group map, one byte per *real* position (the walk up the
//! sort meets no other), with each group's counts of real values, lows
//! and highs, taken while the map is built. The map is memoized in the
//! [`QuantileScratch`] under its shuffle seed, length and `lows`, so a
//! call that repeats all three (a fixed shared seed, the same sample size
//! `n` and the same `p`) skips the shuffle and the count. The permutation
//! itself lives only while a map is built, packed two `u32` slots to a
//! word in the sort's dead second buffer. The draws are those a shuffle
//! of the padded values would make. Ranks and counts over the padded
//! multiset are arithmetic over the once-sorted real sample, and the
//! group medians come from one walk up it (see [`crate::rmedian`]).

use crate::domain::Domain;
use crate::rmedian::{check_tau, is_base_case, solve_records, Padding};
use crate::scratch::{narrow, ArrivalMap, QuantileScratch, SortedSample};
use crate::ReproducibleError;
use lcakp_oracle::Seed;

/// Configuration of a reproducible-quantile call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RQuantileConfig {
    /// The finite ordered domain the sample lives in.
    pub domain: Domain,
    /// The queried quantile `p ∈ [0, 1]`.
    pub p: f64,
    /// Target accuracy τ ∈ (0, 1/2]: the output `v` satisfies
    /// `Pr[X ≤ v] ≥ p − τ` and `Pr[X ≥ v] ≥ 1 − p − τ` with high
    /// probability (Theorem 4.5).
    pub tau: f64,
}

/// Computes a reproducible τ-approximate `p`-quantile.
///
/// This is [`SortedSample::rquantile`] over a fresh [`QuantileScratch`];
/// reuse a scratch to run several quantiles on one sample.
///
/// # Errors
///
/// * [`ReproducibleError::InvalidParameter`] if `p ∉ [0, 1]` or
///   `tau ∉ (0, 1/2]`;
/// * [`ReproducibleError::EmptySample`] / `ValueOutOfDomain` as in
///   [`rmedian`](crate::rmedian());
/// * [`ReproducibleError::SampleTooLarge`] if the sample has more than
///   `u32::MAX` values or, outside the base case, the padded sample more
///   than `u32::MAX` positions.
///
/// ```
/// use lcakp_reproducible::{rquantile, Domain, RQuantileConfig, Seed};
/// # fn main() -> Result<(), lcakp_reproducible::ReproducibleError> {
/// let config = RQuantileConfig { domain: Domain::new(16)?, p: 0.9, tau: 0.05 };
/// let seed = Seed::from_entropy_u64(3);
/// let sample: Vec<u128> = (0..20_000).map(|i| (i * 977) % 1000).collect();
/// let q = rquantile(&sample, &config, &seed)?;
/// // ~uniform over [0, 1000): the 0.9-quantile is near 900.
/// assert!((850..960).contains(&(q as i64)));
/// # Ok(())
/// # }
/// ```
pub fn rquantile(
    sample: &[u128],
    config: &RQuantileConfig,
    seed: &Seed,
) -> Result<u128, ReproducibleError> {
    check_quantile_parameters(config.p, config.tau)?;
    let mut scratch = QuantileScratch::default();
    let mut keys = scratch.keys();
    narrow(sample, config.domain, &mut keys)?;
    keys.sort(config.domain)?
        .rquantile(config.p, config.tau, seed)
}

impl SortedSample<'_> {
    /// [`rquantile`] of this sample at quantile `p` and accuracy `tau`,
    /// from the shared sort and the scratch's buffers.
    ///
    /// # Errors
    ///
    /// As [`rquantile`], less the sample checks already made by
    /// [`SampleKeys::sort`](crate::SampleKeys::sort).
    pub fn rquantile(&mut self, p: f64, tau: f64, seed: &Seed) -> Result<u128, ReproducibleError> {
        check_quantile_parameters(p, tau)?;
        let extended = self.domain.extended();

        let n = self.records.len();
        // x = (1−p)·n lows, y = p·n highs (rounded so that x + y = n).
        let lows = (((1.0 - p) * n as f64).round() as usize).min(n);
        let highs = n - lows;

        // Permute with *shared* randomness: rmedian's internal index-based
        // splits (halves, batches) assume exchangeable order, which a
        // deterministic values-then-padding layout would break; a fixed
        // seed-derived permutation restores it identically across runs.
        // The base case reads only ranks, so it needs no permutation.
        let slot = self.calls;
        self.calls += 1;
        let groups = if is_base_case(extended.bits(), 2 * n) {
            None
        } else {
            let len =
                u32::try_from(2 * n).map_err(|_| ReproducibleError::SampleTooLarge { len: n })?;
            // One slot per call index: at most the calls a caller makes
            // on one sort (t ≤ ⌈1/ε⌉ for LCA-KP), kept across sorts.
            if self.maps.len() <= slot {
                self.maps.resize_with(slot + 1, ArrivalMap::default);
            }
            let shuffle_seed = seed.derive("rquantile/shuffle", 0);
            Some(self.maps[slot].get(shuffle_seed, len, lows, &mut self.spare))
        };

        let padding = Padding {
            offset: 1,
            lows,
            highs,
            high_code: extended.max_value(),
            groups,
        };
        let out = solve_records(
            self.records,
            self.layout,
            padding,
            extended.bits(),
            tau / 2.0,
            &seed.derive("rquantile/median", 0),
        );
        // Decode: clamp −∞ to the domain minimum and +∞ (or any grid point
        // above the real values) to the maximum.
        Ok(out.saturating_sub(1).min(self.domain.max_value()))
    }
}

/// Rejects `p ∉ [0, 1]`, then `tau ∉ (0, 1/2]`.
fn check_quantile_parameters(p: f64, tau: f64) -> Result<(), ReproducibleError> {
    if !(0.0..=1.0).contains(&p) {
        return Err(ReproducibleError::InvalidParameter {
            name: "p",
            value: p,
        });
    }
    check_tau(tau)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha12Rng;

    fn config(bits: u32, p: f64, tau: f64) -> RQuantileConfig {
        RQuantileConfig {
            domain: Domain::new(bits).unwrap(),
            p,
            tau,
        }
    }

    #[test]
    fn validates_parameters() {
        let seed = Seed::from_entropy_u64(0);
        assert!(matches!(
            rquantile(&[1], &config(8, 1.5, 0.1), &seed),
            Err(ReproducibleError::InvalidParameter { name: "p", .. })
        ));
        assert!(matches!(
            rquantile(&[1], &config(8, 0.5, 0.9), &seed),
            Err(ReproducibleError::InvalidParameter { name: "tau", .. })
        ));
        assert!(matches!(
            rquantile(&[], &config(8, 0.5, 0.1), &seed),
            Err(ReproducibleError::EmptySample)
        ));
    }

    #[test]
    fn median_case_matches_rmedian_semantics() {
        let seed = Seed::from_entropy_u64(4);
        let mut rng = ChaCha12Rng::seed_from_u64(10);
        let sample: Vec<u128> = (0..30_000).map(|_| rng.gen_range(0..1000u128)).collect();
        let q = rquantile(&sample, &config(16, 0.5, 0.05), &seed).unwrap();
        assert!((430..570).contains(&(q as i64)), "q = {q}");
    }

    #[test]
    fn quantile_accuracy_across_p() {
        let mut rng = ChaCha12Rng::seed_from_u64(20);
        let sample: Vec<u128> = (0..40_000).map(|_| rng.gen_range(0..10_000u128)).collect();
        for (trial, &p) in [0.1, 0.25, 0.5, 0.75, 0.9].iter().enumerate() {
            let seed = Seed::from_entropy_u64(trial as u64);
            let q = rquantile(&sample, &config(16, p, 0.05), &seed).unwrap();
            let cdf = q as f64 / 10_000.0;
            assert!(
                (cdf - p).abs() <= 0.08,
                "p = {p}: got value {q} with cdf ≈ {cdf}"
            );
        }
    }

    #[test]
    fn extreme_quantiles_clamp_into_domain() {
        let seed = Seed::from_entropy_u64(8);
        let sample = vec![500u128; 5000];
        let low = rquantile(&sample, &config(16, 0.0, 0.1), &seed).unwrap();
        let high = rquantile(&sample, &config(16, 1.0, 0.1), &seed).unwrap();
        assert!(low <= 500);
        assert!(high <= Domain::new(16).unwrap().max_value());
    }

    #[test]
    fn point_mass_any_quantile_is_the_point() {
        let seed = Seed::from_entropy_u64(12);
        let sample = vec![321u128; 10_000];
        for p in [0.2, 0.5, 0.8] {
            let q = rquantile(&sample, &config(16, p, 0.05), &seed).unwrap();
            assert_eq!(q, 321, "p = {p}");
        }
    }

    #[test]
    fn reproducibility_on_fresh_samples() {
        let mut agreements = 0;
        let trials = 30;
        for trial in 0..trials {
            let seed = Seed::from_entropy_u64(trial);
            let mut rng_a = ChaCha12Rng::seed_from_u64(5_000 + trial);
            let mut rng_b = ChaCha12Rng::seed_from_u64(6_000 + trial);
            let sample_a: Vec<u128> = (0..60_000)
                .map(|_| rng_a.gen_range(0..(1u128 << 24)))
                .collect();
            let sample_b: Vec<u128> = (0..60_000)
                .map(|_| rng_b.gen_range(0..(1u128 << 24)))
                .collect();
            let out_a = rquantile(&sample_a, &config(24, 0.75, 0.05), &seed).unwrap();
            let out_b = rquantile(&sample_b, &config(24, 0.75, 0.05), &seed).unwrap();
            if out_a == out_b {
                agreements += 1;
            }
        }
        assert!(
            agreements * 4 >= trials * 3,
            "quantile reproducibility too low: {agreements}/{trials}"
        );
    }

    #[test]
    fn deterministic_given_sample_and_seed() {
        let seed = Seed::from_entropy_u64(77);
        let sample: Vec<u128> = (0..5000).map(|i| (i * 31) % 4096).collect();
        let a = rquantile(&sample, &config(12, 0.3, 0.05), &seed).unwrap();
        let b = rquantile(&sample, &config(12, 0.3, 0.05), &seed).unwrap();
        assert_eq!(a, b);
    }
}
