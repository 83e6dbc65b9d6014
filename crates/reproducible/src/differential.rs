//! Differential tests: the sort-once rQuantile/rMedian against the
//! sort-based implementation it replaced, kept verbatim below as the
//! reference. Every output must be identical, from a fresh scratch and
//! from one reused across every case, whichever way a reused scratch's
//! memoized arrival-group maps hit or miss.

#[cfg(test)]
mod reference {
    //! The sort-based rMedian/rQuantile: each call pads a `2n` copy,
    //! shuffles it, and sorts it, its halves, and its batches.

    use crate::rmedian::RMedianConfig;
    use crate::rquantile::RQuantileConfig;
    use crate::ReproducibleError;
    use lcakp_oracle::Seed;
    use rand::Rng;

    const BASE_BITS: u32 = 8;
    const SCALE_MARGIN: u32 = 3;
    const BATCHES: usize = 32;
    const SCALE_TAU: f64 = 0.25;

    pub(super) fn rquantile(
        sample: &[u128],
        config: &RQuantileConfig,
        seed: &Seed,
    ) -> Result<u128, ReproducibleError> {
        if !(0.0..=1.0).contains(&config.p) {
            return Err(ReproducibleError::InvalidParameter {
                name: "p",
                value: config.p,
            });
        }
        if !(config.tau > 0.0 && config.tau <= 0.5) {
            return Err(ReproducibleError::InvalidParameter {
                name: "tau",
                value: config.tau,
            });
        }
        config.domain.check_sample(sample)?;
        let extended = config.domain.extended();

        let n = sample.len();
        // x = (1−p)·n lows, y = p·n highs (rounded so that x + y = n).
        let lows = (((1.0 - config.p) * n as f64).round() as usize).min(n);
        let highs = n - lows;

        let low_code = 0u128;
        let high_code = extended.max_value();
        let mut padded: Vec<u128> = Vec::with_capacity(2 * n);
        padded.extend(sample.iter().map(|&value| value + 1));
        padded.extend(std::iter::repeat_n(low_code, lows));
        padded.extend(std::iter::repeat_n(high_code, highs));
        // Permute with *shared* randomness: rmedian's internal index-based
        // splits (halves, batches) assume exchangeable order, which a
        // deterministic values-then-padding layout would break; a fixed
        // seed-derived permutation restores it identically across runs.
        {
            use rand::seq::SliceRandom;
            let mut shuffle_rng = seed.derive("rquantile/shuffle", 0).rng();
            padded.shuffle(&mut shuffle_rng);
        }

        let median_config = RMedianConfig {
            domain: extended,
            tau: config.tau / 2.0,
        };
        let out = rmedian(&padded, &median_config, &seed.derive("rquantile/median", 0))?;
        // Decode: clamp −∞ to the domain minimum and +∞ (or any grid point
        // above the real values) to the maximum.
        Ok(out.saturating_sub(1).min(config.domain.max_value()))
    }

    pub(super) fn rmedian(
        sample: &[u128],
        config: &RMedianConfig,
        seed: &Seed,
    ) -> Result<u128, ReproducibleError> {
        if !(config.tau > 0.0 && config.tau <= 0.5) {
            return Err(ReproducibleError::InvalidParameter {
                name: "tau",
                value: config.tau,
            });
        }
        config.domain.check_sample(sample)?;
        Ok(solve(
            sample,
            config.domain.bits(),
            config.tau,
            0.5,
            seed,
            0,
        ))
    }

    /// Recursive worker. `raw` keeps the caller's (i.i.d.) order: the batch
    /// statistic needs genuinely random batches, which a sorted sample would
    /// destroy. `target` is the quantile to aim for: 1/2 at the top level,
    /// an *upper* quantile for the internal scale selection (a conservative,
    /// stable choice when the scale distribution is bimodal — larger cells
    /// only cost descent steps, which the accuracy guard bounds).
    fn solve(raw: &[u128], bits: u32, tau: f64, target: f64, seed: &Seed, depth: u64) -> u128 {
        debug_assert!(!raw.is_empty());
        let mut sorted = raw.to_vec();
        sorted.sort_unstable();
        if bits <= BASE_BITS || raw.len() < 64 {
            return base_case(&sorted, tau, target, seed, depth);
        }

        let mask = (1u128 << bits) - 1;
        let shift = seed.derive("rmedian/shift", depth).rng().gen::<u128>() & mask;

        // Halves (by parity of arrival index, so both are i.i.d. samples):
        // A estimates the fluctuation scale, B the median position.
        let half_a: Vec<u128> = raw.iter().copied().step_by(2).collect();
        let mut half_b: Vec<u128> = raw.iter().copied().skip(1).step_by(2).collect();
        if half_b.is_empty() {
            half_b.clone_from(&half_a);
        }
        half_b.sort_unstable();

        // Batch medians of A → pairwise separation scales. Each batch is a
        // strided subsequence of the raw order (an i.i.d. subsample); the
        // separation of two independent batch medians upper-bounds the
        // fluctuation of the (larger) half-B median, conservatively.
        let batch_count = BATCHES.min(half_a.len()).max(2);
        let batch_medians: Vec<u128> = (0..batch_count)
            .map(|batch| {
                let mut members: Vec<u128> = half_a
                    .iter()
                    .copied()
                    .skip(batch)
                    .step_by(batch_count)
                    .collect();
                members.sort_unstable();
                members[(members.len() - 1) / 2]
            })
            .collect();
        let scales: Vec<u128> = batch_medians
            .chunks_exact(2)
            .map(|pair| bit_length((pair[0] + shift) ^ (pair[1] + shift)) as u128)
            .collect();
        let scales = if scales.is_empty() { vec![0] } else { scales };

        // Recursive reproducible median over the scale domain [0, bits+1] ⊆
        // [0, 2^7): the 2^d → d compression that yields log* depth.
        let selected = solve(
            &scales,
            7,
            SCALE_TAU,
            0.75,
            &seed.derive("rmedian/scale", depth),
            depth + 1,
        );
        let mut scale = (u32::try_from(selected).unwrap_or(bits) + SCALE_MARGIN).min(bits);

        // Empirical median of B.
        let m_hat = half_b[(half_b.len() - 1) / 2];

        // Scale descent with a shared random slack θ ∈ [τ/4, τ/2]: accept the
        // snapped point only if it is an empirical θ-approximate median of
        // the full sample (Definition 2.6, both sides), else halve the cell.
        // At scale 0 the output is m̂ itself, which always qualifies — so the
        // loop terminates and the accuracy contract holds by construction up
        // to the empirical-CDF error.
        let gap_fraction: f64 = seed.derive("rmedian/gap", depth).rng().gen();
        let theta = tau * (0.25 + 0.25 * gap_fraction);
        loop {
            let out = snap(m_hat, shift, scale, mask);
            if is_empirical_median(&sorted, out, theta) || scale == 0 {
                return out;
            }
            scale -= 1;
        }
    }

    /// Whether `v` is a θ-approximate median of the *empirical* distribution:
    /// `#{x ≤ v} ≥ (1/2 − θ)·n` and `#{x ≥ v} ≥ (1/2 − θ)·n`.
    fn is_empirical_median(sorted: &[u128], v: u128, theta: f64) -> bool {
        let n = sorted.len() as f64;
        let leq = sorted.partition_point(|&x| x <= v) as f64;
        let geq = n - sorted.partition_point(|&x| x < v) as f64;
        let floor = (0.5 - theta) * n;
        leq >= floor && geq >= floor
    }

    /// Base case: random-threshold empirical quantile over a constant-size
    /// domain, centered on `target`.
    fn base_case(sorted: &[u128], tau: f64, target: f64, seed: &Seed, depth: u64) -> u128 {
        let fraction: f64 = seed.derive("rmedian/base-theta", depth).rng().gen();
        let theta = target + (fraction - 0.5) * tau;
        let rank = ((theta * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// Centre of the scale-`i` shifted grid cell containing `value`, clamped
    /// into the domain.
    fn snap(value: u128, shift: u128, scale: u32, mask: u128) -> u128 {
        if scale == 0 {
            return value;
        }
        let shifted = value + shift;
        let cell = shifted >> scale;
        let centre = (cell << scale) + (1u128 << (scale - 1));
        centre.saturating_sub(shift).min(mask)
    }

    /// Number of bits needed to write `x` (0 for 0).
    fn bit_length(x: u128) -> u32 {
        128 - x.leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::reference;
    use crate::scratch::forced_wide;
    use crate::{rmedian, rquantile, Domain, QuantileScratch, RMedianConfig, RQuantileConfig};
    use lcakp_oracle::Seed;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha12Rng;
    use std::cell::RefCell;

    const BITS: [u32; 5] = [4, 8, 9, 16, 64];

    thread_local! {
        /// One scratch for every case of a test, so a value left over
        /// from an earlier (larger or smaller) case would show.
        static SCRATCH: RefCell<QuantileScratch> = RefCell::new(QuantileScratch::default());
    }

    /// `sample` as the 64-bit keys a scratch sorts.
    fn as_keys(sample: &[u128]) -> Vec<u64> {
        sample
            .iter()
            .map(|&value| u64::try_from(value).unwrap())
            .collect()
    }

    /// A uniform fraction in `[0, 1)` from 53 random bits.
    fn unit(bits: u64) -> f64 {
        (bits >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A sample of `len` values over `domain` in one of four shapes: all
    /// equal, atoms at 0 and at the domain maximum (next to the `−∞` and
    /// `+∞` codes) mixed with uniform values, uniform over the domain
    /// (uniform 64-bit keys at 64 bits), and a handful of distinct values.
    fn sample(shape: u8, len: usize, domain: Domain, rng: &mut ChaCha12Rng) -> Vec<u128> {
        let max = domain.max_value();
        let point = rng.gen_range(0..=max);
        (0..len)
            .map(|_| match shape {
                0 => point,
                1 => match rng.gen_range(0..3u8) {
                    0 => 0,
                    1 => max,
                    _ => rng.gen_range(0..=max),
                },
                2 => rng.gen_range(0..=max),
                _ => rng.gen_range(0..=max.min(3)),
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `rquantile`, `rmedian` and the scratch path all equal the
        /// sort-based reference, on both sides of the `len < 64` base
        /// case and at every domain width.
        #[test]
        fn sort_once_paths_equal_the_reference(
            shape in (1usize..300, 0usize..BITS.len(), 0u8..4),
            draws in (0u8..3, 0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX),
        ) {
            let (len, bits_index, shape) = shape;
            let (p_kind, p_bits, tau_bits, entropy) = draws;
            let domain = Domain::new(BITS[bits_index]).unwrap();
            let mut rng = ChaCha12Rng::seed_from_u64(entropy);
            let sample = sample(shape, len, domain, &mut rng);
            let p = match p_kind {
                0 => 0.0,
                1 => 1.0,
                _ => unit(p_bits),
            };
            // τ ∈ (0, 1/2].
            let tau = 0.5 * (1.0 - unit(tau_bits));
            let seed = Seed::from_entropy_u64(entropy.rotate_left(17));

            let quantile_config = RQuantileConfig { domain, p, tau };
            let median_config = RMedianConfig { domain, tau };
            let quantile = reference::rquantile(&sample, &quantile_config, &seed);
            let median = reference::rmedian(&sample, &median_config, &seed);
            let mirrored = reference::rquantile(
                &sample,
                &RQuantileConfig { p: 1.0 - p, ..quantile_config },
                &seed,
            );
            prop_assert_eq!(&rquantile(&sample, &quantile_config, &seed), &quantile);
            prop_assert_eq!(&rmedian(&sample, &median_config, &seed), &median);

            SCRATCH.with(|scratch| {
                let mut scratch = scratch.borrow_mut();
                let mut sorted = scratch.sort(&as_keys(&sample), domain).unwrap();
                prop_assert_eq!(&sorted.rquantile(p, tau, &seed), &quantile);
                prop_assert_eq!(&sorted.rmedian(tau, &seed), &median);
                prop_assert_eq!(&sorted.rquantile(1.0 - p, tau, &seed), &mirrored);
                Ok(())
            })?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `SortedSample::rquantile` and `rmedian` answer alike whether a
        /// sample's records are packed in the word its range picks or
        /// forced into a `u128`.
        #[test]
        fn both_record_widths_answer_alike(
            shape in (1usize..600, 0usize..BITS.len(), 0u8..4),
            draws in (0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX),
        ) {
            let (len, bits_index, shape) = shape;
            let (p_bits, tau_bits, entropy) = draws;
            let domain = Domain::new(BITS[bits_index]).unwrap();
            let mut rng = ChaCha12Rng::seed_from_u64(entropy);
            let keys = as_keys(&sample(shape, len, domain, &mut rng));
            let p = unit(p_bits);
            let tau = 0.5 * (1.0 - unit(tau_bits));
            let seed = Seed::from_entropy_u64(entropy.rotate_left(17));
            let run = || {
                let mut scratch = QuantileScratch::default();
                let mut sorted = scratch.sort(&keys, domain).unwrap();
                (
                    sorted.rquantile(p, tau, &seed),
                    sorted.rmedian(tau, &seed),
                    sorted.rquantile(1.0 - p, tau, &seed),
                )
            };
            prop_assert_eq!(run(), forced_wide::run(run));
        }
    }

    /// One sort and one scratch serve five thresholds over ~72k 64-bit
    /// keys, the shape of one EPS estimation at ε = 1/6, and then a small
    /// sample in the same scratch.
    #[test]
    fn estimation_shaped_run_equals_the_reference() {
        let domain = Domain::new(64).unwrap();
        let mut rng = ChaCha12Rng::seed_from_u64(12);
        // Efficiency keys: a skewed efficiency in the high 32 bits and a
        // tie-breaking id in the low 32, as the core's keys are built.
        let keys: Vec<u128> = (0..71_700u128)
            .map(|id| {
                let efficiency: u128 =
                    rng.gen_range(0..1u128 << 16) * rng.gen_range(1..1u128 << 16);
                (efficiency << 32) | id
            })
            .collect();
        let tau = 1.0 / 180.0;
        let q = 0.185;
        let mut scratch = QuantileScratch::default();
        let narrow = as_keys(&keys);
        let mut sorted = scratch.sort(&narrow, domain).unwrap();
        for k in 1..=5u64 {
            let p = (1.0 - k as f64 * q).max(0.0);
            let seed = Seed::from_entropy_u64(100 + k);
            let config = RQuantileConfig { domain, p, tau };
            let expected = reference::rquantile(&keys, &config, &seed).unwrap();
            assert_eq!(
                sorted.rquantile(p, tau, &seed).unwrap(),
                expected,
                "k = {k}"
            );
            assert_eq!(
                rquantile(&keys, &config, &seed).unwrap(),
                expected,
                "k = {k}"
            );
        }

        let small: Vec<u128> = keys[..100].to_vec();
        let seed = Seed::from_entropy_u64(7);
        let config = RQuantileConfig {
            domain,
            p: 0.3,
            tau,
        };
        let mut sorted = scratch.sort(&narrow[..100], domain).unwrap();
        assert_eq!(
            sorted.rquantile(0.3, tau, &seed),
            reference::rquantile(&small, &config, &seed)
        );
    }

    /// One reused scratch meets each way a memoized arrival-group map can
    /// be found or rebuilt, and every answer equals the reference.
    #[test]
    fn memoized_maps_equal_the_reference_in_every_cache_case() {
        let domain = Domain::new(64).unwrap();
        let tau = 0.02;
        let mut rng = ChaCha12Rng::seed_from_u64(31);
        let long = sample(2, 3_000, domain, &mut rng);
        let long_again = sample(1, 3_000, domain, &mut rng);
        let short = sample(2, 1_000, domain, &mut rng);
        let first = Seed::from_entropy_u64(1);
        let second = Seed::from_entropy_u64(2);
        let mut scratch = QuantileScratch::default();

        // Runs `calls` thresholds on one sort, the k-th at p = 1 − k·step
        // under `shared.derive(.., k)` as LCA-KP derives them, checks each
        // against the reference, and returns the map keys it leaves and
        // the scratch's map builds so far.
        let mut run = |keys: &[u128], shared: &Seed, calls: u64, step: f64| {
            let narrow = as_keys(keys);
            let mut sorted = scratch.sort(&narrow, domain).unwrap();
            for k in 1..=calls {
                let p = 1.0 - k as f64 * step;
                let seed = shared.derive("threshold", k);
                let config = RQuantileConfig { domain, p, tau };
                assert_eq!(
                    sorted.rquantile(p, tau, &seed),
                    reference::rquantile(keys, &config, &seed),
                    "{} keys, k = {k}",
                    keys.len()
                );
            }
            (scratch.map_keys(), scratch.map_builds())
        };
        let lengths = |keys: &[Option<(Seed, u32, usize)>]| -> Vec<u32> {
            keys.iter().map(|key| key.unwrap().1).collect()
        };

        let (cold, builds) = run(&long, &first, 3, 0.15);
        assert_eq!(lengths(&cold), [6_000; 3]);
        assert_eq!(builds, 3);
        // A (seed, length, lows) hit: other keys of the same length under
        // the same shared seed and p find every map built.
        assert_eq!(run(&long_again, &first, 3, 0.15), (cold.clone(), 3));
        // The same seed and length under another p bring other `−∞`
        // counts: every slot reshuffles.
        let (relowed, builds) = run(&long_again, &first, 3, 0.2);
        assert_eq!(builds, 6);
        for (now, before) in relowed.iter().zip(&cold) {
            let ((seed, len, lows), (seed_before, len_before, lows_before)) =
                (now.unwrap(), before.unwrap());
            assert_eq!((seed, len), (seed_before, len_before));
            assert_ne!(lows, lows_before);
        }
        // The same seed at a new length rebuilds every slot.
        let (relengthed, builds) = run(&short, &first, 3, 0.15);
        assert_eq!(lengths(&relengthed), [2_000; 3]);
        assert_eq!(builds, 9);
        // A new seed at the same length rebuilds every slot.
        let (reseeded, builds) = run(&short, &second, 3, 0.15);
        assert_eq!(lengths(&reseeded), [2_000; 3]);
        assert!((0..3).all(|slot| reseeded[slot] != relengthed[slot]));
        assert_eq!(builds, 12);
        // More calls than slots: the first three hit, two slots are added.
        let (grown, builds) = run(&short, &second, 5, 0.15);
        assert_eq!(grown[..3], reseeded[..]);
        assert_eq!(lengths(&grown), [2_000; 5]);
        assert_eq!(builds, 14);
        // Fewer calls than slots leave the slots beyond them as they were;
        // the two it uses switch back to the first seed's long maps.
        let (back, builds) = run(&long, &first, 2, 0.15);
        assert_eq!(back[..2], cold[..2]);
        assert_eq!(back[2..], grown[2..]);
        assert_eq!(builds, 16);
    }

    /// One map slot of a reused scratch meets the same padded length
    /// under the same seed with another `−∞` count, and then the first
    /// again: each change reshuffles, one more build each, and every
    /// answer is a fresh scratch's.
    #[test]
    fn a_new_low_count_at_the_same_length_rebuilds_the_map() {
        let domain = Domain::new(64).unwrap();
        let mut rng = ChaCha12Rng::seed_from_u64(32);
        let first = as_keys(&sample(2, 2_000, domain, &mut rng));
        let second = as_keys(&sample(2, 2_000, domain, &mut rng));
        let (seed, tau) = (Seed::from_entropy_u64(5), 0.02);
        let mut scratch = QuantileScratch::default();
        let steps = [
            (&first, 0.3, 1),
            (&second, 0.3, 1),
            (&second, 0.6, 2),
            (&first, 0.6, 2),
            (&first, 0.3, 3),
        ];
        for (keys, p, builds) in steps {
            let answer = scratch.sort(keys, domain).unwrap().rquantile(p, tau, &seed);
            let fresh = QuantileScratch::default()
                .sort(keys, domain)
                .unwrap()
                .rquantile(p, tau, &seed);
            assert_eq!(answer, fresh, "p = {p}");
            assert_eq!(scratch.map_builds(), builds, "p = {p}");
            let lows = ((1.0 - p) * 2_000.0).round() as usize;
            assert_eq!(
                scratch.map_keys()[0].map(|key| (key.1, key.2)),
                Some((4_000, lows))
            );
        }
    }
}
