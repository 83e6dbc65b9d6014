//! The non-reproducible baseline: a plain empirical quantile.
//!
//! Section 4.1 of the paper observes that using raw sampled quantiles for
//! the efficiency thresholds "will lead to inconsistent answers" — even
//! small variations in the thresholds move the greedy cut-off and break
//! LCA consistency. This function exists so that experiment E11 can
//! demonstrate exactly that collapse by swapping it in for
//! [`crate::rquantile`].

/// The empirical `p`-quantile of the sample: the value at rank
/// `⌈p·n⌉` (1-based) of the sorted sample, clamped to the ends.
///
/// Deterministic in the sample, but **not** reproducible across fresh
/// samples: two samples from the same distribution generally produce
/// different exact values. Any ordered values work: `u128` domain values
/// or LCA-KP's `u64` efficiency keys.
///
/// # Panics
///
/// Panics if the sample is empty.
///
/// ```
/// use lcakp_reproducible::naive_quantile;
/// let sample = vec![10u128, 20, 30, 40, 50];
/// assert_eq!(naive_quantile(&sample, 0.5), 30);
/// assert_eq!(naive_quantile(&sample, 0.0), 10);
/// assert_eq!(naive_quantile(&sample, 1.0), 50);
/// ```
pub fn naive_quantile<T: Ord + Copy>(sample: &[T], p: f64) -> T {
    assert!(
        !sample.is_empty(),
        "naive_quantile requires a nonempty sample"
    );
    // lcakp-lint: allow(D011) reason="sorting needs an owned copy; the sample is budget-bounded (at most n_rq keys per query)"
    let mut sorted = sample.to_vec();
    sorted.sort_unstable();
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_expected_ranks() {
        let sample = vec![5u128, 1, 3, 2, 4];
        assert_eq!(naive_quantile(&sample, 0.2), 1);
        assert_eq!(naive_quantile(&sample, 0.4), 2);
        assert_eq!(naive_quantile(&sample, 0.6), 3);
        assert_eq!(naive_quantile(&sample, 0.9), 5);
    }

    #[test]
    fn clamps_out_of_range_p() {
        let sample = vec![7u128];
        assert_eq!(naive_quantile(&sample, -0.5), 7);
        assert_eq!(naive_quantile(&sample, 2.0), 7);
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn empty_sample_panics() {
        naive_quantile::<u128>(&[], 0.5);
    }

    #[test]
    fn is_not_reproducible_across_fresh_samples() {
        // The motivating defect: two fresh uniform samples almost never
        // share their exact empirical quantile.
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(1);
        let mut disagreements = 0;
        for _ in 0..20 {
            let a: Vec<u128> = (0..1000).map(|_| rng.gen_range(0..1u128 << 40)).collect();
            let b: Vec<u128> = (0..1000).map(|_| rng.gen_range(0..1u128 << 40)).collect();
            if naive_quantile(&a, 0.5) != naive_quantile(&b, 0.5) {
                disagreements += 1;
            }
        }
        assert!(disagreements >= 19);
    }
}
