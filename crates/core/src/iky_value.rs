//! The IKY12 constant-time *value* approximation (Section 4
//! preliminaries; Lemma 4.4), which `LCA-KP` descends from.
//!
//! Given weighted sampling access, the algorithm of Ito, Kiyoshima and
//! Yoshida estimates the *value* of an optimal solution (not the solution
//! itself) to additive `±O(ε)` of the normalized optimum. It is Algorithm
//! 2's lines 1–18 (large items, an EPS, Ĩ) with empirical quantiles, as it
//! needs no consistency, run on `LCA-KP`'s own stages; then Ĩ is solved
//! exactly.

use crate::lca_kp::{tilde_instance, Quantiles, QueryScratch, RetryPolicy, Sampling};
use crate::LcaError;
use lcakp_knapsack::iky::{tilde_optimum, Epsilon, MU_SHIFT};
use lcakp_oracle::{ItemOracle, WeightedSampler};
use rand::Rng;

/// Output of one run of the IKY12 value-approximation algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IkyValueEstimate {
    /// Estimated normalized optimum (the paper's `OPT(Ĩ) − ε`, a
    /// `(1, 6ε)`-approximation of `OPT(I)` by Lemma 4.4).
    pub value: f64,
    /// Raw `OPT(Ĩ)` before the `−ε` correction, normalized.
    pub tilde_optimum: f64,
    /// Number of weighted samples drawn: the EPS estimation's half is
    /// not drawn when it does not run.
    pub samples: u64,
}

/// Runs the IKY12 value approximation.
///
/// * `sample_budget` — total weighted samples to spend (half on the
///   large-item collection, half on the EPS estimation). The paper's
///   choice is `O(ε⁻⁴ log ε⁻¹)` for each.
///
/// # Errors
///
/// Returns [`LcaError::Oracle`] on the first oracle fault (there are no
/// retries), and [`LcaError::Knapsack`] with
/// [`KnapsackError::SolverBudgetExceeded`](lcakp_knapsack::KnapsackError::SolverBudgetExceeded)
/// if Ĩ's exact solver exhausts its node budget (pathological ε only).
pub fn iky_value_estimate<O, R>(
    oracle: &O,
    rng: &mut R,
    eps: Epsilon,
    sample_budget: u64,
) -> Result<IkyValueEstimate, LcaError>
where
    O: ItemOracle + WeightedSampler,
    R: Rng + ?Sized,
{
    let half = (sample_budget / 2).max(1);
    let before = oracle.stats();

    // Lines 1–18 with half the budget per sample and empirical quantiles.
    let mut retries = 0;
    let mut sampling = Sampling {
        eps,
        retry: RetryPolicy::none(),
        retries: &mut retries,
    };
    let mut scratch = QueryScratch::default();
    let (tilde, _) = tilde_instance(
        &mut sampling,
        oracle,
        rng,
        half,
        |_| Ok(half),
        Quantiles::Naive,
        &mut scratch,
    )?;

    // Step 3: solve Ĩ exactly.
    let optimum_mu = tilde_optimum(&tilde)?;
    let tilde_value = optimum_mu as f64 / (1u128 << MU_SHIFT) as f64;
    Ok(IkyValueEstimate {
        value: (tilde_value - eps.as_f64()).max(0.0),
        tilde_optimum: tilde_value,
        samples: oracle.stats().since(before).weighted_samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcakp_knapsack::{solvers, Instance, NormalizedInstance};
    use lcakp_oracle::{InstanceOracle, Seed};
    use lcakp_workloads::{Family, WorkloadSpec};

    #[test]
    fn estimates_track_the_optimum() {
        let eps = Epsilon::new(1, 4).unwrap();
        for spec in [
            WorkloadSpec::new(Family::SmallDominated, 300, 1),
            WorkloadSpec::new(
                Family::LargeDominated {
                    heavy: 4,
                    heavy_profit: 2_000,
                },
                300,
                2,
            ),
        ] {
            let norm = spec.generate_normalized().unwrap();
            let oracle = InstanceOracle::new(&norm);
            let mut rng = Seed::from_entropy_u64(7).rng();
            let estimate = iky_value_estimate(&oracle, &mut rng, eps, 40_000).unwrap();
            let optimum = solvers::dp_by_weight(norm.as_instance()).unwrap().value;
            let normalized_opt = optimum as f64 / norm.total_profit() as f64;
            // Lemma 4.4: |estimate − OPT| ≤ 6ε (we allow 7ε for sampling
            // noise at this budget).
            assert!(
                (estimate.value - normalized_opt).abs() <= 7.0 * eps.as_f64(),
                "{spec}: estimate {} vs OPT {normalized_opt}",
                estimate.value
            );
        }
    }

    #[test]
    fn sample_accounting_matches_budget() {
        let eps = Epsilon::new(1, 3).unwrap();
        let spread: Vec<(u64, u64)> = (1..=100u64).map(|i| (1 + i % 5, 1 + i % 9)).collect();
        // Two large items hold all but 100/2,100 < ε of the profit, so the
        // EPS estimation is skipped and its half of the budget not drawn.
        let heavy: Vec<(u64, u64)> = [(1_000, 1), (1_000, 1)]
            .into_iter()
            .chain(std::iter::repeat_n((1, 1), 100))
            .collect();
        for (pairs, drawn) in [(spread, 10_000), (heavy, 5_000)] {
            let norm = NormalizedInstance::new(Instance::from_pairs(pairs, 100).unwrap()).unwrap();
            let oracle = InstanceOracle::new(&norm);
            let mut rng = Seed::from_entropy_u64(9).rng();
            let estimate = iky_value_estimate(&oracle, &mut rng, eps, 10_000).unwrap();
            assert_eq!(estimate.samples, drawn);
            assert_eq!(oracle.stats().weighted_samples, drawn);
        }
    }

    /// The first oracle fault ends the estimate: there are no retries.
    #[test]
    fn the_first_oracle_fault_is_the_error() {
        use lcakp_oracle::BudgetedOracle;
        let norm = WorkloadSpec::new(Family::SmallDominated, 200, 3)
            .generate_normalized()
            .unwrap();
        let inner = InstanceOracle::new(&norm);
        let oracle = BudgetedOracle::new(&inner, 10);
        let mut rng = Seed::from_entropy_u64(4).rng();
        let eps = Epsilon::new(1, 4).unwrap();
        let result = iky_value_estimate(&oracle, &mut rng, eps, 1_000);
        assert!(matches!(result, Err(LcaError::Oracle(_))), "{result:?}");
        assert_eq!(inner.stats().weighted_samples, 10);
    }

    /// The estimate of one fixed run: `(family, ε denominator)` at
    /// n = 300, a 40,000-sample budget and one sampling stream.
    fn pinned_run(family: Family, den: u64) -> IkyValueEstimate {
        let norm = WorkloadSpec::new(family, 300, 0x1C)
            .generate_normalized()
            .unwrap();
        let oracle = InstanceOracle::new(&norm);
        let mut rng = Seed::from_entropy_u64(0x1C1).rng();
        iky_value_estimate(&oracle, &mut rng, Epsilon::new(1, den).unwrap(), 40_000).unwrap()
    }

    /// `value` and `tilde_optimum` by bit pattern, so that any change to
    /// the draws, the large-item set, the EPS or Ĩ's solve shows.
    #[test]
    fn estimates_are_pinned_bit_for_bit() {
        let large = Family::LargeDominated {
            heavy: 4,
            heavy_profit: 2_000,
        };
        let small = Family::SmallDominated;
        let uncorr = Family::Uncorrelated { range: 1000 };
        let similar = Family::SimilarWeights { range: 1000 };
        let cases = [
            (small, 4, 0x3fd4_0000_0000_0000, 0x3fe2_0000_0000_0000),
            (small, 8, 0x3fe1_8000_0000_0000, 0x3fe5_8000_0000_0000),
            (large, 4, 0x3fe6_dbb5_f0b1_be54, 0x3fee_dbb5_f0b1_be54),
            (large, 8, 0x3fea_dbb5_f0b1_be54, 0x3fee_dbb5_f0b1_be54),
            (uncorr, 4, 0x3fd8_0000_0000_0000, 0x3fe4_0000_0000_0000),
            (uncorr, 8, 0x3fe3_8000_0000_0000, 0x3fe7_8000_0000_0000),
            (similar, 4, 0x3fd8_0000_0000_0000, 0x3fe4_0000_0000_0000),
            (similar, 8, 0x3fe2_8000_0000_0000, 0x3fe6_8000_0000_0000),
        ];
        for (family, den, value, tilde) in cases {
            let estimate = pinned_run(family, den);
            assert_eq!(
                (estimate.value.to_bits(), estimate.tilde_optimum.to_bits()),
                (value, tilde),
                "{family:?} at ε = 1/{den}"
            );
        }
    }

    #[test]
    fn value_is_never_negative() {
        let eps = Epsilon::new(1, 2).unwrap();
        let norm =
            NormalizedInstance::new(Instance::from_pairs([(1, 10), (1, 10)], 0).unwrap()).unwrap();
        let oracle = InstanceOracle::new(&norm);
        let mut rng = Seed::from_entropy_u64(5).rng();
        let estimate = iky_value_estimate(&oracle, &mut rng, eps, 1_000).unwrap();
        assert!(estimate.value >= 0.0);
    }
}
