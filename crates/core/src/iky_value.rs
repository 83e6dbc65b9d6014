//! The IKY12 constant-time *value* approximation (Section 4
//! preliminaries; Lemma 4.4), which `LCA-KP` descends from.
//!
//! Given weighted sampling access, the algorithm of Ito, Kiyoshima and
//! Yoshida estimates the *value* of an optimal solution (not the solution
//! itself) to additive `±O(ε)` of the normalized optimum: sample the
//! large items (Lemma 4.2), estimate an equally partitioning sequence
//! from a second sample, build Ĩ, and solve Ĩ exactly. Note that unlike
//! `LCA-KP` it has no consistency requirement, so plain empirical
//! quantiles suffice here.

use crate::LcaError;
use lcakp_knapsack::iky::{tilde_optimum, EpsSequence, Epsilon, TildeInstance, MU_SHIFT};
use lcakp_knapsack::{Item, ItemId};
use lcakp_oracle::{ItemOracle, WeightedSampler};
use lcakp_reproducible::naive_quantile;
use rand::Rng;

/// Output of one run of the IKY12 value-approximation algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IkyValueEstimate {
    /// Estimated normalized optimum (the paper's `OPT(Ĩ) − ε`, a
    /// `(1, 6ε)`-approximation of `OPT(I)` by Lemma 4.4).
    pub value: f64,
    /// Raw `OPT(Ĩ)` before the `−ε` correction, normalized.
    pub tilde_optimum: f64,
    /// Number of weighted samples consumed.
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
/// Returns [`LcaError`] if Ĩ's exact solver exhausts its node budget
/// (pathological ε only).
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
    let norms = oracle.norms();
    let eps_sq = eps.squared();
    let half = (sample_budget / 2).max(1);

    // Step 1: collect the large items (Lemma 4.2).
    let mut large: Vec<(ItemId, Item)> = Vec::new();
    for _ in 0..half {
        let (id, item) = oracle.try_sample_weighted(rng)?;
        if norms.nprofit_of(item.profit) > eps_sq {
            large.push((id, item));
        }
    }
    large.sort_by_key(|&(id, _)| id);
    large.dedup_by_key(|&mut (id, _)| id);
    let large_profit: u128 = large.iter().map(|&(_, item)| item.profit as u128).sum();
    let total_profit = norms.total_profit as u128;

    // Step 2: estimate the EPS from a second sample (empirical
    // quantiles — reproducibility is not needed for a value estimate).
    let residual = total_profit - large_profit;
    let seq = if residual * eps.den() as u128 >= eps.num() as u128 * total_profit {
        let residual_fraction = residual as f64 / total_profit as f64;
        let eps_f = eps.as_f64();
        let q = (eps_f + eps_f * eps_f / 2.0) / residual_fraction;
        let t = (1.0 / q).floor() as usize;
        let mut efficiencies: Vec<u64> = Vec::new();
        for _ in 0..half {
            let (id, item) = oracle.try_sample_weighted(rng)?;
            if norms.nprofit_of(item.profit) <= eps_sq {
                efficiencies.push(norms.tie_broken_efficiency_key(id, item));
            }
        }
        if efficiencies.is_empty() || t == 0 {
            EpsSequence::empty()
        } else {
            let mut keys = Vec::with_capacity(t);
            let mut previous = u64::MAX;
            for k in 1..=t {
                let p = (1.0 - k as f64 * q).max(0.0);
                let key = naive_quantile(&efficiencies, p).min(previous);
                keys.push(key);
                previous = key;
            }
            let mut seq = EpsSequence::new(keys).map_err(LcaError::from)?;
            if let Some(&last) = seq.keys().last() {
                let num = eps.num() as u128;
                let den = eps.den() as u128;
                if (last as u128) * den * den < num * num * (1u128 << 32) {
                    seq.truncate_last();
                }
            }
            seq
        }
    } else {
        EpsSequence::empty()
    };

    // Step 3: build Ĩ and solve it exactly.
    let tilde = TildeInstance::build(norms, oracle.capacity(), eps, &large, &seq);
    let optimum_mu = tilde_optimum(&tilde).ok_or(LcaError::SampleBudgetTooLarge {
        needed: u64::MAX,
        cap: 0,
    })?;
    let tilde_value = optimum_mu as f64 / (1u128 << MU_SHIFT) as f64;
    Ok(IkyValueEstimate {
        value: (tilde_value - eps.as_f64()).max(0.0),
        tilde_optimum: tilde_value,
        samples: 2 * half,
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
        let norm = NormalizedInstance::new(
            Instance::from_pairs((1..=100u64).map(|i| (1 + i % 5, 1 + i % 9)), 100).unwrap(),
        )
        .unwrap();
        let oracle = InstanceOracle::new(&norm);
        let mut rng = Seed::from_entropy_u64(9).rng();
        let estimate = iky_value_estimate(&oracle, &mut rng, eps, 10_000).unwrap();
        assert_eq!(estimate.samples, 10_000);
        assert_eq!(oracle.stats().weighted_samples, 10_000);
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
