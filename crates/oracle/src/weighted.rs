//! Profit-proportional ("weighted") sampling — the stronger access model
//! of Section 4, following [IKY12].
//!
//! The sampler must draw item `i` with probability exactly
//! `pᵢ / Σⱼ pⱼ`. The implementation is Vose's alias method with *integer*
//! thresholds, so the distribution is exact (no floating-point bias):
//! construction is `O(n)`, each sample is `O(1)` plus two RNG draws.

use crate::error::OracleError;
use lcakp_knapsack::{ItemId, KnapsackError};
use rand::Rng;

/// Sampling access to a Knapsack instance: item `i` with probability
/// proportional to its profit. Each call is a counted access.
pub trait WeightedSampler {
    /// Draws one item id (and its contents) with probability proportional
    /// to profit — **one counted sample** — or reports why the access
    /// failed.
    ///
    /// Sampling entropy comes from the *caller's* RNG: in the paper's
    /// reproducibility framework (Definition 2.5) samples are the fresh
    /// i.i.d. channel, distinct from the shared seed. Implementations
    /// must not consume caller entropy on a failed draw beyond what the
    /// fault-free draw would have consumed.
    ///
    /// # Errors
    ///
    /// The in-memory sampler is infallible; decorated oracles (fault
    /// injection, budget enforcement) return [`OracleError`] variants.
    fn try_sample_weighted<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
    ) -> Result<(ItemId, lcakp_knapsack::Item), OracleError>;

    /// Draws `count` samples, handing each to `deliver` in draw order —
    /// the same items, the same caller entropy and the same counted
    /// samples as `count` calls of
    /// [`try_sample_weighted`](Self::try_sample_weighted).
    ///
    /// The provided default *is* that loop. An oracle may override it to
    /// batch the work, provided every observable effect stays that of the
    /// per-sample loop: [`InstanceOracle`](crate::InstanceOracle) draws a
    /// chunk's bucket/roll pairs before it reads the table;
    /// [`BudgetedOracle`](crate::BudgetedOracle) reserves the batch's
    /// budget at once; [`FaultyOracle`](crate::FaultyOracle) hands the
    /// batch through under an inert plan (active faults are decided per
    /// access); and the serving runtime's `DeadlineOracle` charges its
    /// clock once per chunk. So a batch through that served stack reaches
    /// the two-phase draw. Tracing and rejection-sampling decorators keep
    /// the default, one sample at a time.
    ///
    /// # Errors
    ///
    /// Stops at the first failed sample and returns
    /// `Err((delivered, error))`: `delivered` samples reached `deliver`
    /// before the failure, and the failed draw is not delivered.
    fn try_sample_weighted_many<R, F>(
        &self,
        rng: &mut R,
        count: u64,
        mut deliver: F,
    ) -> Result<(), (u64, OracleError)>
    where
        R: Rng + ?Sized,
        F: FnMut(ItemId, lcakp_knapsack::Item),
    {
        for delivered in 0..count {
            match self.try_sample_weighted(rng) {
                Ok((id, item)) => deliver(id, item),
                Err(error) => return Err((delivered, error)),
            }
        }
        Ok(())
    }

    /// Infallible convenience wrapper around
    /// [`try_sample_weighted`](Self::try_sample_weighted) for call sites
    /// that assume the seed model's perfect sampler.
    ///
    /// # Panics
    ///
    /// Panics if the underlying access fails (possible only through
    /// fault-injecting or budget-enforcing decorators).
    fn sample_weighted<R: Rng + ?Sized>(&self, rng: &mut R) -> (ItemId, lcakp_knapsack::Item) {
        match self.try_sample_weighted(rng) {
            Ok(sample) => sample,
            Err(error) => panic!("oracle weighted sample failed: {error}"),
        }
    }
}

/// An exact integer alias table over a profit vector.
///
/// For each bucket `i` the table stores a threshold `prob[i] ∈ [0, P]`
/// (where `P = Σ pⱼ`) and an alias; a sample draws a uniform bucket and a
/// uniform `r ∈ [0, P)` and returns the bucket if `r < prob[i]`, otherwise
/// its alias. The invariant `Σᵢ ([i = j]·prob[i] + [alias[i] = j]·(P −
/// prob[i])) = n·pⱼ·…/…` — i.e. every item's total probability mass across
/// the table equals `pⱼ/P` exactly — is checked by a property test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AliasTable {
    /// Threshold per bucket, in units of `total`.
    prob: Vec<u64>,
    /// Alias per bucket.
    alias: Vec<u32>,
    /// `P = Σ pⱼ`.
    total: u64,
}

impl AliasTable {
    /// Builds the table from raw profits.
    ///
    /// # Errors
    ///
    /// Returns [`KnapsackError::ZeroTotalProfit`] if all profits are zero,
    /// [`KnapsackError::TooManyItems`] for more than `u32::MAX` items, and
    /// [`KnapsackError::UnitTooLarge`] if the total profit overflows `u64`.
    pub fn new(profits: &[u64]) -> Result<Self, KnapsackError> {
        if profits.len() > u32::MAX as usize {
            return Err(KnapsackError::TooManyItems {
                count: profits.len(),
            });
        }
        let total_wide: u128 = profits.iter().map(|&p| p as u128).sum();
        if total_wide == 0 {
            return Err(KnapsackError::ZeroTotalProfit);
        }
        let total = u64::try_from(total_wide)
            .map_err(|_| KnapsackError::UnitTooLarge { index: usize::MAX })?;
        let n = profits.len() as u128;
        // scaled[i] = p_i · n; bucket capacity is `total` each.
        let mut scaled: Vec<u128> = profits.iter().map(|&p| p as u128 * n).collect();
        let mut prob = vec![0u64; profits.len()];
        let mut alias: Vec<u32> = (0..profits.len() as u32).collect();

        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (index, &value) in scaled.iter().enumerate() {
            if value < total as u128 {
                small.push(index as u32);
            } else {
                large.push(index as u32);
            }
        }

        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            // `s` keeps its own mass; the rest of its bucket goes to `l`.
            prob[s as usize] = u64::try_from(scaled[s as usize])
                .expect("scaled mass below total fits u64 after bucket fill");
            alias[s as usize] = l;
            scaled[l as usize] -= total as u128 - scaled[s as usize];
            if scaled[l as usize] < total as u128 {
                large.pop();
                small.push(l);
            }
        }
        // Leftovers (numerically full buckets) own their whole bucket.
        for &index in small.iter().chain(large.iter()) {
            prob[index as usize] = total;
            alias[index as usize] = index;
        }

        Ok(AliasTable { prob, alias, total })
    }

    /// Number of buckets.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Returns `true` if the table is empty (cannot happen after
    /// successful construction of a nonempty profit vector).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws one item id with probability `pᵢ / P`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> ItemId {
        let (bucket, roll) = self.draw_bucket_roll(rng);
        self.bucket_or_alias(bucket, roll)
    }

    /// The two uniform draws of one sample: a bucket, then a roll in
    /// `[0, P)`. Neither depends on the table's contents, so a batch can
    /// draw all its pairs before it reads the table.
    #[inline]
    pub(crate) fn draw_bucket_roll<R: Rng + ?Sized>(&self, rng: &mut R) -> (usize, u64) {
        let bucket = rng.gen_range(0..self.prob.len());
        let roll = rng.gen_range(0..self.total);
        (bucket, roll)
    }

    /// Resolves a drawn pair: the bucket's own item if `roll` falls below
    /// its threshold, its alias otherwise.
    #[inline]
    pub(crate) fn bucket_or_alias(&self, bucket: usize, roll: u64) -> ItemId {
        if roll < self.prob[bucket] {
            ItemId(bucket)
        } else {
            ItemId(self.alias[bucket] as usize)
        }
    }

    /// Exact probability numerator of item `j` implied by the table, in
    /// units of `1 / (n · P)`; equals `n · pⱼ` iff the table is exact.
    /// Exposed for verification.
    pub fn implied_mass(&self, j: usize) -> u128 {
        let mut mass: u128 = 0;
        for index in 0..self.prob.len() {
            if index == j {
                mass += self.prob[index] as u128;
            }
            if self.alias[index] as usize == j {
                mass += (self.total - self.prob[index]) as u128;
            }
        }
        mass
    }

    /// Total mass `P`.
    pub fn total(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Seed;
    use proptest::prelude::*;

    #[test]
    fn rejects_zero_total() {
        assert!(matches!(
            AliasTable::new(&[0, 0]),
            Err(KnapsackError::ZeroTotalProfit)
        ));
    }

    #[test]
    fn single_item_always_sampled() {
        let table = AliasTable::new(&[5]).unwrap();
        let mut rng = Seed::from_entropy_u64(0).rng();
        for _ in 0..100 {
            assert_eq!(table.sample(&mut rng), ItemId(0));
        }
    }

    #[test]
    fn implied_mass_is_exact_on_a_known_table() {
        let profits = [1u64, 3];
        let table = AliasTable::new(&profits).unwrap();
        // mass(j) must equal n · p_j = 2 · p_j.
        assert_eq!(table.implied_mass(0), 2);
        assert_eq!(table.implied_mass(1), 6);
    }

    #[test]
    fn zero_profit_items_have_zero_mass() {
        let profits = [0u64, 4, 0, 4];
        let table = AliasTable::new(&profits).unwrap();
        assert_eq!(table.implied_mass(0), 0);
        assert_eq!(table.implied_mass(2), 0);
        assert_eq!(table.implied_mass(1), 16);
    }

    #[test]
    fn empirical_frequencies_track_profits() {
        let profits = [10u64, 20, 30, 40];
        let table = AliasTable::new(&profits).unwrap();
        let mut rng = Seed::from_entropy_u64(7).rng();
        let trials = 100_000u64;
        let mut counts = [0u64; 4];
        for _ in 0..trials {
            counts[table.sample(&mut rng).index()] += 1;
        }
        for (index, &profit) in profits.iter().enumerate() {
            let expected = trials as f64 * profit as f64 / 100.0;
            let observed = counts[index] as f64;
            assert!(
                (observed - expected).abs() < 5.0 * expected.sqrt() + 50.0,
                "item {index}: observed {observed}, expected {expected}"
            );
        }
    }

    proptest! {
        /// The table encodes the target distribution *exactly*: for every
        /// item, the implied mass equals `n · p_j`.
        #[test]
        fn alias_table_is_exact(profits in proptest::collection::vec(0u64..1000, 1..50)) {
            prop_assume!(profits.iter().sum::<u64>() > 0);
            let table = AliasTable::new(&profits).unwrap();
            let n = profits.len() as u128;
            for (j, &p) in profits.iter().enumerate() {
                prop_assert_eq!(table.implied_mass(j), p as u128 * n);
            }
        }
    }
}
