//! Profit-proportional ("weighted") sampling — the stronger access model
//! of Section 4, following [IKY12].
//!
//! The sampler must draw item `i` with probability exactly
//! `pᵢ / Σⱼ pⱼ`. The implementation is Vose's alias method with *integer*
//! thresholds, so the distribution is exact (no floating-point bias):
//! construction is `O(n)`, each sample is `O(1)` plus two RNG draws.
//! The table is built in place over profits it reads through an
//! iterator: its two vectors, 12 bytes per item, are all the build
//! allocates, and nothing transient of size `n` is made.

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
///
/// The table is 12 bytes per item (`prob` and `alias`), and building it
/// allocates nothing else.
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
    /// Builds the table from raw profits, in place: the table's two
    /// vectors, 12 bytes per item, are all the build allocates.
    ///
    /// # Errors
    ///
    /// Returns [`KnapsackError::TooManyItems`] for more than `u32::MAX`
    /// items, [`KnapsackError::ZeroTotalProfit`] if all profits are zero,
    /// and [`KnapsackError::UnitTooLarge`] if the total profit overflows
    /// `u64`, checked in that order.
    pub fn new(profits: &[u64]) -> Result<Self, KnapsackError> {
        Self::from_profits(profits.iter().copied())
    }

    /// Builds the table in place from profits read through an iterator,
    /// which it clones to read them again. The two table vectors are the
    /// only allocations: 12 bytes per item, nothing transient.
    ///
    /// An item is *small* when its mass `pᵢ·n` is below a bucket's `P`,
    /// and `prob[i]` holds a small item's mass from the start. Vose's two
    /// worklists become two downward scans over the profits, which
    /// re-read `pᵢ·n < P` to tell the initially small items from the
    /// initially large ones: the large list is never pushed after it is
    /// filled, and a large item that runs out is always the next small
    /// item popped, so it waits as the one pending item. Only the large
    /// item being drained holds a mass of `P` or more, and it keeps that
    /// mass in a local until it runs out.
    ///
    /// Errors as [`new`](Self::new).
    pub(crate) fn from_profits<I>(profits: I) -> Result<Self, KnapsackError>
    where
        I: DoubleEndedIterator<Item = u64> + ExactSizeIterator + Clone,
    {
        let len = profits.len();
        if len > u32::MAX as usize {
            return Err(KnapsackError::TooManyItems { count: len });
        }
        let total_wide: u128 = profits.clone().map(u128::from).sum();
        if total_wide == 0 {
            return Err(KnapsackError::ZeroTotalProfit);
        }
        let total = u64::try_from(total_wide)
            .map_err(|_| KnapsackError::UnitTooLarge { index: usize::MAX })?;
        let n = len as u64;
        // `p·n < P` exactly when `p < ⌈P / n⌉`; a small mass fits `u64`.
        let threshold = total.div_ceil(n);
        // A small item's slot holds its mass from the start; a large
        // item's is written when it runs out.
        let mut prob: Vec<u64> = Vec::with_capacity(len);
        prob.extend(
            profits
                .clone()
                .map(|p| if p < threshold { p * n } else { 0 }),
        );
        let mut alias = vec![0u32; len];

        let scan = |small: bool| {
            let indexed = profits.clone().enumerate().rev();
            indexed.filter(move |&(_, profit)| (profit < threshold) == small)
        };
        let mut smalls = scan(true).map(|(index, _)| index);
        let mut larges = scan(false);
        let mut pending = None;
        let mut unsettled = None;
        'larges: for (l, profit) in larges.by_ref() {
            let mut mass = u128::from(profit) * u128::from(n);
            while mass >= total_wide {
                let Some(s) = pending.take().or_else(|| smalls.next()) else {
                    unsettled = Some(l);
                    break 'larges;
                };
                // `s` keeps its own mass; the rest of its bucket comes
                // from `l`.
                alias[s] = l as u32;
                mass -= u128::from(total - prob[s]);
            }
            prob[l] = mass as u64;
            pending = Some(l);
        }
        // Leftovers (numerically full buckets) own their whole bucket.
        let larges = unsettled.into_iter().chain(larges.map(|(index, _)| index));
        for index in pending.into_iter().chain(smalls).chain(larges) {
            prob[index] = total;
            alias[index] = index as u32;
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

/// The worklist build the table shipped with, kept verbatim as the
/// reference the in-place build is pinned against.
#[cfg(test)]
mod reference {
    use super::AliasTable;
    use lcakp_knapsack::KnapsackError;

    /// Builds the table from raw profits.
    ///
    /// # Errors
    ///
    /// Returns [`KnapsackError::ZeroTotalProfit`] if all profits are zero,
    /// [`KnapsackError::TooManyItems`] for more than `u32::MAX` items, and
    /// [`KnapsackError::UnitTooLarge`] if the total profit overflows `u64`.
    pub fn new(profits: &[u64]) -> Result<AliasTable, KnapsackError> {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Seed;
    use lcakp_workloads::{Family, WorkloadSpec};
    use proptest::prelude::*;

    /// FNV-1a over a table's thresholds, aliases and total, in that
    /// order, as little-endian bytes.
    fn digest(table: &AliasTable) -> u64 {
        let prob = table.prob.iter().flat_map(|p| p.to_le_bytes());
        let bytes = prob
            .chain(table.alias.iter().flat_map(|a| a.to_le_bytes()))
            .chain(table.total.to_le_bytes());
        bytes.fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    fn workload_profits(family: Family, n: usize, seed: u64) -> Vec<u64> {
        let norm = WorkloadSpec::new(family, n, seed)
            .generate_normalized()
            .unwrap();
        norm.as_instance()
            .items()
            .iter()
            .map(|item| item.profit)
            .collect()
    }

    /// The tables themselves, not just their implied masses: every draw,
    /// answer and golden downstream reads `prob`, `alias` and `total`, so
    /// a rebuilt construction must reproduce them bit for bit.
    #[test]
    fn tables_are_pinned_bit_for_bit() {
        let large_dominated = Family::LargeDominated {
            heavy: 24,
            heavy_profit: 1 << 20,
        };
        let cases = [
            (
                "large-dominated",
                workload_profits(large_dominated, 1 << 16, 5),
                0xd4d3_889d_9f99_29d0,
            ),
            (
                "uncorrelated",
                workload_profits(Family::Uncorrelated { range: 1000 }, 1 << 16, 6),
                0x43c0_0b53_7e9e_c5d0,
            ),
            (
                "small-dominated",
                workload_profits(Family::SmallDominated, 4096, 7),
                0x730b_5aaa_765a_92cf,
            ),
            (
                "zeros",
                vec![0, 7, 0, 0, 3, 0, 12, 0, 0, 5],
                0x02bc_b25d_18e8_1b4b,
            ),
        ];
        for (name, profits, expected) in cases {
            let table = AliasTable::new(&profits).unwrap();
            assert_eq!(digest(&table), expected, "{name}");
        }
    }

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

    #[test]
    fn too_many_items_is_reported_first() {
        // Zero profits and a total past `u64::MAX` alike: the count is
        // checked before any profit is read.
        for profit in [0, u64::MAX] {
            let profits = std::iter::repeat_n(profit, u32::MAX as usize + 1);
            assert_eq!(
                AliasTable::from_profits(profits),
                Err(KnapsackError::TooManyItems {
                    count: u32::MAX as usize + 1
                })
            );
        }
    }

    /// Profit vectors of 1–64 items, in six shapes: small values with
    /// many zeros and ties; one item holding all the mass (`p·n = n·P`,
    /// drained by every other bucket); heavy tails; totals up to `u64::MAX`; totals exactly at
    /// it; and totals past it.
    fn profit_vectors() -> impl Strategy<Value = Vec<u64>> {
        let raw = proptest::collection::vec((0u64..=u64::MAX, 0u32..64), 1..65);
        (0u8..6, raw, 0usize..64).prop_map(|(shape, raw, at)| {
            let mut profits: Vec<u64> = raw
                .iter()
                .map(|&(x, shift)| match shape {
                    0 => x % 8,
                    1 => 0,
                    2 => x >> shift,
                    3 | 4 => x / 64,
                    _ => x,
                })
                .collect();
            let len = profits.len();
            match shape {
                1 => profits[at % len] = raw[0].0.max(1),
                4 => profits[0] = u64::MAX - profits[1..].iter().sum::<u64>(),
                _ => {}
            }
            profits
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The in-place build equals the worklist build it replaced:
        /// the same thresholds, aliases and total, or the same error.
        #[test]
        fn in_place_build_equals_the_reference(profits in profit_vectors()) {
            prop_assert_eq!(AliasTable::new(&profits), reference::new(&profits));
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
