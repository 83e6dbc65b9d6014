//! Point-query access to a Knapsack instance (Definition 2.2).

use crate::error::OracleError;
use crate::stats::{AccessSnapshot, AccessStats};
use crate::weighted::{AliasTable, WeightedSampler};
use lcakp_knapsack::{Item, ItemId, NormalizedInstance, Norms};
use rand::Rng;
use std::fmt;

/// Query access to a Knapsack instance, as granted to an LCA.
///
/// The algorithm is given, for free, the instance size `n`, the capacity
/// `K`, and the normalization constants (the paper normalizes total profit
/// and weight to 1, so these are public by assumption). Inspecting an
/// *item*, however, costs one counted query.
///
/// Implementations must be usable through a shared reference so that many
/// LCA instances can query the same oracle concurrently; counters use
/// interior mutability.
pub trait ItemOracle {
    /// Number of items `n` (free).
    fn len(&self) -> usize;

    /// Returns `true` if the instance has no items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The weight limit `K` (free).
    fn capacity(&self) -> u64;

    /// The normalization constants (free).
    fn norms(&self) -> Norms;

    /// Reveals item `i` — **one counted query** — or reports why the
    /// access failed.
    ///
    /// # Errors
    ///
    /// Returns [`OracleError::OutOfRange`] for an invalid id; decorated
    /// oracles (fault injection, budget enforcement) may return any other
    /// [`OracleError`] variant.
    fn try_query(&self, id: ItemId) -> Result<Item, OracleError>;

    /// Infallible convenience wrapper around [`try_query`](Self::try_query)
    /// for call sites that assume the seed model's perfect oracle.
    ///
    /// # Panics
    ///
    /// Panics if the underlying access fails — i.e. on an out-of-range id,
    /// or when the oracle is decorated with fault injection or a budget.
    /// Fault-aware callers use `try_query` instead.
    fn query(&self, id: ItemId) -> Item {
        match self.try_query(id) {
            Ok(item) => item,
            Err(error) => panic!("oracle query failed: {error}"),
        }
    }

    /// Snapshot of the access counters.
    fn stats(&self) -> AccessSnapshot;
}

/// The standard oracle over an in-memory [`NormalizedInstance`], also
/// providing weighted sampling (Section 4's model) through an exact
/// integer alias table.
///
/// ```
/// use lcakp_knapsack::{Instance, ItemId, NormalizedInstance};
/// use lcakp_oracle::{InstanceOracle, ItemOracle, WeightedSampler};
///
/// # fn main() -> Result<(), lcakp_knapsack::KnapsackError> {
/// let norm = NormalizedInstance::new(Instance::from_pairs([(3, 1), (1, 1)], 1)?)?;
/// let oracle = InstanceOracle::new(&norm);
/// let item = oracle.query(ItemId(0));
/// assert_eq!(item.profit, 3);
/// let mut rng = rand::thread_rng();
/// let (_, sampled) = oracle.sample_weighted(&mut rng);
/// assert!(sampled.profit > 0); // zero-profit items are never sampled
/// assert_eq!(oracle.stats().point_queries, 1);
/// assert_eq!(oracle.stats().weighted_samples, 1);
/// # Ok(())
/// # }
/// ```
pub struct InstanceOracle<'a> {
    norm: &'a NormalizedInstance,
    alias: AliasTable,
    stats: AccessStats,
}

impl<'a> InstanceOracle<'a> {
    /// Builds the oracle (and its alias table) over an instance. The
    /// table reads the items' profits in place and takes 12 bytes per
    /// item; the build allocates nothing else.
    pub fn new(norm: &'a NormalizedInstance) -> Self {
        let profits = norm.as_instance().items().iter().map(|item| item.profit);
        let alias = AliasTable::from_profits(profits)
            .expect("NormalizedInstance guarantees positive total profit");
        InstanceOracle {
            norm,
            alias,
            stats: AccessStats::new(),
        }
    }

    /// Resets the access counters (e.g. between measured LCA queries).
    pub fn reset_stats(&self) {
        self.stats.reset();
    }
}

impl ItemOracle for InstanceOracle<'_> {
    fn len(&self) -> usize {
        self.norm.len()
    }

    fn capacity(&self) -> u64 {
        self.norm.as_instance().capacity()
    }

    fn norms(&self) -> Norms {
        self.norm.norms()
    }

    fn try_query(&self, id: ItemId) -> Result<Item, OracleError> {
        if id.index() >= self.norm.len() {
            return Err(OracleError::OutOfRange {
                id,
                len: self.norm.len(),
            });
        }
        self.stats.record_point_query();
        Ok(self.norm.item(id))
    }

    fn stats(&self) -> AccessSnapshot {
        self.stats.snapshot()
    }
}

/// Samples per chunk of [`InstanceOracle`]'s batch draw: enough that a
/// chunk's table and item loads overlap in flight, few enough that the
/// chunk lives on the stack (3 KiB of pairs, ids and items).
const SAMPLE_CHUNK: usize = 64;

impl WeightedSampler for InstanceOracle<'_> {
    fn try_sample_weighted<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
    ) -> Result<(ItemId, Item), OracleError> {
        self.stats.record_weighted_sample();
        let id = self.alias.sample(rng);
        Ok((id, self.norm.item(id)))
    }

    /// Two-phase chunks: first every (bucket, roll) pair of the chunk, in
    /// the order the per-sample path draws them; then the pairs resolve
    /// to ids and the ids to items. The draws never read the table, so
    /// the second phase's loads are independent. Each resolving pass is
    /// its own small loop, so many of its cache misses are in flight at
    /// once, where the per-sample path waits on one sample's misses
    /// before it draws the next. One counter add covers the whole chunk.
    fn try_sample_weighted_many<R, F>(
        &self,
        rng: &mut R,
        count: u64,
        mut deliver: F,
    ) -> Result<(), (u64, OracleError)>
    where
        R: Rng + ?Sized,
        F: FnMut(ItemId, Item),
    {
        let mut pairs = [(0usize, 0u64); SAMPLE_CHUNK];
        let mut ids = [ItemId(0); SAMPLE_CHUNK];
        let mut items = [Item::new(0, 0); SAMPLE_CHUNK];
        let mut left = count;
        while left > 0 {
            let len = left.min(SAMPLE_CHUNK as u64) as usize;
            let (pairs, ids, items) = (&mut pairs[..len], &mut ids[..len], &mut items[..len]);
            for pair in pairs.iter_mut() {
                *pair = self.alias.draw_bucket_roll(rng);
            }
            self.stats.record_weighted_samples(len as u64);
            for (id, &(bucket, roll)) in ids.iter_mut().zip(pairs.iter()) {
                *id = self.alias.bucket_or_alias(bucket, roll);
            }
            for (item, &id) in items.iter_mut().zip(ids.iter()) {
                *item = self.norm.item(id);
            }
            for (&id, &item) in ids.iter().zip(items.iter()) {
                deliver(id, item);
            }
            left -= len as u64;
        }
        Ok(())
    }
}

impl fmt::Debug for InstanceOracle<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InstanceOracle")
            .field("n", &self.norm.len())
            .field("stats", &self.stats.snapshot())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcakp_knapsack::Instance;

    fn norm() -> NormalizedInstance {
        NormalizedInstance::new(Instance::from_pairs([(3, 1), (1, 1), (0, 2), (6, 3)], 4).unwrap())
            .unwrap()
    }

    #[test]
    fn metadata_is_free() {
        let norm = norm();
        let oracle = InstanceOracle::new(&norm);
        assert_eq!(oracle.len(), 4);
        assert_eq!(oracle.capacity(), 4);
        assert_eq!(oracle.norms().total_profit, 10);
        assert_eq!(oracle.stats().total(), 0);
    }

    #[test]
    fn queries_are_counted() {
        let norm = norm();
        let oracle = InstanceOracle::new(&norm);
        let item = oracle.query(ItemId(3));
        assert_eq!(item, Item::new(6, 3));
        assert_eq!(oracle.stats().point_queries, 1);
        oracle.reset_stats();
        assert_eq!(oracle.stats().point_queries, 0);
    }

    #[test]
    fn samples_are_counted_and_profit_weighted() {
        let norm = norm();
        let oracle = InstanceOracle::new(&norm);
        let mut rng = crate::Seed::from_entropy_u64(1).rng();
        let mut counts = [0u64; 4];
        for _ in 0..10_000 {
            let (id, _) = oracle.sample_weighted(&mut rng);
            counts[id.index()] += 1;
        }
        assert_eq!(oracle.stats().weighted_samples, 10_000);
        // Zero-profit item never sampled; item 3 (profit 6) about twice as
        // frequent as item 0 (profit 3).
        assert_eq!(counts[2], 0);
        assert!(counts[3] > counts[0]);
        assert!(counts[0] > counts[1]);
    }

    #[test]
    fn oracle_is_shareable_across_threads() {
        let norm = norm();
        let oracle = InstanceOracle::new(&norm);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for index in 0..norm.len() {
                        let _ = oracle.query(ItemId(index));
                    }
                });
            }
        });
        assert_eq!(oracle.stats().point_queries, 16);
    }

    #[test]
    fn debug_shows_counters() {
        let norm = norm();
        let oracle = InstanceOracle::new(&norm);
        assert!(format!("{oracle:?}").contains("stats"));
    }
}
