use crate::rat::{cmp_products, Rat};
use crate::{Item, ItemId, KnapsackError};
use std::cmp::Ordering;
use std::fmt;

/// Maximum profit or weight of a single item.
///
/// This bound (together with [`MAX_ITEMS`]) guarantees that every
/// fixed-point efficiency key ([`NormalizedInstance::efficiency_key`]) can
/// be computed without overflow in `u128` arithmetic.
pub const MAX_UNIT: u64 = 1 << 20;

/// Maximum number of items in an instance.
pub const MAX_ITEMS: usize = 1 << 24;

/// Number of fractional bits in an efficiency key.
pub(crate) const EFF_KEY_SHIFT: u32 = 32;

/// The splitmix64 finalizer: a cheap, deterministic, well-mixed hash of
/// a word (here of item ids, which makes it a pure function of the id).
pub(crate) fn splitmix64(word: u64) -> u64 {
    let mut hash = word.wrapping_add(0x9e37_79b9_7f4a_7c15);
    hash = (hash ^ (hash >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    hash = (hash ^ (hash >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    hash ^ (hash >> 31)
}

/// A Knapsack instance: a list of items and a capacity (the weight limit
/// `K` of the paper).
///
/// Instances are immutable after construction; all solvers and oracles take
/// them by shared reference.
///
/// ```
/// use lcakp_knapsack::{Instance, Item, ItemId};
/// # fn main() -> Result<(), lcakp_knapsack::KnapsackError> {
/// let instance = Instance::from_pairs([(10, 5), (7, 3)], 6)?;
/// assert_eq!(instance.len(), 2);
/// assert_eq!(instance.item(ItemId(0)), Item::new(10, 5));
/// assert_eq!(instance.total_profit(), 17);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    items: Vec<Item>,
    capacity: u64,
}

impl Instance {
    /// Creates an instance, validating the fixed-point bounds.
    ///
    /// # Errors
    ///
    /// * [`KnapsackError::EmptyInstance`] if `items` is empty;
    /// * [`KnapsackError::TooManyItems`] if there are more than
    ///   [`MAX_ITEMS`] items;
    /// * [`KnapsackError::UnitTooLarge`] if any profit or weight exceeds
    ///   [`MAX_UNIT`].
    pub fn new(items: Vec<Item>, capacity: u64) -> Result<Self, KnapsackError> {
        if items.is_empty() {
            return Err(KnapsackError::EmptyInstance);
        }
        if items.len() > MAX_ITEMS {
            return Err(KnapsackError::TooManyItems { count: items.len() });
        }
        for (index, item) in items.iter().enumerate() {
            if item.profit > MAX_UNIT || item.weight > MAX_UNIT {
                return Err(KnapsackError::UnitTooLarge { index });
            }
        }
        Ok(Instance { items, capacity })
    }

    /// Creates an instance from `(profit, weight)` pairs.
    ///
    /// # Errors
    ///
    /// Same as [`Instance::new`].
    pub fn from_pairs<I>(pairs: I, capacity: u64) -> Result<Self, KnapsackError>
    where
        I: IntoIterator<Item = (u64, u64)>,
    {
        Instance::new(pairs.into_iter().map(Item::from).collect(), capacity)
    }

    /// Number of items `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` if the instance has no items (never true for a
    /// successfully constructed instance).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The weight limit `K`.
    #[inline]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// The item with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn item(&self, id: ItemId) -> Item {
        self.items[id.index()]
    }

    /// The item with the given id, or `None` if out of range.
    #[inline]
    pub fn get(&self, id: ItemId) -> Option<Item> {
        self.items.get(id.index()).copied()
    }

    /// Iterator over `(ItemId, Item)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ItemId, Item)> + '_ {
        self.items
            .iter()
            .enumerate()
            .map(|(index, item)| (ItemId(index), *item))
    }

    /// All items as a slice.
    #[inline]
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// Sum of all profits, exact (fits `u64` by the construction bounds).
    pub fn total_profit(&self) -> u64 {
        self.items.iter().map(|item| item.profit).sum()
    }

    /// Sum of all weights, exact.
    pub fn total_weight(&self) -> u64 {
        self.items.iter().map(|item| item.weight).sum()
    }

    /// Returns `true` if the item fits in the knapsack on its own.
    #[inline]
    pub fn fits(&self, id: ItemId) -> bool {
        self.item(id).weight <= self.capacity
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Instance(n={}, K={})", self.items.len(), self.capacity)
    }
}

/// Exact efficiency (profit-to-weight ratio) of an item under
/// normalization, with `Infinite` for positive-profit zero-weight items.
///
/// Ordering puts `Infinite` above every finite value, matching the greedy
/// algorithm's treatment (zero-weight profitable items are always taken
/// first).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Efficiency {
    /// Finite ratio.
    Finite(Rat),
    /// Positive profit with zero weight.
    Infinite,
}

impl PartialOrd for Efficiency {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Efficiency {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Efficiency::Infinite, Efficiency::Infinite) => Ordering::Equal,
            (Efficiency::Infinite, Efficiency::Finite(_)) => Ordering::Greater,
            (Efficiency::Finite(_), Efficiency::Infinite) => Ordering::Less,
            (Efficiency::Finite(a), Efficiency::Finite(b)) => a.cmp(b),
        }
    }
}

impl fmt::Display for Efficiency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Efficiency::Finite(rat) => write!(f, "{rat}"),
            Efficiency::Infinite => write!(f, "inf"),
        }
    }
}

/// The normalization constants of an instance, detached from the item
/// list.
///
/// In the LCA model the algorithm is *given* the normalization (the paper
/// normalizes total profit and weight to 1) but must pay a query for every
/// item it inspects. `Norms` is what an oracle hands to an algorithm for
/// free: exactly the constants, nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Norms {
    /// Total profit `P` in raw units (positive).
    pub total_profit: u64,
    /// Total weight `W` in raw units (positive).
    pub total_weight: u64,
}

impl Norms {
    /// Normalized profit of a raw profit value: `p / P`, exact.
    #[inline]
    pub fn nprofit_of(&self, profit: u64) -> Rat {
        Rat::new(profit as u128, self.total_profit as u128)
    }

    /// Exact normalized efficiency of an item.
    pub fn efficiency_of(&self, item: Item) -> Efficiency {
        if item.weight == 0 {
            if item.profit == 0 {
                Efficiency::Finite(Rat::zero())
            } else {
                Efficiency::Infinite
            }
        } else {
            Efficiency::Finite(Rat::new(
                item.profit as u128 * self.total_weight as u128,
                item.weight as u128 * self.total_profit as u128,
            ))
        }
    }

    /// Monotone `u64` fixed-point key of the normalized efficiency
    /// (see [`NormalizedInstance::efficiency_key`]).
    pub fn efficiency_key_of(&self, item: Item) -> u64 {
        if item.profit == 0 {
            return 0;
        }
        if item.weight == 0 {
            return u64::MAX;
        }
        let numerator = (item.profit as u128 * self.total_weight as u128) << EFF_KEY_SHIFT;
        let denominator = item.weight as u128 * self.total_profit as u128;
        u64::try_from(numerator / denominator).unwrap_or(u64::MAX)
    }

    /// Number of low fractional bits of an efficiency key replaced by a
    /// per-item hash in [`Norms::tie_broken_efficiency_key`].
    pub const TIE_BITS: u32 = 12;

    /// A **total order refinement** of the efficiency key: the low
    /// [`Norms::TIE_BITS`] bits of the 32-bit fractional part are
    /// replaced by a deterministic hash of the item id.
    ///
    /// Families with massive efficiency ties (subset-sum has *every*
    /// efficiency equal) admit no equally partitioning sequence under the
    /// raw order — no threshold can split a single atom. The tie-broken
    /// key makes the order total at the cost of `2⁻²⁰` relative
    /// efficiency resolution, which the EPS slack (`ε²` per bucket)
    /// absorbs. The refinement is a pure function of `(id, item)` and
    /// the normalization constants, so it is identical across runs and
    /// across LCA instances — consistency is unaffected.
    ///
    /// The sentinels are preserved: zero-profit items stay at key `0` and
    /// infinite efficiencies at `u64::MAX`.
    pub fn tie_broken_efficiency_key(&self, id: ItemId, item: Item) -> u64 {
        let base = self.efficiency_key_of(item);
        if base == 0 || base == u64::MAX {
            return base;
        }
        let mask = (1u64 << Self::TIE_BITS) - 1;
        (base & !mask) | (splitmix64(id.index() as u64) & mask)
    }

    /// Ordering of an item's exact efficiency versus the threshold
    /// `key / 2³²` (see [`NormalizedInstance::cmp_efficiency_to_key`]).
    pub fn cmp_efficiency_to_key(&self, item: Item, key: u64) -> Ordering {
        if item.weight == 0 {
            return if item.profit == 0 {
                if key == 0 {
                    Ordering::Equal
                } else {
                    Ordering::Less
                }
            } else if key == u64::MAX {
                Ordering::Equal
            } else {
                Ordering::Greater
            };
        }
        let lhs = (item.profit as u128 * self.total_weight as u128) << EFF_KEY_SHIFT;
        let rhs_a = key as u128;
        let rhs_b = item.weight as u128 * self.total_profit as u128;
        cmp_products(lhs, 1, rhs_a, rhs_b)
    }
}

/// A Knapsack instance together with its exact normalization constants.
///
/// The paper assumes "the total profit and weight are both normalized to 1"
/// (Section 4). Rather than dividing and losing exactness, this type keeps
/// the raw integer instance and exposes *exact rational* views:
///
/// * [`NormalizedInstance::nprofit`] — `p̂ᵢ = pᵢ / P` where `P` is the total
///   profit;
/// * [`NormalizedInstance::nweight`] — `ŵᵢ = wᵢ / W`;
/// * [`NormalizedInstance::efficiency`] — `p̂ᵢ / ŵᵢ = (pᵢ · W) / (wᵢ · P)`;
/// * [`NormalizedInstance::efficiency_key`] — a monotone `u64` fixed-point
///   encoding of the efficiency, the finite ordered domain over which the
///   reproducible quantile algorithm runs (Section 4.2, "mapping to a
///   finite domain").
///
/// ```
/// use lcakp_knapsack::{Instance, ItemId, NormalizedInstance, Rat};
/// # fn main() -> Result<(), lcakp_knapsack::KnapsackError> {
/// let instance = Instance::from_pairs([(3, 1), (1, 3)], 2)?;
/// let norm = NormalizedInstance::new(instance)?;
/// assert_eq!(norm.nprofit(ItemId(0)), Rat::new(3, 4));
/// // efficiency of item 0: (3/4) / (1/4) = 3.
/// assert_eq!(norm.efficiency_rat(ItemId(0)), Some(Rat::new(3, 1)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NormalizedInstance {
    inner: Instance,
    total_profit: u64,
    total_weight: u64,
}

impl NormalizedInstance {
    /// Wraps an instance, caching its normalization constants.
    ///
    /// # Errors
    ///
    /// * [`KnapsackError::ZeroTotalProfit`] if all profits are zero;
    /// * [`KnapsackError::ZeroTotalWeight`] if all weights are zero.
    pub fn new(inner: Instance) -> Result<Self, KnapsackError> {
        let total_profit = inner.total_profit();
        let total_weight = inner.total_weight();
        if total_profit == 0 {
            return Err(KnapsackError::ZeroTotalProfit);
        }
        if total_weight == 0 {
            return Err(KnapsackError::ZeroTotalWeight);
        }
        Ok(NormalizedInstance {
            inner,
            total_profit,
            total_weight,
        })
    }

    /// The underlying raw instance.
    #[inline]
    pub fn as_instance(&self) -> &Instance {
        &self.inner
    }

    /// Number of items `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Returns `true` if the instance has no items (never true after
    /// construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Total profit `P` in raw units.
    #[inline]
    pub fn total_profit(&self) -> u64 {
        self.total_profit
    }

    /// Total weight `W` in raw units.
    #[inline]
    pub fn total_weight(&self) -> u64 {
        self.total_weight
    }

    /// The item with the given id.
    #[inline]
    pub fn item(&self, id: ItemId) -> Item {
        self.inner.item(id)
    }

    /// Normalized profit `p̂ᵢ = pᵢ / P`, exact.
    #[inline]
    pub fn nprofit(&self, id: ItemId) -> Rat {
        Rat::new(
            self.inner.item(id).profit as u128,
            self.total_profit as u128,
        )
    }

    /// Normalized weight `ŵᵢ = wᵢ / W`, exact.
    #[inline]
    pub fn nweight(&self, id: ItemId) -> Rat {
        Rat::new(
            self.inner.item(id).weight as u128,
            self.total_weight as u128,
        )
    }

    /// Normalized capacity `K̂ = K / W`, exact.
    #[inline]
    pub fn ncapacity(&self) -> Rat {
        Rat::new(self.inner.capacity() as u128, self.total_weight as u128)
    }

    /// Exact normalized efficiency `p̂ᵢ / ŵᵢ`.
    pub fn efficiency(&self, id: ItemId) -> Efficiency {
        let item = self.inner.item(id);
        self.efficiency_of(item)
    }

    /// The normalization constants, detached from the item list.
    #[inline]
    pub fn norms(&self) -> Norms {
        Norms {
            total_profit: self.total_profit,
            total_weight: self.total_weight,
        }
    }

    /// Exact normalized efficiency of an arbitrary item under this
    /// instance's normalization constants.
    pub fn efficiency_of(&self, item: Item) -> Efficiency {
        self.norms().efficiency_of(item)
    }

    /// Finite efficiency as a [`Rat`], or `None` when infinite.
    pub fn efficiency_rat(&self, id: ItemId) -> Option<Rat> {
        match self.efficiency(id) {
            Efficiency::Finite(rat) => Some(rat),
            Efficiency::Infinite => None,
        }
    }

    /// [`Norms::tie_broken_efficiency_key`] for an item of this instance.
    pub fn tie_broken_efficiency_key(&self, id: ItemId) -> u64 {
        self.norms().tie_broken_efficiency_key(id, self.item(id))
    }

    /// Monotone `u64` fixed-point encoding of the normalized efficiency:
    /// `⌊(pᵢ · W · 2³²) / (wᵢ · P)⌋`, saturating at `u64::MAX` (which also
    /// encodes infinite efficiencies).
    ///
    /// The map is monotone in the exact efficiency, so reproducible
    /// quantiles computed over keys translate to thresholds over
    /// efficiencies. Distinct efficiencies closer than `2⁻³²` may share a
    /// key; this only coarsens the quantile grid and affects neither
    /// consistency nor feasibility.
    pub fn efficiency_key(&self, id: ItemId) -> u64 {
        self.efficiency_key_of(self.inner.item(id))
    }

    /// [`NormalizedInstance::efficiency_key`] for an arbitrary item.
    pub fn efficiency_key_of(&self, item: Item) -> u64 {
        self.norms().efficiency_key_of(item)
    }

    /// Compares an item's exact efficiency against a fixed-point key
    /// threshold: returns the ordering of `p̂ᵢ/ŵᵢ` versus `key / 2³²`.
    pub fn cmp_efficiency_to_key(&self, item: Item, key: u64) -> Ordering {
        self.norms().cmp_efficiency_to_key(item, key)
    }
}

impl fmt::Display for NormalizedInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "NormalizedInstance(n={}, K={}, P={}, W={})",
            self.inner.len(),
            self.inner.capacity(),
            self.total_profit,
            self.total_weight
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple() -> NormalizedInstance {
        let instance = Instance::from_pairs([(3, 1), (1, 3), (4, 4)], 5).unwrap();
        NormalizedInstance::new(instance).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert_eq!(
            Instance::new(vec![], 5).unwrap_err(),
            KnapsackError::EmptyInstance
        );
        assert_eq!(
            Instance::from_pairs([(MAX_UNIT + 1, 1)], 5).unwrap_err(),
            KnapsackError::UnitTooLarge { index: 0 }
        );
        assert_eq!(
            NormalizedInstance::new(Instance::from_pairs([(0, 1)], 5).unwrap()).unwrap_err(),
            KnapsackError::ZeroTotalProfit
        );
        assert_eq!(
            NormalizedInstance::new(Instance::from_pairs([(1, 0)], 5).unwrap()).unwrap_err(),
            KnapsackError::ZeroTotalWeight
        );
    }

    #[test]
    fn totals() {
        let norm = simple();
        assert_eq!(norm.total_profit(), 8);
        assert_eq!(norm.total_weight(), 8);
    }

    #[test]
    fn normalized_views_are_exact() {
        let norm = simple();
        assert_eq!(norm.nprofit(ItemId(0)), Rat::new(3, 8));
        assert_eq!(norm.nweight(ItemId(1)), Rat::new(3, 8));
        assert_eq!(norm.ncapacity(), Rat::new(5, 8));
        // efficiency of item 2: (4/8)/(4/8) = 1.
        assert_eq!(norm.efficiency_rat(ItemId(2)), Some(Rat::one()));
    }

    #[test]
    fn zero_weight_items_are_infinite_efficiency() {
        let instance = Instance::from_pairs([(3, 0), (1, 4)], 4).unwrap();
        let norm = NormalizedInstance::new(instance).unwrap();
        assert_eq!(norm.efficiency(ItemId(0)), Efficiency::Infinite);
        assert_eq!(norm.efficiency_key(ItemId(0)), u64::MAX);
    }

    #[test]
    fn zero_profit_zero_weight_is_zero_efficiency() {
        let instance = Instance::from_pairs([(0, 0), (1, 4)], 4).unwrap();
        let norm = NormalizedInstance::new(instance).unwrap();
        assert_eq!(norm.efficiency(ItemId(0)), Efficiency::Finite(Rat::zero()));
        assert_eq!(norm.efficiency_key(ItemId(0)), 0);
    }

    #[test]
    fn efficiency_key_is_monotone() {
        let norm = simple();
        let mut ids: Vec<ItemId> = (0..norm.len()).map(ItemId).collect();
        ids.sort_by_key(|&a| norm.efficiency(a));
        let keys: Vec<u64> = ids.iter().map(|&id| norm.efficiency_key(id)).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn efficiency_key_of_unit_ratio() {
        // p̂/ŵ = 1 → key = 2^32 exactly.
        let norm = simple();
        assert_eq!(norm.efficiency_key(ItemId(2)), 1u64 << 32);
    }

    #[test]
    fn cmp_efficiency_to_key_agrees_with_key_order() {
        let norm = simple();
        for (id, item) in norm.as_instance().clone().iter() {
            let key = norm.efficiency_key(id);
            // The exact efficiency is ≥ its floor key and < key + 1.
            assert_ne!(norm.cmp_efficiency_to_key(item, key), Ordering::Less);
            if key < u64::MAX {
                assert_eq!(
                    norm.cmp_efficiency_to_key(item, key + 1),
                    Ordering::Less,
                    "exact efficiency must be below the next key for {id}"
                );
            }
        }
    }

    #[test]
    fn display_impls() {
        let norm = simple();
        assert!(norm.to_string().contains("n=3"));
        assert!(norm.as_instance().to_string().contains("K=5"));
        assert_eq!(Efficiency::Infinite.to_string(), "inf");
    }

    #[test]
    fn fits_checks_capacity() {
        let instance = Instance::from_pairs([(1, 10), (1, 2)], 5).unwrap();
        assert!(!instance.fits(ItemId(0)));
        assert!(instance.fits(ItemId(1)));
    }
}
