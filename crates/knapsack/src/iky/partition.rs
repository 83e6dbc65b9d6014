//! The large / small / garbage partition of Section 4:
//!
//! * `L(I)` — items with normalized profit `p̂ > ε²`;
//! * `S(I)` — items with `p̂ ≤ ε²` and efficiency `p̂/ŵ ≥ ε²`;
//! * `G(I)` — items with `p̂ ≤ ε²` and efficiency `< ε²`.
//!
//! All comparisons are exact rationals; the partition is a deterministic
//! function of the instance and ε.

use crate::rat::Epsilon;
use crate::{Efficiency, Item, ItemId, NormalizedInstance};

/// The class of an item in the IKY partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ItemClass {
    /// Normalized profit exceeds ε².
    Large,
    /// Profit ≤ ε² but efficiency ≥ ε².
    Small,
    /// Profit ≤ ε² and efficiency < ε².
    Garbage,
}

impl std::fmt::Display for ItemClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ItemClass::Large => write!(f, "large"),
            ItemClass::Small => write!(f, "small"),
            ItemClass::Garbage => write!(f, "garbage"),
        }
    }
}

/// Classifies a single item (exact arithmetic).
///
/// Zero-weight positive-profit items have infinite efficiency, hence are
/// `Small` whenever their profit is ≤ ε². Zero-profit items have
/// efficiency 0 < ε² and are always `Garbage`.
///
/// ```
/// use lcakp_knapsack::{Instance, Item, NormalizedInstance};
/// use lcakp_knapsack::iky::{classify_item, Epsilon, ItemClass};
/// # fn main() -> Result<(), lcakp_knapsack::KnapsackError> {
/// let instance = Instance::from_pairs([(50, 1), (1, 1), (1, 100)], 10)?;
/// let norm = NormalizedInstance::new(instance)?;
/// let eps = Epsilon::new(1, 4)?; // ε² = 1/16; total profit 52.
/// assert_eq!(classify_item(&norm, eps, Item::new(50, 1)), ItemClass::Large);
/// assert_eq!(classify_item(&norm, eps, Item::new(1, 1)), ItemClass::Small);
/// assert_eq!(classify_item(&norm, eps, Item::new(1, 100)), ItemClass::Garbage);
/// # Ok(())
/// # }
/// ```
pub fn classify_item(norm: &NormalizedInstance, eps: Epsilon, item: Item) -> ItemClass {
    if !SmallItemFilter::new(eps, norm.total_profit()).is_small(item.profit) {
        return ItemClass::Large;
    }
    match norm.efficiency_of(item) {
        Efficiency::Infinite => ItemClass::Small,
        Efficiency::Finite(eff) => {
            if eff >= eps.squared() {
                ItemClass::Small
            } else {
                ItemClass::Garbage
            }
        }
    }
}

/// The small-item test `p/P ≤ ε²` (Algorithm 2 lines 2, 7 and 20) for
/// total profit `P`, as the exact `u128` test `p · den² ≤ num² · P` for
/// ε = `num/den`; the workspace's one copy of it. Neither side overflows:
/// `p, P < 2⁶⁴` and `num, den < 2¹⁶`, so both products are below `2⁹⁶`.
/// It keeps `den²` and `num² · P`.
#[derive(Debug, Clone, Copy)]
pub struct SmallItemFilter {
    den_sq: u128,
    bound: u128,
}

impl SmallItemFilter {
    /// The test at ε for total profit `total_profit`.
    #[inline]
    pub fn new(eps: Epsilon, total_profit: u64) -> Self {
        let (num, den) = (u128::from(eps.num()), u128::from(eps.den()));
        SmallItemFilter {
            den_sq: den * den,
            bound: num * num * u128::from(total_profit),
        }
    }

    /// Whether an item of profit `profit` is small: `profit/P ≤ ε²`.
    #[inline]
    pub fn is_small(self, profit: u64) -> bool {
        u128::from(profit) * self.den_sq <= self.bound
    }
}

/// The full partition of an instance into `L(I)`, `S(I)`, `G(I)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    large: Vec<ItemId>,
    small: Vec<ItemId>,
    garbage: Vec<ItemId>,
}

impl Partition {
    /// Computes the partition by classifying every item.
    pub fn compute(norm: &NormalizedInstance, eps: Epsilon) -> Self {
        let mut large = Vec::new();
        let mut small = Vec::new();
        let mut garbage = Vec::new();
        for (id, item) in norm.as_instance().iter() {
            match classify_item(norm, eps, item) {
                ItemClass::Large => large.push(id),
                ItemClass::Small => small.push(id),
                ItemClass::Garbage => garbage.push(id),
            }
        }
        Partition {
            large,
            small,
            garbage,
        }
    }

    /// Ids of large items, in increasing order.
    pub fn large(&self) -> &[ItemId] {
        &self.large
    }

    /// Ids of small items, in increasing order.
    pub fn small(&self) -> &[ItemId] {
        &self.small
    }

    /// Ids of garbage items, in increasing order.
    pub fn garbage(&self) -> &[ItemId] {
        &self.garbage
    }

    /// Total raw profit of the large items.
    pub fn large_profit(&self, norm: &NormalizedInstance) -> u64 {
        self.large.iter().map(|&id| norm.item(id).profit).sum()
    }

    /// Total raw profit of the garbage items — bounded by ε² of the total,
    /// plus the (total-weight / capacity) slack, per the argument in
    /// Lemma 4.6.
    pub fn garbage_profit(&self, norm: &NormalizedInstance) -> u64 {
        self.garbage.iter().map(|&id| norm.item(id).profit).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Instance;

    fn norm(pairs: &[(u64, u64)], capacity: u64) -> NormalizedInstance {
        NormalizedInstance::new(Instance::from_pairs(pairs.iter().copied(), capacity).unwrap())
            .unwrap()
    }

    /// `SmallItemFilter` against `Rat`'s exact comparison `p/P ≤ ε²`.
    mod small_item_filter {
        use super::super::SmallItemFilter;
        use crate::rat::Epsilon;
        use crate::Rat;
        use proptest::prelude::*;

        fn agrees(eps: Epsilon, profit: u64, total: u64) -> Result<(), TestCaseError> {
            let exact = Rat::new(u128::from(profit), u128::from(total)) <= eps.squared();
            prop_assert_eq!(
                SmallItemFilter::new(eps, total).is_small(profit),
                exact,
                "ε = {}, p = {}, P = {}",
                eps,
                profit,
                total
            );
            Ok(())
        }

        /// ε = num/den over the whole range `Epsilon` admits: one case in
        /// four at `den = MAX_DEN`, and one in four each at `num = den`
        /// and `num = 1`.
        fn epsilon() -> impl Strategy<Value = Epsilon> {
            let max = Epsilon::MAX_DEN;
            (1..=max, 0u8..4, 0..=u64::MAX, 0u8..4).prop_map(move |(den, top, raw, end)| {
                let den = if top == 0 { max } else { den };
                let num = match end {
                    0 => den,
                    1 => 1,
                    _ => 1 + raw % den,
                };
                Epsilon::new(num, den).unwrap()
            })
        }

        /// Any `u64`, with `0` and `u64::MAX` one case in five each.
        fn edge_or_any() -> impl Strategy<Value = u64> {
            (0..=u64::MAX, 0u8..5).prop_map(|(value, pick)| match pick {
                0 => 0,
                1 => u64::MAX,
                _ => value,
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2048))]

            /// Random profits and totals, `0` and `u64::MAX` among them.
            #[test]
            fn agrees_with_rat_anywhere(
                eps in epsilon(),
                profit in edge_or_any(),
                total in edge_or_any(),
            ) {
                agrees(eps, profit, total.max(1))?;
            }

            /// `P = den² · m` puts the boundary at the integer profit
            /// `num² · m`, where `p · den² = num² · P` exactly; the test
            /// also runs one either side of it, and at the largest `m`
            /// whose total fits in 64 bits.
            #[test]
            fn agrees_with_rat_at_the_boundary(
                eps in epsilon(),
                raw in 0..=u64::MAX,
                largest in 0u8..4,
                offset in -1i64..=1,
            ) {
                let (num, den) = (eps.num(), eps.den());
                let max_m = u64::MAX / (den * den);
                let m = if largest == 0 { max_m } else { 1 + raw % max_m };
                let (total, boundary) = (den * den * m, num * num * m);
                agrees(eps, boundary.saturating_add_signed(offset), total)?;
            }
        }
    }

    #[test]
    fn partition_is_exhaustive_and_disjoint() {
        let norm = norm(&[(50, 1), (1, 1), (1, 100), (30, 5), (2, 3)], 10);
        let eps = Epsilon::new(1, 4).unwrap();
        let partition = Partition::compute(&norm, eps);
        let total = partition.large().len() + partition.small().len() + partition.garbage().len();
        assert_eq!(total, norm.len());
        let mut all: Vec<ItemId> = partition
            .large()
            .iter()
            .chain(partition.small())
            .chain(partition.garbage())
            .copied()
            .collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), norm.len());
    }

    #[test]
    fn boundary_profit_is_not_large() {
        // total profit 16, ε = 1/4 → ε² = 1/16 → raw threshold exactly 1.
        let norm = norm(&[(1, 1), (15, 15)], 16);
        let eps = Epsilon::new(1, 4).unwrap();
        // p̂ = 1/16 = ε² is NOT > ε² → not large; efficiency (1/16)/(1/16) = 1 ≥ ε² → small.
        assert_eq!(classify_item(&norm, eps, Item::new(1, 1)), ItemClass::Small);
        assert_eq!(
            classify_item(&norm, eps, Item::new(15, 15)),
            ItemClass::Large
        );
    }

    #[test]
    fn zero_profit_items_are_garbage() {
        let norm = norm(&[(0, 5), (10, 5)], 10);
        let eps = Epsilon::new(1, 2).unwrap();
        assert_eq!(
            classify_item(&norm, eps, Item::new(0, 5)),
            ItemClass::Garbage
        );
    }

    #[test]
    fn zero_weight_profit_items_are_small_or_large() {
        let norm = norm(&[(1, 0), (100, 10)], 10);
        let eps = Epsilon::new(1, 10).unwrap(); // ε² = 1/100; p̂ = 1/101 ≤ ε²
        assert_eq!(classify_item(&norm, eps, Item::new(1, 0)), ItemClass::Small);
        let eps = Epsilon::new(1, 2).unwrap();
        assert_eq!(
            classify_item(&norm, eps, Item::new(100, 0)),
            ItemClass::Large
        );
    }

    #[test]
    fn profit_accessors() {
        let norm = norm(&[(50, 1), (1, 1), (1, 100)], 10);
        let eps = Epsilon::new(1, 4).unwrap();
        let partition = Partition::compute(&norm, eps);
        assert_eq!(partition.large_profit(&norm), 50);
        assert_eq!(partition.garbage_profit(&norm), 1);
    }

    #[test]
    fn display_class() {
        assert_eq!(ItemClass::Large.to_string(), "large");
        assert_eq!(ItemClass::Small.to_string(), "small");
        assert_eq!(ItemClass::Garbage.to_string(), "garbage");
    }
}
