use std::fmt;

/// Identifier of an item inside an [`crate::Instance`].
///
/// The LCA model (Definition 2.2 of the paper) addresses items by index
/// `i ∈ [n]`; `ItemId` is the typed form of that index. It is `0`-based.
///
/// ```
/// use lcakp_knapsack::ItemId;
/// let id = ItemId(3);
/// assert_eq!(id.index(), 3);
/// assert_eq!(format!("{id}"), "item#3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ItemId(pub usize);

impl ItemId {
    /// Returns the underlying `0`-based index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "item#{}", self.0)
    }
}

impl From<usize> for ItemId {
    fn from(index: usize) -> Self {
        ItemId(index)
    }
}

/// A knapsack item: a profit `p ≥ 0` and a weight `w ≥ 0`, both stored as
/// exact unsigned integers (the "fixed-point" units of the instance).
///
/// The paper works with instances whose total profit is normalized to 1 and
/// whose weights are integers at most the capacity `K`; storing raw integer
/// units and normalizing *exactly* at the [`crate::NormalizedInstance`]
/// level keeps every comparison deterministic.
///
/// ```
/// use lcakp_knapsack::Item;
/// let item = Item::new(10, 4);
/// assert_eq!(item.profit, 10);
/// assert_eq!(item.weight, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Item {
    /// Profit (value) of the item, in instance units.
    pub profit: u64,
    /// Weight of the item, in instance units.
    pub weight: u64,
}

impl Item {
    /// Creates an item from a profit and a weight.
    #[inline]
    pub fn new(profit: u64, weight: u64) -> Self {
        Item { profit, weight }
    }

    /// Returns `true` if the item contributes no profit and no weight.
    #[inline]
    pub fn is_null(self) -> bool {
        self.profit == 0 && self.weight == 0
    }
}

impl fmt::Display for Item {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(p={}, w={})", self.profit, self.weight)
    }
}

impl From<(u64, u64)> for Item {
    fn from((profit, weight): (u64, u64)) -> Self {
        Item::new(profit, weight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_id_roundtrip() {
        let id: ItemId = 7usize.into();
        assert_eq!(id.index(), 7);
    }

    #[test]
    fn item_from_tuple() {
        let item: Item = (3, 4).into();
        assert_eq!(item, Item::new(3, 4));
    }

    #[test]
    fn null_item() {
        assert!(Item::new(0, 0).is_null());
        assert!(!Item::new(1, 0).is_null());
        assert!(!Item::new(0, 1).is_null());
    }

    #[test]
    fn item_ordering_is_by_profit_then_weight() {
        assert!(Item::new(1, 9) < Item::new(2, 0));
        assert!(Item::new(2, 1) < Item::new(2, 2));
    }
}
