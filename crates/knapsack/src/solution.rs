use crate::{Instance, ItemId};
use std::fmt;

/// A subset of an instance's items, stored as a bitset.
///
/// `Selection` is the output object of every solver and of the
/// full-solution materialization (`MAPPING-GREEDY`): answering an LCA
/// query "is item `i` in the solution?" for every `i` yields a `Selection`.
///
/// ```
/// use lcakp_knapsack::{ItemId, Selection};
/// let mut sel = Selection::new(4);
/// sel.insert(ItemId(1));
/// sel.insert(ItemId(3));
/// assert!(sel.contains(ItemId(1)));
/// assert_eq!(sel.count(), 2);
/// assert_eq!(sel.ones().collect::<Vec<_>>(), vec![ItemId(1), ItemId(3)]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Selection {
    bits: Vec<u64>,
    len: usize,
}

impl Selection {
    /// Creates an empty selection over `len` items.
    pub fn new(len: usize) -> Self {
        Selection {
            bits: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Creates a selection over `len` items from an iterator of ids.
    ///
    /// # Panics
    ///
    /// Panics if any id is `≥ len`.
    pub fn from_ids<I>(len: usize, ids: I) -> Self
    where
        I: IntoIterator<Item = ItemId>,
    {
        let mut selection = Selection::new(len);
        for id in ids {
            selection.insert(id);
        }
        selection
    }

    /// Number of items the selection ranges over (not the number selected).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the selection ranges over zero items.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Adds an item. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `id.index() ≥ self.len()`.
    #[inline]
    pub fn insert(&mut self, id: ItemId) {
        assert!(id.index() < self.len, "selection index out of range");
        self.bits[id.index() / 64] |= 1u64 << (id.index() % 64);
    }

    /// Removes an item. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `id.index() ≥ self.len()`.
    #[inline]
    pub fn remove(&mut self, id: ItemId) {
        assert!(id.index() < self.len, "selection index out of range");
        self.bits[id.index() / 64] &= !(1u64 << (id.index() % 64));
    }

    /// Returns `true` if the item is selected.
    ///
    /// # Panics
    ///
    /// Panics if `id.index() ≥ self.len()`.
    #[inline]
    pub fn contains(&self, id: ItemId) -> bool {
        assert!(id.index() < self.len, "selection index out of range");
        (self.bits[id.index() / 64] >> (id.index() % 64)) & 1 == 1
    }

    /// Number of selected items.
    pub fn count(&self) -> usize {
        self.bits
            .iter()
            .map(|word| word.count_ones() as usize)
            .sum()
    }

    /// Iterator over selected ids in increasing order.
    pub fn ones(&self) -> impl Iterator<Item = ItemId> + '_ {
        self.bits
            .iter()
            .enumerate()
            .flat_map(|(word_index, &word)| {
                let mut remaining = word;
                std::iter::from_fn(move || {
                    if remaining == 0 {
                        None
                    } else {
                        let bit = remaining.trailing_zeros() as usize;
                        remaining &= remaining - 1;
                        Some(ItemId(word_index * 64 + bit))
                    }
                })
            })
    }

    /// Total profit of the selected items in `instance`.
    ///
    /// # Panics
    ///
    /// Panics if the selection's length differs from the instance's.
    pub fn value(&self, instance: &Instance) -> u64 {
        assert_eq!(
            self.len,
            instance.len(),
            "selection/instance length mismatch"
        );
        self.ones().map(|id| instance.item(id).profit).sum()
    }

    /// Total weight of the selected items in `instance`.
    ///
    /// # Panics
    ///
    /// Panics if the selection's length differs from the instance's.
    pub fn weight(&self, instance: &Instance) -> u64 {
        assert_eq!(
            self.len,
            instance.len(),
            "selection/instance length mismatch"
        );
        self.ones().map(|id| instance.item(id).weight).sum()
    }

    /// Returns `true` if the selected items fit within the capacity.
    pub fn is_feasible(&self, instance: &Instance) -> bool {
        self.weight(instance) <= instance.capacity()
    }

    /// Returns `true` if the selection is feasible and no unselected item
    /// can be added without violating the capacity (the "maximal feasible"
    /// notion of Theorem 3.4).
    pub fn is_maximal(&self, instance: &Instance) -> bool {
        let weight = self.weight(instance);
        if weight > instance.capacity() {
            return false;
        }
        let slack = instance.capacity() - weight;
        instance
            .iter()
            .all(|(id, item)| self.contains(id) || item.weight > slack)
    }

    /// Produces a full audit of the selection against an instance.
    pub fn audit(&self, instance: &Instance) -> SolutionAudit {
        let value = self.value(instance);
        let weight = self.weight(instance);
        SolutionAudit {
            value,
            weight,
            feasible: weight <= instance.capacity(),
            maximal: self.is_maximal(instance),
            selected: self.count(),
        }
    }
}

impl FromIterator<ItemId> for Selection {
    /// Builds a selection sized to the largest id seen (plus one).
    fn from_iter<I: IntoIterator<Item = ItemId>>(iter: I) -> Self {
        let ids: Vec<ItemId> = iter.into_iter().collect();
        let len = ids.iter().map(|id| id.index() + 1).max().unwrap_or(0);
        Selection::from_ids(len, ids)
    }
}

impl Extend<ItemId> for Selection {
    fn extend<I: IntoIterator<Item = ItemId>>(&mut self, iter: I) {
        for id in iter {
            self.insert(id);
        }
    }
}

impl fmt::Display for Selection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (position, id) in self.ones().enumerate() {
            if position > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", id.index())?;
        }
        write!(f, "}}")
    }
}

/// Summary statistics of a [`Selection`] measured against an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolutionAudit {
    /// Total profit.
    pub value: u64,
    /// Total weight.
    pub weight: u64,
    /// Whether total weight ≤ capacity.
    pub feasible: bool,
    /// Whether the selection is maximal feasible.
    pub maximal: bool,
    /// Number of selected items.
    pub selected: usize,
}

impl fmt::Display for SolutionAudit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "value={} weight={} feasible={} maximal={} selected={}",
            self.value, self.weight, self.feasible, self.maximal, self.selected
        )
    }
}

/// The result of an (exact or approximate) solver: the achieved value and
/// the selection realizing it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolveOutcome {
    /// Total profit of `selection`.
    pub value: u64,
    /// The chosen items.
    pub selection: Selection,
}

impl SolveOutcome {
    /// Builds an outcome from a selection, computing its value.
    pub fn from_selection(instance: &Instance, selection: Selection) -> Self {
        let value = selection.value(instance);
        SolveOutcome { value, selection }
    }

    /// The empty outcome over an instance.
    pub fn empty(instance: &Instance) -> Self {
        SolveOutcome {
            value: 0,
            selection: Selection::new(instance.len()),
        }
    }
}

impl fmt::Display for SolveOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "value={} selection={}", self.value, self.selection)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instance() -> Instance {
        Instance::from_pairs([(10, 5), (7, 3), (2, 2), (1, 1)], 6).unwrap()
    }

    #[test]
    fn insert_remove_contains() {
        let mut sel = Selection::new(130);
        sel.insert(ItemId(0));
        sel.insert(ItemId(64));
        sel.insert(ItemId(129));
        assert!(sel.contains(ItemId(0)));
        assert!(sel.contains(ItemId(64)));
        assert!(sel.contains(ItemId(129)));
        assert!(!sel.contains(ItemId(1)));
        sel.remove(ItemId(64));
        assert!(!sel.contains(ItemId(64)));
        assert_eq!(sel.count(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let sel = Selection::new(4);
        let _ = sel.contains(ItemId(4));
    }

    #[test]
    fn ones_iterates_in_order() {
        let sel = Selection::from_ids(200, [ItemId(199), ItemId(0), ItemId(63), ItemId(64)]);
        let ids: Vec<usize> = sel.ones().map(ItemId::index).collect();
        assert_eq!(ids, vec![0, 63, 64, 199]);
    }

    #[test]
    fn value_weight_feasibility() {
        let inst = instance();
        let sel = Selection::from_ids(4, [ItemId(1), ItemId(2)]);
        assert_eq!(sel.value(&inst), 9);
        assert_eq!(sel.weight(&inst), 5);
        assert!(sel.is_feasible(&inst));
        let sel = Selection::from_ids(4, [ItemId(0), ItemId(1)]);
        assert!(!sel.is_feasible(&inst));
    }

    #[test]
    fn maximality() {
        let inst = instance();
        // {0, 3}: weight 6, no slack → maximal.
        let sel = Selection::from_ids(4, [ItemId(0), ItemId(3)]);
        assert!(sel.is_maximal(&inst));
        // {0}: weight 5, slack 1, item 3 (weight 1) still fits → not maximal.
        let sel = Selection::from_ids(4, [ItemId(0)]);
        assert!(!sel.is_maximal(&inst));
        // Infeasible selections are never maximal.
        let sel = Selection::from_ids(4, [ItemId(0), ItemId(1)]);
        assert!(!sel.is_maximal(&inst));
    }

    #[test]
    fn audit_summarizes() {
        let inst = instance();
        let sel = Selection::from_ids(4, [ItemId(1), ItemId(2), ItemId(3)]);
        let audit = sel.audit(&inst);
        assert_eq!(audit.value, 10);
        assert_eq!(audit.weight, 6);
        assert!(audit.feasible);
        assert!(audit.maximal);
        assert_eq!(audit.selected, 3);
        assert!(audit.to_string().contains("value=10"));
    }

    #[test]
    fn from_iterator_sizes_to_max_id() {
        let sel: Selection = [ItemId(2), ItemId(5)].into_iter().collect();
        assert_eq!(sel.len(), 6);
        assert!(sel.contains(ItemId(5)));
    }

    #[test]
    fn extend_adds_items() {
        let mut sel = Selection::new(8);
        sel.extend([ItemId(1), ItemId(7)]);
        assert_eq!(sel.count(), 2);
    }

    #[test]
    fn display_formats() {
        let sel = Selection::from_ids(5, [ItemId(1), ItemId(3)]);
        assert_eq!(sel.to_string(), "{1, 3}");
        assert_eq!(Selection::new(3).to_string(), "{}");
    }

    #[test]
    fn outcome_constructors() {
        let inst = instance();
        let outcome = SolveOutcome::from_selection(&inst, Selection::from_ids(4, [ItemId(0)]));
        assert_eq!(outcome.value, 10);
        assert_eq!(SolveOutcome::empty(&inst).value, 0);
    }
}
