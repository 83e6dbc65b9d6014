//! Greedy algorithms for Knapsack.
//!
//! The paper (Section 1.2) recalls that the greedy algorithm for
//! *Fractional* Knapsack — sort items by non-increasing efficiency
//! `p/w`, take a prefix — can be modified into a 1/2-approximation for
//! 0/1 Knapsack by taking the better of the greedy prefix and the first
//! item the prefix could not fully include ([WS11, Exercise 3.1]).
//! `CONVERT-GREEDY` (Algorithm 3 of the paper) is exactly this algorithm
//! run on the reduced instance Ĩ, so the canonical efficiency ordering
//! defined here ([`cmp_efficiency_desc`]) is shared by the whole workspace:
//! identical inputs must produce identical orders for the LCA to be
//! consistent.

use crate::rat::cmp_products;
use crate::{Instance, Item, ItemId, Selection, SolveOutcome};
use std::cmp::Ordering;

/// Canonical "greedy" order on items: by efficiency `p/w` descending, with
/// deterministic tie-breaking (higher profit first, then lower weight, then
/// nothing — callers break remaining ties by id).
///
/// Zero-weight items with positive profit have infinite efficiency and sort
/// first; zero-profit zero-weight items sort last among zero-profit items.
/// The comparison is exact (128-bit cross multiplication), so the order is
/// identical across runs and platforms — a prerequisite for LCA
/// consistency (Lemma 4.9).
pub fn cmp_efficiency_desc(a: Item, b: Item) -> Ordering {
    let eff = match (a.weight, b.weight) {
        (0, 0) => (a.profit > 0).cmp(&(b.profit > 0)).reverse(),
        (0, _) => {
            if a.profit > 0 {
                Ordering::Less // a is infinite: sorts first
            } else {
                Ordering::Greater // a has efficiency 0
            }
        }
        (_, 0) => {
            if b.profit > 0 {
                Ordering::Greater
            } else {
                Ordering::Less
            }
        }
        // a.p/a.w vs b.p/b.w  ⇔  a.p·b.w vs b.p·a.w, descending.
        (_, _) => cmp_products(
            b.profit as u128,
            a.weight as u128,
            a.profit as u128,
            b.weight as u128,
        ),
    };
    eff.then_with(|| b.profit.cmp(&a.profit))
        .then_with(|| a.weight.cmp(&b.weight))
}

/// Item ids sorted by the canonical greedy order (ties broken by id
/// ascending).
///
/// The id tie-break makes the order total, so an unstable sort gives the
/// stable sort's result without its merge buffer of `n/2` ids.
pub fn efficiency_order(instance: &Instance) -> Vec<ItemId> {
    let mut ids: Vec<ItemId> = (0..instance.len()).map(ItemId).collect();
    ids.sort_unstable_by(|&a, &b| {
        cmp_efficiency_desc(instance.item(a), instance.item(b)).then_with(|| a.cmp(&b))
    });
    ids
}

/// Result of a greedy pass: the chosen prefix and the first item that did
/// not fully fit (the paper's "efficiency cut-off" item), if any.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GreedyRun {
    /// The items taken (a prefix of the canonical order).
    pub outcome: SolveOutcome,
    /// The first item of the order that could not be fully included, i.e.
    /// the item whose efficiency is the greedy cut-off. `None` when every
    /// item fits.
    pub cutoff: Option<ItemId>,
}

/// Prefix greedy: walk the canonical order, stop at the first item that
/// does not fit (this is the greedy of the paper's Algorithm 3, line 2:
/// the largest `j` with `Σ_{i≤j} w_i ≤ K`).
///
/// ```
/// use lcakp_knapsack::{Instance, ItemId};
/// use lcakp_knapsack::solvers::greedy_prefix;
/// # fn main() -> Result<(), lcakp_knapsack::KnapsackError> {
/// let instance = Instance::from_pairs([(6, 2), (5, 2), (9, 2)], 4)?;
/// let run = greedy_prefix(&instance);
/// // Order by efficiency: item 2 (4.5), item 0 (3), item 1 (2.5).
/// assert_eq!(run.outcome.value, 15);
/// assert_eq!(run.cutoff, Some(ItemId(1)));
/// # Ok(())
/// # }
/// ```
pub fn greedy_prefix(instance: &Instance) -> GreedyRun {
    let order = efficiency_order(instance);
    let mut selection = Selection::new(instance.len());
    let mut weight: u64 = 0;
    let mut value: u64 = 0;
    let mut cutoff = None;
    for &id in &order {
        let item = instance.item(id);
        if weight + item.weight <= instance.capacity() {
            weight += item.weight;
            value += item.profit;
            selection.insert(id);
        } else {
            cutoff = Some(id);
            break;
        }
    }
    GreedyRun {
        outcome: SolveOutcome { value, selection },
        cutoff,
    }
}

/// Skip greedy: walk the canonical order, skipping items that do not fit
/// and continuing (classic heuristic variant; dominates prefix greedy).
pub fn greedy_skip(instance: &Instance) -> SolveOutcome {
    let order = efficiency_order(instance);
    let mut selection = Selection::new(instance.len());
    let mut weight: u64 = 0;
    let mut value: u64 = 0;
    for &id in &order {
        let item = instance.item(id);
        if weight + item.weight <= instance.capacity() {
            weight += item.weight;
            value += item.profit;
            selection.insert(id);
        }
    }
    SolveOutcome { value, selection }
}

/// Modified greedy 1/2-approximation ([WS11, Exercise 3.1]): the better of
/// the greedy prefix (over items that individually fit) and the singleton
/// consisting of the first item that the prefix could not include.
///
/// Guarantees `value ≥ OPT / 2` (validated against exact solvers in the
/// test suite and experiment E10).
pub fn modified_greedy(instance: &Instance) -> SolveOutcome {
    // Restrict to items that individually fit; others can never be chosen,
    // and the 1/2-approximation argument requires the cut-off item to be a
    // feasible singleton.
    let order: Vec<ItemId> = efficiency_order(instance)
        .into_iter()
        .filter(|&id| instance.fits(id))
        .collect();
    let mut selection = Selection::new(instance.len());
    let mut weight: u64 = 0;
    let mut value: u64 = 0;
    let mut cutoff = None;
    for &id in &order {
        let item = instance.item(id);
        if weight + item.weight <= instance.capacity() {
            weight += item.weight;
            value += item.profit;
            selection.insert(id);
        } else {
            cutoff = Some(id);
            break;
        }
    }
    if let Some(id) = cutoff {
        let single = instance.item(id).profit;
        if single > value {
            let mut singleton = Selection::new(instance.len());
            singleton.insert(id);
            return SolveOutcome {
                value: single,
                selection: singleton,
            };
        }
    }
    SolveOutcome { value, selection }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MAX_UNIT;
    use proptest::prelude::*;

    proptest! {
        /// The unstable sort gives the stable sort's order. Subset-sum
        /// items (profit = weight) tie on every efficiency; small values
        /// repeat whole items, which then differ only by id; wide values
        /// are random instances.
        #[test]
        fn unstable_order_equals_stable_order(
            raw in proptest::collection::vec((0u64..=MAX_UNIT, 0u64..=MAX_UNIT), 1..200),
            shape in 0u8..3,
        ) {
            let pairs = raw.into_iter().map(|(p, w)| match shape {
                0 => (w % 1000, w % 1000),
                1 => (p % 6, w % 6),
                _ => (p, w),
            });
            let instance = Instance::from_pairs(pairs, MAX_UNIT).unwrap();
            let mut stable: Vec<ItemId> = (0..instance.len()).map(ItemId).collect();
            stable.sort_by(|&a, &b| {
                cmp_efficiency_desc(instance.item(a), instance.item(b)).then_with(|| a.cmp(&b))
            });
            prop_assert_eq!(efficiency_order(&instance), stable);
        }
    }

    #[test]
    fn canonical_order_handles_zero_weights() {
        let instance = Instance::from_pairs([(0, 0), (5, 0), (10, 2), (1, 10)], 10).unwrap();
        let order = efficiency_order(&instance);
        // Infinite efficiency first, then 5, then 0.1, then the null item.
        assert_eq!(order, vec![ItemId(1), ItemId(2), ItemId(3), ItemId(0)]);
    }

    #[test]
    fn order_tie_breaks_by_profit_then_weight_then_id() {
        // Items 0 and 1 have efficiency 2 but different profits.
        let instance = Instance::from_pairs([(2, 1), (4, 2), (4, 2)], 10).unwrap();
        let order = efficiency_order(&instance);
        assert_eq!(order, vec![ItemId(1), ItemId(2), ItemId(0)]);
    }

    #[test]
    fn prefix_stops_at_first_non_fitting() {
        let instance = Instance::from_pairs([(10, 4), (9, 4), (8, 4)], 8).unwrap();
        let run = greedy_prefix(&instance);
        assert_eq!(run.outcome.value, 19);
        assert_eq!(run.cutoff, Some(ItemId(2)));
    }

    #[test]
    fn prefix_without_cutoff() {
        let instance = Instance::from_pairs([(1, 1), (1, 1)], 5).unwrap();
        let run = greedy_prefix(&instance);
        assert_eq!(run.outcome.value, 2);
        assert_eq!(run.cutoff, None);
    }

    #[test]
    fn skip_greedy_dominates_prefix() {
        // Prefix stops at the big item; skip greedy picks up the small one.
        let instance = Instance::from_pairs([(10, 2), (50, 9), (3, 1)], 3).unwrap();
        let prefix = greedy_prefix(&instance);
        let skip = greedy_skip(&instance);
        assert!(skip.value >= prefix.outcome.value);
        assert_eq!(skip.value, 13);
    }

    #[test]
    fn modified_greedy_takes_singleton_when_better() {
        // Greedy prefix takes the efficient small item (value 2); the
        // cut-off item alone is worth 100.
        let instance = Instance::from_pairs([(2, 1), (100, 99)], 99).unwrap();
        let outcome = modified_greedy(&instance);
        assert_eq!(outcome.value, 100);
        assert!(outcome.selection.contains(ItemId(1)));
    }

    #[test]
    fn modified_greedy_ignores_oversized_items() {
        let instance = Instance::from_pairs([(1000, 50), (3, 2), (2, 2)], 4).unwrap();
        let outcome = modified_greedy(&instance);
        assert_eq!(outcome.value, 5);
    }

    #[test]
    fn modified_greedy_is_feasible() {
        let instance = Instance::from_pairs([(7, 3), (9, 5), (2, 4)], 7).unwrap();
        let outcome = modified_greedy(&instance);
        assert!(outcome.selection.is_feasible(&instance));
        assert_eq!(outcome.value, outcome.selection.value(&instance));
    }
}
