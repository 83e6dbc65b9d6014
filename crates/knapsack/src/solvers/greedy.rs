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
//!
//! Prefix greedy, modified greedy and the fractional relaxation
//! ([`super::fractional`]) need only the *critical item*: the first item
//! of the order that does not fit, and the weight and profit of the items
//! before it (Dantzig's bound). `critical_item` finds it in expected linear
//! time without ordering the instance, in scratch that does not grow with
//! `n`: a few rounds bucket the items around pivots drawn by a hash of
//! their ids, and a selection finishes inside the last small window. The
//! critical item is a property of the total order alone, so the result is
//! the sort-based walk's, bit for bit. Skip greedy and branch and bound
//! walk past the cut-off and keep the full [`efficiency_order`].

use crate::instance::splitmix64;
use crate::rat::cmp_products;
use crate::{Instance, Item, ItemId, Selection, SolveOutcome};
use std::cmp::Ordering;

/// Windows of at most this many items are selected among directly rather
/// than split by another pivot round.
pub(crate) const CRITICAL_TAIL: usize = 1 << 16;

/// Pivots a round draws from its window, in expectation.
const ROUND_PIVOTS: u64 = 128;

/// Pivots a round keeps at most, so that its scratch is fixed whatever the
/// hash draws.
const MAX_PIVOTS: usize = 4 * ROUND_PIVOTS as usize;

/// Slices of at most this many ids end the tail's selection with a sort.
const SORTED_TAIL: usize = 16;

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

/// An item with its id: what the canonical total order compares.
type Entry = (ItemId, Item);

/// The canonical order with the id tie-break: a total order on items.
fn cmp_entries((a, item_a): Entry, (b, item_b): Entry) -> Ordering {
    cmp_efficiency_desc(item_a, item_b).then_with(|| a.cmp(&b))
}

/// The items strictly between two bounds of the total order; a missing
/// bound is open.
#[derive(Debug, Clone, Copy)]
struct Window {
    lo: Option<Entry>,
    hi: Option<Entry>,
}

impl Window {
    fn holds(&self, entry: Entry) -> bool {
        self.lo
            .is_none_or(|lo| cmp_entries(lo, entry) == Ordering::Less)
            && self
                .hi
                .is_none_or(|hi| cmp_entries(entry, hi) == Ordering::Less)
    }
}

/// The kept items of one gap between consecutive pivots: their total
/// weight and profit as one item, and their count.
#[derive(Debug, Clone, Copy, Default)]
struct Bucket {
    total: Item,
    count: usize,
}

/// Adds `more` to the running total `sum` if the weight stays within
/// `capacity`, and says whether it did. Totals fit `u64`: an instance
/// holds at most 2²⁴ items of at most 2²⁰ units.
fn take(sum: &mut Item, more: Item, capacity: u64) -> bool {
    if sum.weight + more.weight > capacity {
        return false;
    }
    sum.weight += more.weight;
    sum.profit += more.profit;
    true
}

/// The greedy cut-off of the canonical order over the items a filter
/// keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Critical {
    /// Total weight and profit of the kept items before the cut-off (of
    /// every kept item when nothing is cut off).
    pub(crate) before: Item,
    /// The first kept item that does not fit on top of those before it;
    /// `None` when every kept item fits.
    pub(crate) cutoff: Option<ItemId>,
}

/// Finds the critical item among the items `keep` accepts, in expected
/// `O(n)` time and without ordering them: its scratch is at most `tail`
/// ids plus [`MAX_PIVOTS`] pivots and their buckets, whatever `n`.
///
/// The search narrows a window of the order that holds the critical item,
/// at first every kept item. A round draws about [`ROUND_PIVOTS`] pivots
/// from the window by a hash of the id and the round (no RNG), sorts them,
/// and in one pass sums the weight, profit and count of the window's items
/// between consecutive pivots. Walking the buckets and pivots in order
/// finds where the running weight passes the capacity: at a pivot, which
/// is the answer, or inside a bucket, which becomes the next window. A
/// window of at most `tail` items, or one no pivot landed in, is collected
/// and finished by selection ([`select_critical`]). Every window is a
/// contiguous range of the total order and every round shrinks it, so the
/// result does not depend on which pivots were drawn.
pub(crate) fn critical_item(
    instance: &Instance,
    keep: impl Fn(Item) -> bool,
    tail: usize,
) -> Critical {
    let capacity = instance.capacity();
    // The kept items before the window all fit, and the critical item
    // lies inside the window (past it only when the window is open above
    // and everything fits).
    let mut before = Item::default();
    let mut window = Window { lo: None, hi: None };
    let mut count = instance.items().iter().filter(|&&item| keep(item)).count();
    let mut pivots: Vec<Entry> = Vec::new();
    let mut buckets: Vec<Bucket> = Vec::new();
    let mut round: u64 = 0;
    while count > tail {
        let threshold = (u64::MAX / count as u64).saturating_mul(ROUND_PIVOTS);
        pivots.clear();
        pivots.reserve(MAX_PIVOTS);
        for entry @ (id, item) in instance.iter() {
            if pivots.len() < MAX_PIVOTS
                && splitmix64(round << 32 | id.index() as u64) < threshold
                && keep(item)
                && window.holds(entry)
            {
                pivots.push(entry);
            }
        }
        if pivots.is_empty() {
            break;
        }
        pivots.sort_unstable_by(|&a, &b| cmp_entries(a, b));
        buckets.clear();
        buckets.reserve(MAX_PIVOTS + 1);
        buckets.resize(pivots.len() + 1, Bucket::default());
        for entry @ (id, item) in instance.iter() {
            if !keep(item) || !window.holds(entry) {
                continue;
            }
            let index =
                pivots.partition_point(|&pivot| cmp_entries(pivot, entry) == Ordering::Less);
            if pivots.get(index).is_some_and(|&(pivot, _)| pivot == id) {
                continue;
            }
            let bucket = &mut buckets[index];
            bucket.total.weight += item.weight;
            bucket.total.profit += item.profit;
            bucket.count += 1;
        }
        let mut crossing = None;
        for (index, bucket) in buckets.iter().enumerate() {
            if !take(&mut before, bucket.total, capacity) {
                crossing = Some(index);
                break;
            }
            if let Some(&(id, item)) = pivots.get(index) {
                if !take(&mut before, item, capacity) {
                    return Critical {
                        before,
                        cutoff: Some(id),
                    };
                }
            }
        }
        let Some(index) = crossing else {
            debug_assert!(window.hi.is_none(), "a bounded window holds the cut-off");
            return Critical {
                before,
                cutoff: None,
            };
        };
        window = Window {
            lo: index
                .checked_sub(1)
                .map(|below| pivots[below])
                .or(window.lo),
            hi: pivots.get(index).copied().or(window.hi),
        };
        count = buckets[index].count;
        round += 1;
    }
    // Ids fit `u32`: an instance holds at most `MAX_ITEMS` = 2²⁴ items.
    let mut ids: Vec<u32> = Vec::with_capacity(count);
    ids.extend(
        instance
            .iter()
            .filter(|&entry @ (_, item)| keep(item) && window.holds(entry))
            .map(|(id, _)| id.index() as u32),
    );
    select_critical(instance, &mut ids, before)
}

/// Finishes [`critical_item`] inside its last window: `ids` are the
/// window's kept items in any order, and `before` the total of the kept
/// items before it. Selects the middle id, sums the part before it, and
/// goes on in the half that holds the cut-off; a slice of at most
/// [`SORTED_TAIL`] ids is sorted and walked.
fn select_critical(instance: &Instance, ids: &mut [u32], mut before: Item) -> Critical {
    let capacity = instance.capacity();
    let entry = |id: u32| {
        let id = ItemId(id as usize);
        (id, instance.item(id))
    };
    let cmp = |&a: &u32, &b: &u32| cmp_entries(entry(a), entry(b));
    let mut rest = ids;
    while rest.len() > SORTED_TAIL {
        let half = rest.len() / 2;
        let (left, &mut middle, right) =
            std::mem::take(&mut rest).select_nth_unstable_by(half, cmp);
        let left_total = left.iter().fold(Item::default(), |sum, &id| {
            let item = entry(id).1;
            Item::new(sum.profit + item.profit, sum.weight + item.weight)
        });
        if !take(&mut before, left_total, capacity) {
            rest = left;
            continue;
        }
        let (id, item) = entry(middle);
        if !take(&mut before, item, capacity) {
            return Critical {
                before,
                cutoff: Some(id),
            };
        }
        rest = right;
    }
    rest.sort_unstable_by(cmp);
    let cutoff = rest
        .iter()
        .map(|&id| entry(id))
        .find(|&(_, item)| !take(&mut before, item, capacity))
        .map(|(id, _)| id);
    Critical { before, cutoff }
}

/// The kept items before `cutoff` (every kept item when it is `None`), by
/// one scan that compares each item with the cut-off.
fn prefix_selection(
    instance: &Instance,
    keep: impl Fn(Item) -> bool,
    cutoff: Option<ItemId>,
) -> Selection {
    let prefix = Window {
        lo: None,
        hi: cutoff.map(|id| (id, instance.item(id))),
    };
    let mut selection = Selection::new(instance.len());
    for entry @ (id, item) in instance.iter() {
        if keep(item) && prefix.holds(entry) {
            selection.insert(id);
        }
    }
    selection
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
/// Runs in expected `O(n)`: the stop is the critical item, and the prefix
/// is every item before it.
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
    greedy_prefix_within(instance, CRITICAL_TAIL)
}

/// [`greedy_prefix`] with a selection tail of `tail` ids.
pub(crate) fn greedy_prefix_within(instance: &Instance, tail: usize) -> GreedyRun {
    let every = |_: Item| true;
    let critical = critical_item(instance, every, tail);
    GreedyRun {
        outcome: SolveOutcome {
            value: critical.before.profit,
            selection: prefix_selection(instance, every, critical.cutoff),
        },
        cutoff: critical.cutoff,
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
/// test suite and experiment E10). Runs in expected `O(n)`, on the
/// critical item of the items that fit.
pub fn modified_greedy(instance: &Instance) -> SolveOutcome {
    modified_greedy_within(instance, CRITICAL_TAIL)
}

/// [`modified_greedy`] with a selection tail of `tail` ids.
pub(crate) fn modified_greedy_within(instance: &Instance, tail: usize) -> SolveOutcome {
    // Restrict to items that individually fit; others can never be chosen,
    // and the 1/2-approximation argument requires the cut-off item to be a
    // feasible singleton.
    let fits = |item: Item| item.weight <= instance.capacity();
    let critical = critical_item(instance, fits, tail);
    if let Some(id) = critical.cutoff {
        let single = instance.item(id).profit;
        if single > critical.before.profit {
            let mut singleton = Selection::new(instance.len());
            singleton.insert(id);
            return SolveOutcome {
                value: single,
                selection: singleton,
            };
        }
    }
    SolveOutcome {
        value: critical.before.profit,
        selection: prefix_selection(instance, fits, critical.cutoff),
    }
}

/// The sort-based prefix greedy, modified greedy and fractional optimum
/// the crate shipped with, kept verbatim as the reference the
/// critical-item search is pinned against.
#[cfg(test)]
mod reference {
    use super::{efficiency_order, GreedyRun};
    use crate::{Instance, ItemId, Rat, Selection, SolveOutcome};

    /// Prefix greedy over the full efficiency order.
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

    /// Modified greedy over the full efficiency order.
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

    /// Fractional optimum over the full efficiency order.
    pub fn fractional_optimum(instance: &Instance) -> Rat {
        let order = efficiency_order(instance);
        let mut whole_value: u128 = 0;
        let mut remaining: u128 = instance.capacity() as u128;
        for id in order {
            let item = instance.item(id);
            if item.weight as u128 <= remaining {
                remaining -= item.weight as u128;
                whole_value += item.profit as u128;
            } else {
                // Fractional part: p · remaining / w, exact.
                let num = whole_value * item.weight as u128 + item.profit as u128 * remaining;
                return Rat::new(num, item.weight as u128);
            }
        }
        Rat::from_int(whole_value)
    }
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

    /// An instance for the reference comparisons. `shape` picks
    /// subset-sum items (every positive efficiency ties), tiny repeated
    /// values that differ only by id, wide values with many zero profits
    /// and weights, or wide random values; `cap` picks a capacity of 0,
    /// W/3, W/2, W, W + 1, one below the heaviest item (so it alone does
    /// not fit), or `u64::MAX`.
    fn reference_instance(raw: Vec<(u64, u64)>, shape: u8, cap: u8) -> Instance {
        let pairs: Vec<(u64, u64)> = raw
            .into_iter()
            .map(|(p, w)| match shape {
                0 => (w % 1000, w % 1000),
                1 => (p % 4, w % 4),
                2 => (p * u64::from(p % 3 != 0), w * u64::from(w % 3 != 0)),
                _ => (p, w),
            })
            .collect();
        let total: u64 = pairs.iter().map(|&(_, w)| w).sum();
        let heaviest = pairs.iter().map(|&(_, w)| w).max().unwrap_or(0);
        let capacity = match cap {
            0 => 0,
            1 => total / 3,
            2 => total / 2,
            3 => total,
            4 => total + 1,
            5 => heaviest.saturating_sub(1),
            _ => u64::MAX,
        };
        Instance::from_pairs(pairs, capacity).unwrap()
    }

    /// Asserts that the critical-item solvers, at the given tail and at
    /// the shipped one, give the sort-based references' results.
    fn assert_equals_reference(instance: &Instance, tail: usize) {
        use crate::solvers::fractional::{fractional_optimum, fractional_optimum_within};
        let fractional = reference::fractional_optimum(instance);
        assert_eq!(fractional_optimum_within(instance, tail), fractional);
        assert_eq!(fractional_optimum(instance), fractional);
        let prefix = reference::greedy_prefix(instance);
        assert_eq!(greedy_prefix_within(instance, tail), prefix);
        assert_eq!(greedy_prefix(instance), prefix);
        let modified = reference::modified_greedy(instance);
        assert_eq!(modified_greedy_within(instance, tail), modified);
        assert_eq!(modified_greedy(instance), modified);
    }

    proptest! {
        /// The critical item gives the sort-based walk's `Rat`, prefix
        /// run (value, selection and cut-off) and modified-greedy outcome.
        /// A tail of 8–16 ids sends these sizes through the pivot rounds.
        #[test]
        fn critical_item_solvers_equal_the_sort(
            raw in proptest::collection::vec((0u64..=MAX_UNIT, 0u64..=MAX_UNIT), 1..600),
            shape in 0u8..4,
            cap in 0u8..7,
            tail in 8usize..=16,
        ) {
            assert_equals_reference(&reference_instance(raw, shape, cap), tail);
        }
    }

    /// 2¹⁸ items in a periodic pattern: every 128th id is the most
    /// efficient, the rest repeat a few efficiencies that tie across ids.
    /// The shipped tail runs one pivot round at full size; a tail of 16
    /// runs several.
    #[test]
    fn critical_item_equals_the_sort_at_full_size() {
        let n = 1usize << 18;
        let pairs = (0..n).map(|i| {
            if i % 128 == 0 {
                (1000, 1)
            } else {
                let step = (i % 7) as u64;
                (10 + step, 20 + 2 * step)
            }
        });
        let base = Instance::from_pairs(pairs, 0).unwrap();
        let total = base.total_weight();
        for capacity in [0, 1000, total / 3, total / 2, total - 1, total] {
            let instance = Instance::new(base.items().to_vec(), capacity).unwrap();
            for tail in [CRITICAL_TAIL, 16] {
                assert_equals_reference(&instance, tail);
            }
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
