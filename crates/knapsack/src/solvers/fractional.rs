//! The Fractional Knapsack relaxation, solved exactly by the greedy
//! algorithm (Section 1.2 of the paper).
//!
//! The fractional optimum upper-bounds the 0/1 optimum; it is used as the
//! pruning bound in branch and bound and as a reference line in the
//! approximation experiments.
//!
//! It is Dantzig's bound: the items before the critical item (the first
//! of the efficiency order that does not fit) plus the fitting fraction
//! of the critical item. So it is computed from the critical item alone,
//! in expected `O(n)` time and without ordering the items (see
//! [`crate::solvers::greedy_prefix`], which shares the search).

use crate::solvers::greedy::{critical_item, CRITICAL_TAIL};
use crate::{Instance, Rat};

/// Exact value of the fractional relaxation, as a rational.
///
/// Items are taken in the canonical efficiency order; the first item that
/// does not fully fit (the critical item) is taken fractionally. Items
/// heavier than the whole capacity still contribute fractionally (the
/// relaxation allows it).
///
/// ```
/// use lcakp_knapsack::{Instance, Rat};
/// use lcakp_knapsack::solvers::fractional;
/// # fn main() -> Result<(), lcakp_knapsack::KnapsackError> {
/// let instance = Instance::from_pairs([(10, 4), (9, 4)], 6)?;
/// // Take item 0 fully, half of item 1: 10 + 4.5.
/// assert_eq!(fractional::fractional_optimum(&instance), Rat::new(29, 2));
/// # Ok(())
/// # }
/// ```
pub fn fractional_optimum(instance: &Instance) -> Rat {
    fractional_optimum_within(instance, CRITICAL_TAIL)
}

/// [`fractional_optimum`] with a selection tail of `tail` ids.
pub(crate) fn fractional_optimum_within(instance: &Instance, tail: usize) -> Rat {
    let critical = critical_item(instance, |_| true, tail);
    let whole_value = critical.before.profit as u128;
    match critical.cutoff {
        Some(id) => {
            // Fractional part: p · remaining / w, exact.
            let item = instance.item(id);
            let remaining = (instance.capacity() - critical.before.weight) as u128;
            let num = whole_value * item.weight as u128 + item.profit as u128 * remaining;
            Rat::new(num, item.weight as u128)
        }
        None => Rat::from_int(whole_value),
    }
}

/// Floor of the fractional optimum — a convenient integer upper bound on
/// the 0/1 optimum.
pub fn fractional_upper_bound(instance: &Instance) -> u64 {
    let optimum = fractional_optimum(instance);
    u64::try_from(optimum.num() / optimum.den()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvers::dp_by_weight;

    #[test]
    fn whole_items_only() {
        let instance = Instance::from_pairs([(4, 2), (3, 2)], 10).unwrap();
        assert_eq!(fractional_optimum(&instance), Rat::from_int(7));
    }

    #[test]
    fn fractional_tail() {
        let instance = Instance::from_pairs([(10, 4), (9, 4)], 6).unwrap();
        assert_eq!(fractional_optimum(&instance), Rat::new(29, 2));
    }

    #[test]
    fn upper_bounds_integral_optimum() {
        let instance = Instance::from_pairs([(7, 3), (2, 1), (9, 5), (4, 2), (6, 3)], 7).unwrap();
        let optimum = dp_by_weight(&instance).unwrap().value;
        assert!(fractional_optimum(&instance) >= Rat::from_int(optimum as u128));
        assert!(fractional_upper_bound(&instance) >= optimum);
    }

    #[test]
    fn zero_capacity_takes_zero_weight_items() {
        let instance = Instance::from_pairs([(4, 0), (9, 3)], 0).unwrap();
        assert_eq!(fractional_optimum(&instance), Rat::from_int(4));
    }

    #[test]
    fn oversized_item_contributes_fraction() {
        let instance = Instance::from_pairs([(100, 10)], 5).unwrap();
        assert_eq!(fractional_optimum(&instance), Rat::from_int(50));
    }
}
