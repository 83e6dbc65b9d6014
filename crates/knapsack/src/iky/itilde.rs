//! The reduced instance Ĩ (step 3 of the Ĩ-construction algorithm,
//! Section 4 of the paper).
//!
//! Ĩ consists of
//!
//! * `L(Ĩ)` — the large items, verbatim (with their original ids kept, so
//!   LCA answers can be mapped back);
//! * `S(Ĩ)` — for each EPS bucket `k ∈ {0, …, t−1}`, exactly `⌊1/ε⌋`
//!   copies of the representative item `(ε², ε² / ẽ_{k+1})`;
//! * `G(Ĩ) = ∅`.
//!
//! # Numeric representation
//!
//! Normalized quantities such as `ε²/ẽ` are not exactly representable in
//! the raw integer units of [`crate::Instance`]. Ĩ therefore stores
//! *micro-units*: normalized values scaled by `2^53`, all rounded **down**
//! (profits, weights and the capacity alike) so that exact ties — e.g. an
//! item whose weight equals the capacity — are preserved. The cumulative
//! rounding error over a greedy prefix is below `|Ĩ| · 2⁻⁵³` of normalized
//! weight, i.e. below `|Ĩ| · W / 2⁵³ < 1` *raw* weight unit for every
//! instance the workspace admits (`W ≤ 2⁴⁴`, `|Ĩ| ≤ 2⁸`); since raw
//! weights are integers, a solution that fits in micro-units also fits
//! exactly. This substitution is recorded in `DESIGN.md` and audited
//! empirically by experiment E5 (every assembled solution is
//! feasibility-checked with exact arithmetic).

use crate::iky::eps_seq::EpsSequence;
use crate::rat::{cmp_products, Epsilon};
use crate::{Item, ItemId, KnapsackError, NormalizedInstance, Norms};
use std::cmp::Ordering;

/// Number of fractional bits of a micro-unit: values are normalized
/// quantities times `2^53`.
pub const MU_SHIFT: u32 = 53;

/// Where a Ĩ item came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TildeOrigin {
    /// A large item of the original instance, included verbatim.
    Large(ItemId),
    /// A synthetic representative of EPS bucket `bucket` (0-based; stands
    /// for the small items with efficiency in `[ẽ_{bucket+1}, ẽ_bucket)`).
    SmallRep {
        /// 0-based EPS bucket index.
        bucket: usize,
    },
}

/// One item of the reduced instance, in micro-units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TildeItem {
    /// Normalized profit × 2^40, rounded down.
    pub profit_mu: u64,
    /// Normalized weight × 2^40, rounded up.
    pub weight_mu: u64,
    /// Provenance.
    pub origin: TildeOrigin,
}

impl TildeItem {
    /// Compares two Ĩ items in the canonical greedy order: efficiency
    /// descending, then profit descending, then weight ascending. Exact
    /// (128-bit cross multiplication). Remaining ties are broken by the
    /// caller using construction order, which is itself deterministic.
    pub fn cmp_greedy(&self, other: &TildeItem) -> Ordering {
        let eff = match (self.weight_mu, other.weight_mu) {
            (0, 0) => (self.profit_mu > 0).cmp(&(other.profit_mu > 0)).reverse(),
            (0, _) => {
                if self.profit_mu > 0 {
                    Ordering::Less
                } else {
                    Ordering::Greater
                }
            }
            (_, 0) => {
                if other.profit_mu > 0 {
                    Ordering::Greater
                } else {
                    Ordering::Less
                }
            }
            (_, _) => cmp_products(
                other.profit_mu as u128,
                self.weight_mu as u128,
                self.profit_mu as u128,
                other.weight_mu as u128,
            ),
        };
        eff.then_with(|| other.profit_mu.cmp(&self.profit_mu))
            .then_with(|| self.weight_mu.cmp(&other.weight_mu))
    }
}

/// The reduced instance Ĩ: a deterministic function of the large-item set
/// and the EPS (Lemma 4.9 rests on this determinism — identical inputs
/// produce identical Ĩ and hence identical LCA answers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TildeInstance {
    items: Vec<TildeItem>,
    capacity_mu: u64,
    eps: Epsilon,
}

impl TildeInstance {
    /// Builds Ĩ from the normalization constants, the capacity, the
    /// (deduplicated, **sorted by id**) large items, and an EPS.
    ///
    /// This signature takes only what an *LCA* legitimately holds: the
    /// free metadata plus the items it has sampled — never the whole
    /// instance. `large` must be sorted by id and duplicate-free: the
    /// construction order of Ĩ is part of the determinism contract
    /// (Lemma 4.9).
    ///
    /// # Panics
    ///
    /// Panics (debug assertion) if `large` is not sorted and deduplicated.
    pub fn build(
        norms: Norms,
        capacity: u64,
        eps: Epsilon,
        large: &[(ItemId, Item)],
        seq: &EpsSequence,
    ) -> Self {
        debug_assert!(
            large.windows(2).all(|pair| pair[0].0 < pair[1].0),
            "large ids must be sorted and deduplicated"
        );
        let total_profit = norms.total_profit as u128;
        let total_weight = norms.total_weight as u128;
        let mut items = Vec::new();

        // lcakp-lint: loop-bound(large-items) reason="large is the sorted, deduplicated large-item sample: at most the coupon-samples draws that produced it (Algorithm 2 line 2)"
        for &(id, item) in large {
            let profit_mu = ((item.profit as u128) << MU_SHIFT) / total_profit;
            let weight_mu = ((item.weight as u128) << MU_SHIFT) / total_weight;
            items.push(TildeItem {
                profit_mu: u64::try_from(profit_mu).unwrap_or(u64::MAX),
                weight_mu: u64::try_from(weight_mu).unwrap_or(u64::MAX),
                origin: TildeOrigin::Large(id),
            });
        }

        // ε² in micro-units (rounded down), the representatives' profit.
        let num_sq = (eps.num() as u128) * (eps.num() as u128);
        let den_sq = (eps.den() as u128) * (eps.den() as u128);
        let rep_profit_mu = u64::try_from((num_sq << MU_SHIFT) / den_sq).unwrap_or(u64::MAX);
        let copies = eps.inverse_floor();

        // lcakp-lint: loop-bound(eps-thresholds) reason="one bucket per EPS threshold: t ≤ ⌈1/ε⌉ by construction (Algorithm 2 line 9)"
        for (bucket, &key) in seq.keys().iter().enumerate() {
            // weight = ε² / (key · 2⁻³²)  →  micro-units = ε² · 2^(53+32) / key.
            let weight_mu = if key == 0 {
                u64::MAX
            } else {
                let numerator = num_sq << (MU_SHIFT + 32);
                u64::try_from(numerator / (den_sq * key as u128)).unwrap_or(u64::MAX)
            };
            // lcakp-lint: loop-bound(eps-inverse) reason="copies = ⌊1/ε⌋ small representatives per bucket (Definition 4.6)"
            for _ in 0..copies {
                items.push(TildeItem {
                    profit_mu: rep_profit_mu,
                    weight_mu,
                    origin: TildeOrigin::SmallRep { bucket },
                });
            }
        }

        let capacity_mu =
            u64::try_from(((capacity as u128) << MU_SHIFT) / total_weight).unwrap_or(u64::MAX);

        TildeInstance {
            items,
            capacity_mu,
            eps,
        }
    }

    /// Convenience for offline use: builds Ĩ from a full instance and the
    /// ids of its large items.
    pub fn build_from_instance(
        norm: &NormalizedInstance,
        eps: Epsilon,
        large_ids: &[ItemId],
        seq: &EpsSequence,
    ) -> Self {
        let large: Vec<(ItemId, Item)> = large_ids.iter().map(|&id| (id, norm.item(id))).collect();
        TildeInstance::build(
            norm.norms(),
            norm.as_instance().capacity(),
            eps,
            &large,
            seq,
        )
    }

    /// The items of Ĩ, in construction order (large items by id, then
    /// representatives bucket by bucket).
    pub fn items(&self) -> &[TildeItem] {
        &self.items
    }

    /// Number of items in Ĩ (`O(1/ε²)` by construction).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` if Ĩ has no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Normalized capacity `K̂` in micro-units (rounded down).
    pub fn capacity_mu(&self) -> u64 {
        self.capacity_mu
    }

    /// The ε this instance was built for.
    pub fn eps(&self) -> Epsilon {
        self.eps
    }

    /// Indices of [`TildeInstance::items`] in the canonical greedy order
    /// (efficiency descending, deterministic tie-breaking by construction
    /// order).
    pub fn greedy_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.items.len()).collect();
        order.sort_by(|&a, &b| {
            self.items[a]
                .cmp_greedy(&self.items[b])
                .then_with(|| a.cmp(&b))
        });
        order
    }
}

impl std::fmt::Display for TildeInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let large = self
            .items
            .iter()
            .filter(|item| matches!(item.origin, TildeOrigin::Large(_)))
            .count();
        write!(
            f,
            "TildeInstance(|L|={}, |S|={}, K̂_mu={})",
            large,
            self.items.len() - large,
            self.capacity_mu
        )
    }
}

/// Node budget for [`tilde_optimum`].
const MAX_TILDE_NODES: u64 = 20_000_000;

/// Exact optimum of Ĩ (total profit in micro-units), by branch and bound
/// with a fractional bound. Ĩ has `O(1/ε²)` items, so this is fast; it is
/// the "solve the new instance optimally" step of [IKY12] used to validate
/// Lemma 4.4 (experiment E9).
///
/// # Errors
///
/// Returns [`KnapsackError::SolverBudgetExceeded`] (solver
/// `"tilde_optimum"`) if the search exhausts its node budget
/// (pathological ε only).
pub fn tilde_optimum(tilde: &TildeInstance) -> Result<u64, KnapsackError> {
    optimum_within(tilde, MAX_TILDE_NODES)
}

/// [`tilde_optimum`] with a node budget of `max_nodes`.
fn optimum_within(tilde: &TildeInstance, max_nodes: u64) -> Result<u64, KnapsackError> {
    let order = tilde.greedy_order();
    let items: Vec<TildeItem> = order
        .iter()
        .map(|&index| tilde.items()[index])
        .filter(|item| item.weight_mu <= tilde.capacity_mu())
        .collect();

    fn bound(items: &[TildeItem], from: usize, remaining: u64, value: u128) -> u128 {
        let mut bound = value;
        let mut capacity = remaining as u128;
        for item in &items[from..] {
            if item.weight_mu as u128 <= capacity {
                capacity -= item.weight_mu as u128;
                bound += item.profit_mu as u128;
            } else {
                if capacity > 0 && item.weight_mu > 0 {
                    bound += (item.profit_mu as u128 * capacity).div_ceil(item.weight_mu as u128);
                }
                break;
            }
        }
        bound
    }

    struct State {
        best: u128,
        nodes: u64,
        max_nodes: u64,
    }

    fn dfs(
        items: &[TildeItem],
        state: &mut State,
        depth: usize,
        remaining: u64,
        value: u128,
    ) -> Result<(), KnapsackError> {
        state.nodes += 1;
        if state.nodes > state.max_nodes {
            return Err(KnapsackError::SolverBudgetExceeded {
                solver: "tilde_optimum",
                size: u128::from(state.nodes),
                max: u128::from(state.max_nodes),
            });
        }
        if value > state.best {
            state.best = value;
        }
        if depth == items.len() {
            return Ok(());
        }
        if bound(items, depth, remaining, value) <= state.best {
            return Ok(());
        }
        let item = items[depth];
        if item.weight_mu <= remaining {
            dfs(
                items,
                state,
                depth + 1,
                remaining - item.weight_mu,
                value + item.profit_mu as u128,
            )?;
        }
        dfs(items, state, depth + 1, remaining, value)
    }

    let mut state = State {
        best: 0,
        nodes: 0,
        max_nodes,
    };
    dfs(&items, &mut state, 0, tilde.capacity_mu(), 0)?;
    Ok(u64::try_from(state.best).unwrap_or(u64::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iky::eps_seq::exact_eps;
    use crate::iky::partition::Partition;
    use crate::Instance;

    fn norm(pairs: Vec<(u64, u64)>, capacity: u64) -> NormalizedInstance {
        NormalizedInstance::new(Instance::from_pairs(pairs, capacity).unwrap()).unwrap()
    }

    fn build_tilde(norm: &NormalizedInstance, eps: Epsilon) -> TildeInstance {
        let partition = Partition::compute(norm, eps);
        let seq = exact_eps(norm, eps, &partition);
        TildeInstance::build_from_instance(norm, eps, partition.large(), &seq)
    }

    #[test]
    fn large_items_are_kept_verbatim() {
        let norm = norm(vec![(50, 5), (30, 5), (1, 1), (1, 2), (1, 3)], 8);
        let eps = Epsilon::new(1, 3).unwrap();
        let tilde = build_tilde(&norm, eps);
        let large: Vec<ItemId> = tilde
            .items()
            .iter()
            .filter_map(|item| match item.origin {
                TildeOrigin::Large(id) => Some(id),
                _ => None,
            })
            .collect();
        assert_eq!(large, vec![ItemId(0), ItemId(1)]);
    }

    #[test]
    fn representatives_have_eps_squared_profit() {
        let pairs: Vec<(u64, u64)> = (1..=100u64).map(|weight| (1, weight)).collect();
        let norm = norm(pairs, 500);
        let eps = Epsilon::new(1, 10).unwrap();
        let tilde = build_tilde(&norm, eps);
        let expected = ((1u128) << MU_SHIFT) / 100; // ε² = 1/100 in micro-units
        for item in tilde.items() {
            if let TildeOrigin::SmallRep { .. } = item.origin {
                assert_eq!(item.profit_mu as u128, expected);
            }
        }
        // ⌊1/ε⌋ = 10 copies per bucket.
        let reps = tilde
            .items()
            .iter()
            .filter(|item| matches!(item.origin, TildeOrigin::SmallRep { .. }))
            .count();
        assert_eq!(reps % 10, 0);
        assert!(reps > 0);
    }

    #[test]
    fn tilde_is_constant_size() {
        let pairs: Vec<(u64, u64)> = (1..=1000u64).map(|index| (1, 1 + index % 97)).collect();
        let norm = norm(pairs, 2000);
        let eps = Epsilon::new(1, 5).unwrap();
        let tilde = build_tilde(&norm, eps);
        // |Ĩ| ≤ |L| + t·⌊1/ε⌋ ≤ 1/ε² + (1/ε + 1)·(1/ε).
        assert!(tilde.len() <= 25 + 30);
    }

    #[test]
    fn greedy_order_is_by_efficiency() {
        let norm = norm(vec![(50, 5), (30, 5), (1, 1), (1, 2), (1, 3)], 8);
        let eps = Epsilon::new(1, 3).unwrap();
        let tilde = build_tilde(&norm, eps);
        let order = tilde.greedy_order();
        for pair in order.windows(2) {
            let a = tilde.items()[pair[0]];
            let b = tilde.items()[pair[1]];
            assert_ne!(
                a.cmp_greedy(&b),
                Ordering::Greater,
                "greedy order must be non-increasing in efficiency"
            );
        }
    }

    #[test]
    fn determinism_same_inputs_same_tilde() {
        let pairs: Vec<(u64, u64)> = (1..=50u64).map(|weight| (1 + weight % 7, weight)).collect();
        let norm = norm(pairs, 300);
        let eps = Epsilon::new(1, 4).unwrap();
        let a = build_tilde(&norm, eps);
        let b = build_tilde(&norm, eps);
        assert_eq!(a, b);
    }

    #[test]
    fn optimum_of_single_large_item() {
        // One dominant item: OPT(Ĩ) should essentially be its profit.
        let norm = norm(vec![(100, 5), (1, 5), (1, 5)], 5);
        let eps = Epsilon::new(1, 2).unwrap();
        let tilde = build_tilde(&norm, eps);
        let optimum = tilde_optimum(&tilde).unwrap();
        // Normalized profit of the big item is 100/102.
        let expected = ((100u128) << MU_SHIFT) / 102;
        assert!(optimum as u128 >= expected);
    }

    #[test]
    fn an_exhausted_search_is_a_solver_budget_error() {
        let norm = norm(vec![(100, 5), (1, 5), (1, 5)], 5);
        let tilde = build_tilde(&norm, Epsilon::new(1, 2).unwrap());
        assert!(optimum_within(&tilde, 1_000).is_ok());
        assert_eq!(
            optimum_within(&tilde, 1),
            Err(KnapsackError::SolverBudgetExceeded {
                solver: "tilde_optimum",
                size: 2,
                max: 1,
            })
        );
    }

    #[test]
    fn zero_key_bucket_is_unusable() {
        let norm = norm(vec![(10, 2), (1, 1)], 3);
        let eps = Epsilon::new(1, 2).unwrap();
        let seq = EpsSequence::new(vec![0]).unwrap();
        let tilde = TildeInstance::build_from_instance(&norm, eps, &[ItemId(0)], &seq);
        let rep = tilde
            .items()
            .iter()
            .find(|item| matches!(item.origin, TildeOrigin::SmallRep { .. }))
            .unwrap();
        assert_eq!(rep.weight_mu, u64::MAX);
    }

    #[test]
    fn display_reports_sizes() {
        let norm = norm(vec![(50, 5), (1, 1)], 6);
        let eps = Epsilon::new(1, 2).unwrap();
        let tilde = build_tilde(&norm, eps);
        assert!(tilde.to_string().contains("|L|=1"));
    }
}
