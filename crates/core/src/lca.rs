//! The LCA abstraction (Definition 2.2 of the paper) and the per-query
//! decision rule of `LCA-KP`.

use crate::LcaError;
use lcakp_knapsack::iky::{Epsilon, SmallItemFilter};
use lcakp_knapsack::{Item, ItemId, Norms, Selection};
use lcakp_oracle::{ItemOracle, Seed, WeightedSampler};
use rand::Rng;
use std::collections::BTreeSet;
use std::fmt;

/// Why an LCA answered the way it did — surfaced for experiments and
/// debugging; the boolean `include` alone is the model's answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecisionReason {
    /// Large item present in the greedy prefix of Ĩ (or the singleton
    /// winner).
    LargeSelected,
    /// Large item not selected by the greedy prefix.
    LargeNotSelected,
    /// Non-large item with efficiency at or above the small cut-off.
    SmallAboveCutoff,
    /// Non-large item with efficiency below the small cut-off.
    SmallBelowCutoff,
    /// Non-large item, and the rule carries no small cut-off (`e_small =
    /// −1` in the paper's notation).
    NoSmallCutoff,
    /// The item's weight exceeds the capacity: no feasible solution can
    /// contain it (the paper's Definition 2.2 assumes this never occurs).
    Oversized,
    /// The trivial always-no baseline answered.
    TrivialEmpty,
    /// A full-scan baseline answered from a complete solve.
    FullScan,
    /// Oracle access failed persistently; the algorithm degraded to the
    /// trivial always-no rule (consistent with the feasible solution ∅).
    DegradedFallback,
}

impl fmt::Display for DecisionReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            DecisionReason::LargeSelected => "large-selected",
            DecisionReason::LargeNotSelected => "large-not-selected",
            DecisionReason::SmallAboveCutoff => "small-above-cutoff",
            DecisionReason::SmallBelowCutoff => "small-below-cutoff",
            DecisionReason::NoSmallCutoff => "no-small-cutoff",
            DecisionReason::Oversized => "oversized",
            DecisionReason::TrivialEmpty => "trivial-empty",
            DecisionReason::FullScan => "full-scan",
            DecisionReason::DegradedFallback => "degraded-fallback",
        };
        write!(f, "{text}")
    }
}

/// The answer to one LCA query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LcaAnswer {
    /// Whether item `i` is part of the solution the LCA answers
    /// according to.
    pub include: bool,
    /// Diagnostic classification of the decision.
    pub reason: DecisionReason,
}

impl fmt::Display for LcaAnswer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({})",
            if self.include { "yes" } else { "no" },
            self.reason
        )
    }
}

/// A Local Computation Algorithm for Knapsack (Definition 2.2): stateless
/// query access to a feasible solution determined by the instance and the
/// shared seed only.
///
/// Implementations must not retain state between
/// [`KnapsackLca::query`] calls — the method takes `&self`, and all
/// randomness beyond the fresh sampling entropy must come from `seed`.
/// Parallelizability (Definition 2.3) and query-order obliviousness
/// (Definition 2.4) follow from this signature and are *audited* by
/// [`crate::consistency`].
pub trait KnapsackLca {
    /// Answers whether item `item` belongs to the solution.
    ///
    /// * `oracle` — query and weighted-sampling access to the instance;
    /// * `rng` — fresh sampling entropy (the i.i.d. channel);
    /// * `seed` — the shared read-only random tape `r`.
    ///
    /// # Errors
    ///
    /// Returns [`LcaError`] if the configuration demands more samples
    /// than the safety cap or an underlying computation fails.
    fn query<O, R>(
        &self,
        oracle: &O,
        rng: &mut R,
        item: ItemId,
        seed: &Seed,
    ) -> Result<LcaAnswer, LcaError>
    where
        O: ItemOracle + WeightedSampler,
        R: Rng + ?Sized;

    /// Answers every item of the instance by *independent* queries (the
    /// honest LCA usage) and assembles the selection.
    ///
    /// # Errors
    ///
    /// Propagates the first query error.
    fn assemble<O, R>(&self, oracle: &O, rng: &mut R, seed: &Seed) -> Result<Selection, LcaError>
    where
        O: ItemOracle + WeightedSampler,
        R: Rng + ?Sized,
    {
        let mut selection = Selection::new(oracle.len());
        for index in 0..oracle.len() {
            let answer = self.query(oracle, rng, ItemId(index), seed)?;
            if answer.include {
                selection.insert(ItemId(index));
            }
        }
        Ok(selection)
    }
}

/// The distilled per-query decision rule of `LCA-KP` (Algorithm 2 lines
/// 20–24): a set of selected large items plus an optional efficiency
/// cut-off for everything else.
///
/// Two runs that construct the same rule answer every query identically;
/// `LCA-KP`'s consistency analysis (Lemma 4.9) is exactly the statement
/// that independent runs construct the same rule with probability
/// `1 − ε`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolutionRule {
    /// ε the rule was built for.
    pub eps: Epsilon,
    /// The weight limit `K` — used for the local oversized-item check
    /// (Definition 2.2 assumes every weight ≤ K; the rule enforces it on
    /// general instances).
    pub capacity: u64,
    /// Ids of large items the rule includes.
    pub large_selected: BTreeSet<ItemId>,
    /// Efficiency-key cut-off for non-large items (`None` encodes the
    /// paper's `e_small = −1`).
    pub e_small: Option<u64>,
    /// Whether the rule came from the singleton branch of
    /// `CONVERT-GREEDY` (`B_indicator`).
    pub singleton: bool,
}

impl SolutionRule {
    /// The empty rule: answers **no** to everything (the trivial feasible
    /// solution ∅).
    pub fn empty(eps: Epsilon, capacity: u64) -> Self {
        SolutionRule {
            eps,
            capacity,
            large_selected: BTreeSet::new(),
            e_small: None,
            singleton: false,
        }
    }

    /// Applies the rule to one item (Algorithm 2 lines 20–24). All
    /// comparisons are exact.
    pub fn decide(&self, norms: Norms, id: ItemId, item: Item) -> LcaAnswer {
        let reason = if item.weight > self.capacity {
            // No feasible solution contains an oversized item — a purely
            // local check (the LCA knows K and the queried item).
            DecisionReason::Oversized
        } else if !SmallItemFilter::new(self.eps, norms.total_profit).is_small(item.profit) {
            // Large item: membership in the selected prefix.
            if self.large_selected.contains(&id) {
                DecisionReason::LargeSelected
            } else {
                DecisionReason::LargeNotSelected
            }
        } else if let Some(cutoff) = self.e_small {
            // Thresholds live in the tie-broken key order (a deterministic
            // total refinement of efficiency — see
            // `Norms::tie_broken_efficiency_key`), so membership is a
            // plain integer comparison.
            if norms.tie_broken_efficiency_key(id, item) >= cutoff {
                DecisionReason::SmallAboveCutoff
            } else {
                DecisionReason::SmallBelowCutoff
            }
        } else {
            DecisionReason::NoSmallCutoff
        };
        LcaAnswer {
            include: matches!(
                reason,
                DecisionReason::LargeSelected | DecisionReason::SmallAboveCutoff
            ),
            reason,
        }
    }

    /// Materializes the full solution `C` over an instance — the paper's
    /// `MAPPING-GREEDY` (Algorithm 4). This is the *audit* path (it reads
    /// the entire instance); honest LCA usage answers per-item via
    /// [`SolutionRule::decide`].
    pub fn materialize(&self, norm: &lcakp_knapsack::NormalizedInstance) -> Selection {
        let norms = norm.norms();
        let mut selection = Selection::new(norm.len());
        for (id, item) in norm.as_instance().iter() {
            if self.decide(norms, id, item).include {
                selection.insert(id);
            }
        }
        selection
    }
}

impl fmt::Display for SolutionRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SolutionRule(large={}, e_small={:?}, singleton={})",
            self.large_selected.len(),
            self.e_small,
            self.singleton
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcakp_knapsack::{Instance, NormalizedInstance};

    fn norm() -> NormalizedInstance {
        // Total profit 82: item 0 (p=60) is large at ε = 1/2 (ε² = 1/4,
        // threshold 20.5); item 1 is efficient and small; item 2 fits but
        // is inefficient.
        NormalizedInstance::new(Instance::from_pairs([(60, 10), (20, 2), (2, 12)], 12).unwrap())
            .unwrap()
    }

    fn eps() -> Epsilon {
        Epsilon::new(1, 2).unwrap()
    }

    #[test]
    fn empty_rule_rejects_everything() {
        let norm = norm();
        let rule = SolutionRule::empty(eps(), 12);
        for (id, item) in norm.as_instance().iter() {
            assert!(!rule.decide(norm.norms(), id, item).include);
        }
    }

    #[test]
    fn large_membership_decides_large_items() {
        let norm = norm();
        let mut rule = SolutionRule::empty(eps(), 12);
        rule.large_selected.insert(ItemId(0));
        let answer = rule.decide(norm.norms(), ItemId(0), norm.item(ItemId(0)));
        assert!(answer.include);
        assert_eq!(answer.reason, DecisionReason::LargeSelected);
    }

    #[test]
    fn cutoff_decides_non_large_items() {
        let norm = norm();
        let mut rule = SolutionRule::empty(eps(), 12);
        // Item 1 has normalized efficiency (20/82)/(2/24) ≈ 2.9; item 2
        // has ≈ 0.05. A cut-off at efficiency 1.0 (key 2^32) separates
        // them.
        rule.e_small = Some(1u64 << 32);
        let answer = rule.decide(norm.norms(), ItemId(1), norm.item(ItemId(1)));
        assert!(answer.include);
        assert_eq!(answer.reason, DecisionReason::SmallAboveCutoff);
        let answer = rule.decide(norm.norms(), ItemId(2), norm.item(ItemId(2)));
        assert!(!answer.include);
        assert_eq!(answer.reason, DecisionReason::SmallBelowCutoff);
    }

    #[test]
    fn materialize_matches_per_item_decisions() {
        let norm = norm();
        let mut rule = SolutionRule::empty(eps(), 12);
        rule.large_selected.insert(ItemId(0));
        rule.e_small = Some(1u64 << 32);
        let selection = rule.materialize(&norm);
        for (id, item) in norm.as_instance().iter() {
            assert_eq!(
                selection.contains(id),
                rule.decide(norm.norms(), id, item).include
            );
        }
    }

    #[test]
    fn answer_and_reason_display() {
        let answer = LcaAnswer {
            include: true,
            reason: DecisionReason::SmallAboveCutoff,
        };
        assert_eq!(answer.to_string(), "yes (small-above-cutoff)");
    }
}
