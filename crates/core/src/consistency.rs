//! Consistency auditing — Definitions 2.3 (parallelizable) and 2.4
//! (query-order oblivious) as *measurements*.
//!
//! An LCA's promise is that independent runs with the same seed answer
//! according to one common solution. This module measures how often that
//! holds: it runs an LCA many times with fresh sampling entropy (and once
//! across threads), compares the answer vectors, and reports agreement
//! rates — the quantity Lemma 4.9 bounds below by `1 − ε` for `LCA-KP`
//! and experiment E6 tabulates.

use crate::lca::KnapsackLca;
use crate::LcaError;
use lcakp_knapsack::{ItemId, Selection};
use lcakp_oracle::{ItemOracle, Seed, WeightedSampler};
use std::collections::BTreeMap;
use std::fmt;

/// Result of a consistency audit.
#[derive(Debug, Clone, PartialEq)]
pub struct ConsistencyReport {
    /// Number of independent runs compared.
    pub runs: usize,
    /// Items queried per run.
    pub queries: usize,
    /// Fraction of run pairs whose full answer vectors agree.
    pub pairwise_agreement: f64,
    /// Fraction of runs matching the most common answer vector.
    pub mode_agreement: f64,
    /// Per-item agreement rate, averaged over items.
    pub mean_item_agreement: f64,
    /// Number of distinct answer vectors observed.
    pub distinct_solutions: usize,
}

impl ConsistencyReport {
    /// Whether the audit meets a `1 − ε` mode-agreement target.
    pub fn meets(&self, one_minus_eps: f64) -> bool {
        self.mode_agreement >= one_minus_eps
    }
}

impl fmt::Display for ConsistencyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "runs={} queries={} pairwise={:.3} mode={:.3} item={:.4} distinct={}",
            self.runs,
            self.queries,
            self.pairwise_agreement,
            self.mode_agreement,
            self.mean_item_agreement,
            self.distinct_solutions
        )
    }
}

fn summarize(vectors: Vec<Vec<bool>>, queries: usize) -> ConsistencyReport {
    let runs = vectors.len();
    let mut pair_total = 0u64;
    let mut pair_agree = 0u64;
    for a in 0..runs {
        for b in a + 1..runs {
            pair_total += 1;
            if vectors[a] == vectors[b] {
                pair_agree += 1;
            }
        }
    }
    let mut counts: BTreeMap<&Vec<bool>, usize> = BTreeMap::new();
    for vector in &vectors {
        *counts.entry(vector).or_insert(0) += 1;
    }
    let mode = counts.values().copied().max().unwrap_or(0);
    let distinct_solutions = counts.len();

    let mut item_agreement_sum = 0.0;
    for item in 0..queries {
        let yes = vectors.iter().filter(|vector| vector[item]).count();
        let majority = yes.max(runs - yes);
        item_agreement_sum += majority as f64 / runs.max(1) as f64;
    }

    ConsistencyReport {
        runs,
        queries,
        pairwise_agreement: if pair_total == 0 {
            1.0
        } else {
            pair_agree as f64 / pair_total as f64
        },
        mode_agreement: mode as f64 / runs.max(1) as f64,
        mean_item_agreement: if queries == 0 {
            1.0
        } else {
            item_agreement_sum / queries as f64
        },
        distinct_solutions,
    }
}

/// One run of an audit: answers `items` in order under run `run`'s own
/// sampling entropy, derived from `entropy_root`, and the shared `seed`.
fn answer_run<L, O>(
    lca: &L,
    oracle: &O,
    items: &[ItemId],
    seed: &Seed,
    run: usize,
    entropy_root: u64,
) -> Result<Vec<bool>, LcaError>
where
    L: KnapsackLca,
    O: ItemOracle + WeightedSampler,
{
    let mut rng = Seed::from_entropy_u64(entropy_root ^ (run as u64).wrapping_mul(0x9e37)).rng();
    items
        .iter()
        .map(|&item| Ok(lca.query(oracle, &mut rng, item, seed)?.include))
        .collect()
}

/// Runs `lca` `runs` times over `items` with fresh per-run sampling
/// entropy (derived deterministically from `entropy_root`) and a common
/// shared `seed`, then summarizes agreement.
///
/// # Errors
///
/// Propagates the first query error.
pub fn audit_consistency<L, O>(
    lca: &L,
    oracle: &O,
    items: &[ItemId],
    seed: &Seed,
    runs: usize,
    entropy_root: u64,
) -> Result<ConsistencyReport, LcaError>
where
    L: KnapsackLca,
    O: ItemOracle + WeightedSampler,
{
    let vectors = (0..runs)
        .map(|run| answer_run(lca, oracle, items, seed, run, entropy_root))
        .collect::<Result<_, _>>()?;
    Ok(summarize(vectors, items.len()))
}

/// The parallel variant of the audit (Definition 2.3): each run executes
/// on its own thread against the *shared* oracle, exercising the
/// distributed deployment the paper motivates. Requires the LCA and
/// oracle to be `Sync`.
///
/// # Errors
///
/// Propagates the first query error (after all threads complete).
pub fn audit_consistency_parallel<L, O>(
    lca: &L,
    oracle: &O,
    items: &[ItemId],
    seed: &Seed,
    runs: usize,
    entropy_root: u64,
) -> Result<ConsistencyReport, LcaError>
where
    L: KnapsackLca + Sync,
    O: ItemOracle + WeightedSampler + Sync,
{
    let vectors = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..runs)
            .map(|run| scope.spawn(move || answer_run(lca, oracle, items, seed, run, entropy_root)))
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("audit thread panicked"))
            .collect::<Result<_, _>>()
    })?;
    Ok(summarize(vectors, items.len()))
}

/// Checks query-order obliviousness (Definition 2.4): answers the same
/// items in forward and reverse order under identical randomness and
/// verifies the assembled selections coincide.
///
/// # Errors
///
/// Propagates the first query error.
pub fn check_order_obliviousness<L, O>(
    lca: &L,
    oracle: &O,
    seed: &Seed,
    entropy_root: u64,
) -> Result<bool, LcaError>
where
    L: KnapsackLca,
    O: ItemOracle + WeightedSampler,
{
    let n = oracle.len();
    let forward: Vec<ItemId> = (0..n).map(ItemId).collect();
    let reverse: Vec<ItemId> = (0..n).rev().map(ItemId).collect();

    let run = |order: &[ItemId]| -> Result<Selection, LcaError> {
        let mut selection = Selection::new(n);
        for (position, &item) in order.iter().enumerate() {
            // Per-query entropy depends on the *item*, not the position:
            // the same item gets the same fresh sample stream in both
            // orders, isolating order effects from sampling noise.
            let mut rng = Seed::from_entropy_u64(entropy_root ^ item.index() as u64).rng();
            let _ = position;
            if lca.query(oracle, &mut rng, item, seed)?.include {
                selection.insert(item);
            }
        }
        Ok(selection)
    };

    Ok(run(&forward)? == run(&reverse)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trivial::{EmptyLca, FullScanLca};
    use lcakp_knapsack::{Instance, NormalizedInstance};
    use lcakp_oracle::InstanceOracle;

    fn fixture() -> NormalizedInstance {
        NormalizedInstance::new(
            Instance::from_pairs((1..=40u64).map(|i| (1 + i % 7, 1 + i % 5)), 30).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn empty_lca_is_perfectly_consistent() {
        let norm = fixture();
        let oracle = InstanceOracle::new(&norm);
        let items: Vec<ItemId> = (0..norm.len()).map(ItemId).collect();
        let report = audit_consistency(
            &EmptyLca::new(),
            &oracle,
            &items,
            &Seed::from_entropy_u64(0),
            8,
            1,
        )
        .unwrap();
        assert_eq!(report.pairwise_agreement, 1.0);
        assert_eq!(report.mode_agreement, 1.0);
        assert_eq!(report.distinct_solutions, 1);
        assert!(report.meets(0.99));
    }

    #[test]
    fn full_scan_is_perfectly_consistent_in_parallel() {
        let norm = fixture();
        let oracle = InstanceOracle::new(&norm);
        let items: Vec<ItemId> = (0..norm.len()).map(ItemId).collect();
        let report = audit_consistency_parallel(
            &FullScanLca::new(),
            &oracle,
            &items,
            &Seed::from_entropy_u64(0),
            6,
            2,
        )
        .unwrap();
        assert_eq!(report.pairwise_agreement, 1.0);
        assert_eq!(report.distinct_solutions, 1);
    }

    #[test]
    fn order_obliviousness_of_deterministic_lcas() {
        let norm = fixture();
        let oracle = InstanceOracle::new(&norm);
        assert!(check_order_obliviousness(
            &FullScanLca::new(),
            &oracle,
            &Seed::from_entropy_u64(3),
            4,
        )
        .unwrap());
    }

    #[test]
    fn summarize_detects_disagreement() {
        let vectors = vec![
            vec![true, false],
            vec![true, false],
            vec![true, true],
            vec![false, false],
        ];
        let report = summarize(vectors, 2);
        assert_eq!(report.distinct_solutions, 3);
        assert!((report.mode_agreement - 0.5).abs() < 1e-12);
        // Pairs: 6 total, only (0,1) agree.
        assert!((report.pairwise_agreement - 1.0 / 6.0).abs() < 1e-12);
        // Item 0: 3/4 majority; item 1: 3/4 majority.
        assert!((report.mean_item_agreement - 0.75).abs() < 1e-12);
    }

    #[test]
    fn report_display() {
        let vectors = vec![vec![true], vec![true]];
        let report = summarize(vectors, 1);
        assert!(report.to_string().contains("mode=1.000"));
    }
}
