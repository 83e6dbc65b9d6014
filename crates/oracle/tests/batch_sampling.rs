//! Differential tests of batch sampling: `try_sample_weighted_many` must
//! be indistinguishable from `count` calls of `try_sample_weighted` — the
//! same `(ItemId, Item)` sequence, the caller's RNG left at the same
//! position, and the same counted samples — both for `InstanceOracle`'s
//! two-phase override and for the per-sample default decorators use.

use lcakp_knapsack::{Instance, Item, ItemId, NormalizedInstance};
use lcakp_oracle::{
    BudgetedOracle, InstanceOracle, ItemOracle, OracleError, Seed, WeightedSampler,
};
use proptest::prelude::*;
use rand::RngCore;

fn norm(profits: &[u64]) -> NormalizedInstance {
    NormalizedInstance::new(Instance::from_pairs(profits.iter().map(|&p| (p, 1)), 1).unwrap())
        .unwrap()
}

/// What a run of draws observably did: the samples delivered, the batch
/// result, and the next word of the caller's RNG.
type Draws = (Vec<(ItemId, Item)>, Result<(), (u64, OracleError)>, u64);

/// Draws `count` samples in one batch call.
fn batched<O: WeightedSampler>(oracle: &O, count: u64, seed: u64) -> Draws {
    let mut rng = Seed::from_entropy_u64(seed).rng();
    let mut out = Vec::new();
    let result = oracle.try_sample_weighted_many(&mut rng, count, |id, item| out.push((id, item)));
    (out, result, rng.next_u64())
}

/// The same draws one `try_sample_weighted` at a time, stopping at the
/// first error as the batch contract says.
fn singles<O: WeightedSampler>(oracle: &O, count: u64, seed: u64) -> Draws {
    let mut rng = Seed::from_entropy_u64(seed).rng();
    let mut out = Vec::new();
    let mut result = Ok(());
    for delivered in 0..count {
        match oracle.try_sample_weighted(&mut rng) {
            Ok(sample) => out.push(sample),
            Err(error) => {
                result = Err((delivered, error));
                break;
            }
        }
    }
    (out, result, rng.next_u64())
}

/// Profit vectors with zeros (never sampled) and one dominant item that
/// takes most buckets' aliases.
fn profits_with_zeros_and_a_dominant_item(raw: Vec<u64>, dominant: usize) -> Vec<u64> {
    let mut profits: Vec<u64> = raw
        .into_iter()
        .map(|p| if p < 15 { 0 } else { p })
        .collect();
    let at = dominant % profits.len();
    profits[at] = 1_000_000;
    profits
}

fn assert_batch_matches_singles(profits: &[u64], count: u64, seed: u64) {
    let norm = norm(profits);
    let batch_oracle = InstanceOracle::new(&norm);
    let single_oracle = InstanceOracle::new(&norm);
    let batch = batched(&batch_oracle, count, seed);
    let single = singles(&single_oracle, count, seed);
    assert_eq!(batch, single, "count {count}, profits {profits:?}");
    assert_eq!(batch_oracle.stats(), single_oracle.stats());
    assert_eq!(batch_oracle.stats().weighted_samples, count);
    assert!(batch.0.iter().all(|(_, item)| item.profit > 0));
}

#[test]
fn chunk_boundaries_match_single_draws() {
    let profits = profits_with_zeros_and_a_dominant_item((0..97).map(|i| i * 7 % 50).collect(), 5);
    for count in [0, 1, 2, 63, 64, 65, 127, 128, 129, 191, 192, 193, 299] {
        assert_batch_matches_singles(&profits, count, 11 + count);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The two-phase override draws what `count` single calls draw.
    #[test]
    fn instance_oracle_batches_match_single_draws(
        raw in proptest::collection::vec(0u64..50, 1..40),
        dominant in 0usize..40,
        count in 0u64..300,
        seed in 0u64..1_000_000,
    ) {
        let profits = profits_with_zeros_and_a_dominant_item(raw, dominant);
        assert_batch_matches_singles(&profits, count, seed);
    }

    /// The provided default (here behind a budget) stops at the first
    /// error and reports how many samples it delivered.
    #[test]
    fn default_batches_stop_at_the_first_error(
        raw in proptest::collection::vec(0u64..50, 1..40),
        dominant in 0usize..40,
        count in 0u64..300,
        cap in 0u64..300,
        seed in 0u64..1_000_000,
    ) {
        let profits = profits_with_zeros_and_a_dominant_item(raw, dominant);
        let norm = norm(&profits);
        let batch_inner = InstanceOracle::new(&norm);
        let single_inner = InstanceOracle::new(&norm);
        let batch_oracle = BudgetedOracle::new(&batch_inner, cap);
        let single_oracle = BudgetedOracle::new(&single_inner, cap);
        let batch = batched(&batch_oracle, count, seed);
        let single = singles(&single_oracle, count, seed);
        prop_assert_eq!(&batch, &single);
        prop_assert_eq!(batch_oracle.used(), single_oracle.used());
        prop_assert_eq!(batch_inner.stats(), single_inner.stats());
        match batch.1 {
            Ok(()) => prop_assert!(count <= cap),
            Err((delivered, error)) => {
                prop_assert_eq!(delivered, cap);
                let exhausted = matches!(error, OracleError::BudgetExhausted { .. });
                prop_assert!(exhausted);
            }
        }
    }
}
