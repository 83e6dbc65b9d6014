//! Differential tests of batch sampling: `try_sample_weighted_many` must
//! be indistinguishable from `count` calls of `try_sample_weighted` — the
//! same `(ItemId, Item)` sequence, the caller's RNG left at the same
//! position, and the same counted samples — for `InstanceOracle`'s
//! two-phase override and for the budget and fault decorators' batch
//! overrides, each against the trait's per-sample default.

use lcakp_knapsack::{Instance, Item, ItemId, NormalizedInstance};
use lcakp_oracle::{
    BudgetedOracle, FaultPlan, FaultyOracle, InstanceOracle, ItemOracle, OracleError, Seed,
    WeightedSampler,
};
use proptest::prelude::*;
use rand::{Rng, RngCore};

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
}

/// Forces the trait's per-sample default over an oracle: only the single
/// draw is forwarded, so a batch runs one `try_sample_weighted` per slot.
struct PerSample<'a, O>(&'a O);

impl<O: WeightedSampler> WeightedSampler for PerSample<'_, O> {
    fn try_sample_weighted<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
    ) -> Result<(ItemId, Item), OracleError> {
        self.0.try_sample_weighted(rng)
    }
}

/// What one batch call delivered and returned.
type Batch = (Vec<(ItemId, Item)>, Result<(), (u64, OracleError)>);

/// Runs `counts` batches in turn on one caller RNG, carrying on after a
/// failed batch as a retrying caller does; returns every batch and the
/// next word of the RNG.
fn run_batches<O: WeightedSampler>(oracle: &O, counts: &[u64], seed: u64) -> (Vec<Batch>, u64) {
    let mut rng = Seed::from_entropy_u64(seed).rng();
    let batches = counts
        .iter()
        .map(|&count| {
            let mut out = Vec::new();
            let result =
                oracle.try_sample_weighted_many(&mut rng, count, |id, item| out.push((id, item)));
            (out, result)
        })
        .collect();
    (batches, rng.next_u64())
}

const PROFITS: [u64; 7] = [5, 10, 25, 60, 7, 0, 31];

/// Faults that fire often enough to land inside most batches.
fn active_plan(transient_pct: u32, corrupt: bool, bias: bool) -> FaultPlan {
    FaultPlan {
        transient_rate: f64::from(transient_pct) / 100.0,
        corruption_rate: if corrupt { 0.1 } else { 0.0 },
        max_profit_skew: 3,
        max_weight_skew: 1,
        sampler_bias: if bias { 0.1 } else { 0.0 },
        signal_corruption: false,
    }
}

/// A budget over `inner`'s batch (caps, resumed spends and any inner
/// plan) must match the per-sample loop in every observable.
fn assert_budget_matches(cap: u64, spent: u64, plan: FaultPlan, counts: &[u64], seed: u64) {
    let norm = norm(&PROFITS);
    let fault_seed = Seed::from_entropy_u64(seed ^ 0x5eed);
    let (batch_base, single_base) = (InstanceOracle::new(&norm), InstanceOracle::new(&norm));
    let batch_faulty = FaultyOracle::new(&batch_base, plan, fault_seed);
    let single_faulty = FaultyOracle::new(&single_base, plan, fault_seed);
    let batch = BudgetedOracle::with_spent(&batch_faulty, cap, spent);
    let single = BudgetedOracle::with_spent(&single_faulty, cap, spent);
    let context = format!("cap {cap}, spent {spent}, plan {plan:?}, counts {counts:?}");
    assert_eq!(
        run_batches(&batch, counts, seed),
        run_batches(&PerSample(&single), counts, seed),
        "{context}"
    );
    assert_eq!(batch.used(), single.used(), "{context}");
    assert_eq!(batch_faulty.fault_report(), single_faulty.fault_report());
    assert_eq!(batch_base.stats(), single_base.stats(), "{context}");
}

#[test]
fn budget_edges_match_the_per_sample_loop() {
    let transient = active_plan(20, false, false);
    for plan in [FaultPlan::none(), transient] {
        // A zero cap, a cap inside the second chunk, a cap of exactly
        // the batch, and resumed spends at and just below the cap.
        for (cap, spent) in [
            (0, 0),
            (100, 0),
            (130, 0),
            (130, 129),
            (130, 130),
            (130, 500),
        ] {
            assert_budget_matches(cap, spent, plan, &[130, 5, 0, 1], 3);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The budget's one reservation per batch charges, refunds and
    /// refuses exactly as a charge per sample would, over caps inside,
    /// at and past a batch and an inner fault layer that fails
    /// transiently mid-batch.
    #[test]
    fn budget_batches_match_the_per_sample_loop(
        cap in 0u64..300,
        spent in 0u64..300,
        transient_draw in 0u32..80,
        counts in proptest::collection::vec(0u64..200, 1..5),
        seed in 0u64..1_000_000,
    ) {
        // Half the cases run an inert inner layer.
        let plan = active_plan(transient_draw.saturating_sub(40), false, false);
        assert_budget_matches(cap, spent, plan, &counts, seed);
    }

    /// An inert fault layer hands the batch through; an active one keeps
    /// its per-access decisions. Either way the batch matches the
    /// per-sample loop, faults and all.
    #[test]
    fn faulty_batches_match_the_per_sample_loop(
        transient_draw in 0u32..80,
        corrupt in 0u8..2,
        bias in 0u8..2,
        counts in proptest::collection::vec(0u64..200, 1..5),
        seed in 0u64..1_000_000,
    ) {
        let plan = active_plan(transient_draw.saturating_sub(40), corrupt == 1, bias == 1);
        let norm = norm(&PROFITS);
        let fault_seed = Seed::from_entropy_u64(seed ^ 0xfa17);
        let (batch_base, single_base) = (InstanceOracle::new(&norm), InstanceOracle::new(&norm));
        let batch = FaultyOracle::new(&batch_base, plan, fault_seed);
        let single = FaultyOracle::new(&single_base, plan, fault_seed);
        prop_assert_eq!(
            run_batches(&batch, &counts, seed),
            run_batches(&PerSample(&single), &counts, seed)
        );
        prop_assert_eq!(batch.fault_report(), single.fault_report());
        prop_assert_eq!(batch_base.stats(), single_base.stats());
    }
}

#[test]
fn budget_batches_stop_at_the_cap() {
    let norm = norm(&PROFITS);
    let inner = InstanceOracle::new(&norm);
    let budgeted = BudgetedOracle::with_spent(&inner, 100, 40);
    let (batches, _) = run_batches(&budgeted, &[70, 3], 9);
    let exhausted = OracleError::BudgetExhausted {
        spent: 100,
        cap: 100,
    };
    assert_eq!(batches[0].0.len(), 60);
    assert_eq!(batches[0].1, Err((60, exhausted)));
    assert_eq!(batches[1].1, Err((0, exhausted)));
    assert_eq!(budgeted.used(), 100);
    assert_eq!(inner.stats().weighted_samples, 60);
}
