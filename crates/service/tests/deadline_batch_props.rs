//! Differential tests of the served stack's batch path: a
//! `DeadlineOracle<FaultyOracle<BudgetedOracle<InstanceOracle>>>` batch
//! (one clock read, one `accesses` add and one clock advance per chunk,
//! one budget reservation per inner batch) must be indistinguishable from
//! the trait's per-sample loop — the same deliveries and `Result`s, the
//! caller's RNG at the same position, the same clock tick, access count,
//! budget usage, fault report and inner counters.

use lcakp_knapsack::{Instance, Item, ItemId, NormalizedInstance};
use lcakp_oracle::{
    BudgetedOracle, FaultPlan, FaultyOracle, InstanceOracle, ItemOracle, OracleError, Seed,
    WeightedSampler,
};
use lcakp_service::{CostModel, DeadlineOracle, LatencyWindow, TickClock, VirtualClock};
use proptest::prelude::*;
use rand::{Rng, RngCore};

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

/// One served-stack scenario.
#[derive(Debug, Clone)]
struct Case {
    /// Ticks already on the clock when the first batch starts.
    start_tick: u64,
    deadline_tick: u64,
    cost: CostModel,
    /// Budget cap and the spend it resumes from.
    cap: u64,
    spent: u64,
    plan: FaultPlan,
    /// Batches issued in turn, carrying on after a failed one.
    counts: Vec<u64>,
    seed: u64,
}

/// What one batch call delivered and returned.
type Batch = (Vec<(ItemId, Item)>, Result<(), (u64, OracleError)>);

/// Every observable of a run: the batches, the caller RNG's next word,
/// `clock.now()`, `accesses()`, `used()`, the fault report and the
/// inner oracle's counters.
type Observed = (
    Vec<Batch>,
    u64,
    u64,
    u64,
    u64,
    lcakp_oracle::FaultReport,
    lcakp_oracle::AccessSnapshot,
);

/// Runs `case` on a fresh stack, through the overrides or (with
/// `per_sample`) through the per-sample default.
fn run(case: &Case, per_sample: bool) -> Observed {
    let profits = [5u64, 10, 25, 60, 7, 0, 31];
    let norm = NormalizedInstance::new(
        Instance::from_pairs(profits.iter().map(|&p| (p, 1)), 1).expect("valid instance"),
    )
    .expect("positive profit");
    let base = InstanceOracle::new(&norm);
    let budgeted = BudgetedOracle::with_spent(&base, case.cap, case.spent);
    let faulty = FaultyOracle::new(&budgeted, case.plan, Seed::from_entropy_u64(case.seed ^ 7));
    let clock = TickClock::new();
    clock.advance(case.start_tick);
    let guarded = DeadlineOracle::new(&faulty, &clock, case.deadline_tick, &case.cost);
    let mut rng = Seed::from_entropy_u64(case.seed).rng();
    let batches = case
        .counts
        .iter()
        .map(|&count| {
            let mut out = Vec::new();
            let push = |id, item| out.push((id, item));
            let result = if per_sample {
                PerSample(&guarded).try_sample_weighted_many(&mut rng, count, push)
            } else {
                guarded.try_sample_weighted_many(&mut rng, count, push)
            };
            (out, result)
        })
        .collect();
    (
        batches,
        rng.next_u64(),
        clock.now(),
        guarded.accesses(),
        budgeted.used(),
        faulty.fault_report(),
        base.stats(),
    )
}

fn assert_matches(case: &Case) {
    assert_eq!(run(case, false), run(case, true), "{case:?}");
}

fn flat_case(cost: CostModel, deadline_tick: u64, counts: Vec<u64>) -> Case {
    Case {
        start_tick: 0,
        deadline_tick,
        cost,
        cap: u64::MAX,
        spent: 0,
        plan: FaultPlan::none(),
        counts,
        seed: 1,
    }
}

#[test]
fn deadline_edges_match_the_per_sample_loop() {
    let flat = CostModel::flat(3);
    // Already passed, mid-chunk, exactly on the 64-access chunk
    // boundary (access 64 starts at tick 192) and one access either side.
    for deadline in [0, 100, 189, 190, 192, 193, 195] {
        assert_matches(&flat_case(flat.clone(), deadline, vec![130, 1, 0, 64]));
    }
    // A spike straddling a batch: it starts inside the first chunk and
    // ends inside the second.
    let spiky = CostModel::flat(2).with_spike(LatencyWindow {
        start_tick: 50,
        end_tick: 170,
        extra_cost: 5,
    });
    for deadline in [60, 171, 400, 1_000] {
        assert_matches(&flat_case(spiky.clone(), deadline, vec![40, 100, 70]));
    }
    // Free accesses never reach a deadline still ahead of the clock.
    assert_matches(&flat_case(CostModel::flat(0), 1, vec![200]));
}

#[test]
fn a_refused_access_is_counted_and_charges_nothing() {
    let case = flat_case(CostModel::flat(3), 100, vec![130]);
    let (batches, _, now, accesses, ..) = run(&case, false);
    // Accesses start at 0, 3, …, 99: 34 run, the 35th is refused.
    assert_eq!(
        batches[0].1,
        Err((34, OracleError::DeadlineExceeded { access: 34 }))
    );
    assert_eq!((now, accesses), (102, 35));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random deadlines, spikes, budgets and transient faults on the
    /// whole served stack: the batch path matches the per-sample loop in
    /// every observable.
    #[test]
    fn served_stack_batches_match_the_per_sample_loop(
        start_tick in 0u64..40,
        deadline_span in 0u64..900,
        per_access in 0u64..5,
        spike in (0u64..600, 0u64..300, 0u64..20),
        cap_draw in 0u64..600,
        spent in 0u64..200,
        transient_draw in 0u32..60,
        counts in proptest::collection::vec(0u64..200, 1..5),
        seed in 0u64..1_000_000,
    ) {
        let (spike_start, spike_len, extra_cost) = spike;
        let cost = CostModel::flat(per_access).with_spike(LatencyWindow {
            start_tick: spike_start,
            end_tick: spike_start + spike_len,
            extra_cost,
        });
        let case = Case {
            start_tick,
            deadline_tick: start_tick + deadline_span,
            cost,
            // A third of the cases run without a binding cap.
            cap: if cap_draw >= 400 { u64::MAX } else { cap_draw },
            spent,
            // Half the cases run an inert fault layer.
            plan: FaultPlan::transient(f64::from(transient_draw.saturating_sub(30)) / 100.0),
            counts,
            seed,
        };
        prop_assert_eq!(run(&case, false), run(&case, true), "{:?}", case);
    }
}
