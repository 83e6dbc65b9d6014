//! A `QueryScratch` reused across queries of different shapes, sizes,
//! accuracies and shared seeds builds exactly the rule a fresh scratch
//! builds: its buffers keep only capacity, and its memoized rQuantile
//! arrival-group maps are re-keyed on every use.

use lcakp_core::{LcaKp, QueryScratch};
use lcakp_knapsack::iky::Epsilon;
use lcakp_knapsack::{Instance, ItemId, NormalizedInstance};
use lcakp_oracle::{FaultPlan, FaultyOracle, InstanceOracle, Seed};
use lcakp_reproducible::SampleBudget;
use lcakp_workloads::{Family, WorkloadSpec};

fn instance(family: Family, n: usize) -> NormalizedInstance {
    WorkloadSpec::new(family, n, 3)
        .generate_normalized()
        .expect("workload generates")
}

/// Interleaves SmallDominated queries, which run the full EPS estimation
/// (t rQuantiles over one sorted key sample), with LargeDominated ones,
/// which skip it, at two n, two ε and two shared seeds. The reused
/// scratch therefore meets key samples of several lengths, thresholds
/// under another shared seed, a different number of thresholds per
/// query, and queries that leave its quantile buffers untouched: its
/// arrival-group maps must be found when their key matches and rebuilt
/// when it does not.
#[test]
fn reused_scratch_builds_the_rules_of_a_fresh_one() {
    let heavy = Family::LargeDominated {
        heavy: 4,
        heavy_profit: 1 << 20,
    };
    let instances = [
        (instance(Family::SmallDominated, 300), true),
        (instance(heavy, 300), false),
        (instance(Family::SmallDominated, 1200), true),
        (instance(heavy, 1200), false),
    ];
    let oracles: Vec<InstanceOracle> = instances
        .iter()
        .map(|(norm, _)| InstanceOracle::new(norm))
        .collect();
    let lcas = [(1, 6), (1, 7)].map(|(num, den)| {
        LcaKp::new(Epsilon::new(num, den).unwrap())
            .unwrap()
            .with_budget(SampleBudget::Calibrated { factor: 0.0001 })
    });
    let shared_seeds = [Seed::from_entropy_u64(41), Seed::from_entropy_u64(42)];

    let mut reused = QueryScratch::default();
    let mut estimated = 0;
    for query in 0..24u64 {
        // Visit the instances in an order that mixes both n and both
        // branches: 0, 3, 2, 1, 0, 3, …; switch ε every six queries and
        // the shared seed on a period of five, so consecutive estimating
        // queries sometimes share both and sometimes not.
        let index = (query * 3 % 4) as usize;
        let (_, estimates) = instances[index];
        let oracle = &oracles[index];
        let lca = &lcas[(query / 6 % 2) as usize];
        let shared = &shared_seeds[(query % 5 % 2) as usize];
        let stream = Seed::from_entropy_u64(1_000 + query);

        let with_reused = lca
            .build_rule_in(oracle, &mut stream.rng(), shared, &mut reused)
            .unwrap();
        let with_fresh = lca
            .build_rule_in(
                oracle,
                &mut stream.rng(),
                shared,
                &mut QueryScratch::default(),
            )
            .unwrap();
        assert_eq!(with_reused, with_fresh, "query {query} on instance {index}");

        if estimates {
            // The thresholds fed the small-item cut-off.
            assert!(with_reused.e_small.is_some(), "query {query}");
            estimated += 1;
        } else {
            assert!(!with_reused.large_selected.is_empty(), "query {query}");
        }
    }
    assert_eq!(estimated, 12);
}

/// The map of a threshold is keyed by (shared seed, padded length `2n`,
/// `−∞` count), where `n` counts the estimation draws that were not
/// large and the `−∞` count follows from `n` and the threshold. Under one
/// shared seed, an instance with no large items keeps every draw, so `n`
/// repeats and only the first query builds maps. An instance whose large
/// items hold part of the profit, yet leave enough residual profit for
/// estimation to run, keeps a fresh binomial count of draws per query, so
/// every threshold rebuilds its map on every query.
#[test]
fn maps_are_reused_only_while_the_kept_key_count_repeats() {
    let lca = LcaKp::new(Epsilon::new(1, 6).unwrap())
        .unwrap()
        .with_budget(SampleBudget::Calibrated { factor: 0.0001 });
    let shared = Seed::from_entropy_u64(41);
    // 4 heavy items of profit 100 against ~1,200 unit items: about a
    // quarter of the profit, each item large, the rest left to estimate.
    let mixed = Family::LargeDominated {
        heavy: 4,
        heavy_profit: 100,
    };
    for (family, hits_after_first) in [(Family::SmallDominated, true), (mixed, false)] {
        let norm = instance(family, 1200);
        let oracle = InstanceOracle::new(&norm);
        let mut scratch = QueryScratch::default();
        let mut first_builds = 0;
        for query in 0..8u64 {
            let before = scratch.quantile_map_builds();
            let stream = Seed::from_entropy_u64(1_000 + query);
            let with_reused = lca
                .build_rule_in(&oracle, &mut stream.rng(), &shared, &mut scratch)
                .unwrap();
            let with_fresh = lca
                .build_rule_in(
                    &oracle,
                    &mut stream.rng(),
                    &shared,
                    &mut QueryScratch::default(),
                )
                .unwrap();
            assert_eq!(with_reused, with_fresh, "{family}, query {query}");
            assert_eq!(
                with_reused.large_selected.is_empty(),
                hits_after_first,
                "{family}, query {query}"
            );

            let builds = scratch.quantile_map_builds() - before;
            if query == 0 {
                assert!(builds > 0, "{family}: estimation must shuffle");
                first_builds = builds;
            } else if hits_after_first {
                assert_eq!(builds, 0, "{family}, query {query}");
            } else {
                assert_eq!(builds, first_builds, "{family}, query {query}");
            }
        }
    }
}

/// Silent corruption can deliver one large id with two different
/// profits in one query, and can inflate a small item past the large
/// cut-off. A reused scratch keeps the first arrival of each id, as a
/// fresh one does, so the audited answers and the rules match.
#[test]
fn reused_scratch_matches_a_fresh_one_under_silent_corruption() {
    let lca = LcaKp::new(Epsilon::new(1, 6).unwrap())
        .unwrap()
        .with_budget(SampleBudget::Calibrated { factor: 0.0001 });
    let shared = Seed::from_entropy_u64(41);
    let mixed = Family::LargeDominated {
        heavy: 4,
        heavy_profit: 100,
    };
    let norm = instance(mixed, 1200);
    let oracle = InstanceOracle::new(&norm);
    let plan = FaultPlan::corrupting(0.05, 40);

    let mut reused = QueryScratch::default();
    let mut corrupted = 0;
    let mut with_large = 0;
    for query in 0..12u64 {
        let fault_seed = Seed::from_entropy_u64(500 + query);
        let stream = Seed::from_entropy_u64(1_000 + query);
        let item = ItemId((query as usize * 97) % norm.len());
        let run = |scratch: &mut QueryScratch| {
            let faulty = FaultyOracle::new(&oracle, plan, fault_seed);
            let audited = lca
                .query_with_audit_in(&faulty, &mut stream.rng(), item, &shared, scratch)
                .unwrap();
            let corrupted = faulty.fault_report().corrupted_reads;
            let faulty = FaultyOracle::new(&oracle, plan, fault_seed);
            let rule = lca
                .build_rule_in(&faulty, &mut stream.rng(), &shared, scratch)
                .unwrap();
            (audited, rule, corrupted)
        };
        let with_reused = run(&mut reused);
        let with_fresh = run(&mut QueryScratch::default());
        assert_eq!(with_reused, with_fresh, "query {query}");
        corrupted += with_reused.2;
        with_large += usize::from(!with_reused.1.large_selected.is_empty());
    }
    assert!(corrupted > 0, "the plan must corrupt some reads");
    assert!(with_large > 0, "some rule must select large items");
}

/// An item of weight 0 and positive profit has infinite efficiency, so
/// its key is `u64::MAX`. Next to finite keys that spreads the kept keys
/// over the whole 64-bit range, where a key and its position no longer
/// share one 64-bit sort record. A reused scratch that alternates
/// between such samples and narrow ones builds the rules a fresh one
/// builds. Each side runs under its own shared seed, so the first query
/// of every visit reshuffles its thresholds' maps: on the wide side in
/// the dead second buffer of a `u128` sort, in a scratch that last
/// sorted (and shuffled in) `u64` records.
#[test]
fn reused_scratch_switches_record_widths() {
    let narrow = instance(Family::SmallDominated, 400);
    // 400 small items and one of weight 0 holding ~1% of the profit:
    // small at ε = 1/6, and drawn about once per hundred draws.
    let wide = NormalizedInstance::new(
        Instance::from_pairs(
            (0..400u64)
                .map(|i| (50 + i % 50, 10 + i * 7 % 90))
                .chain([(300, 0)]),
            8_000,
        )
        .unwrap(),
    )
    .unwrap();
    let zero_weight = ItemId(400);
    assert_eq!(wide.tie_broken_efficiency_key(zero_weight), u64::MAX);
    let oracles = [InstanceOracle::new(&narrow), InstanceOracle::new(&wide)];
    let lca = LcaKp::new(Epsilon::new(1, 6).unwrap())
        .unwrap()
        .with_budget(SampleBudget::Calibrated { factor: 0.0001 });
    let shared_seeds = [Seed::from_entropy_u64(41), Seed::from_entropy_u64(42)];

    let mut reused = QueryScratch::default();
    for query in 0..8u64 {
        // Two queries on each side in turn: 0, 0, 1, 1, 0, 0, …
        let side = (query / 2 % 2) as usize;
        let (oracle, shared) = (&oracles[side], &shared_seeds[side]);
        let stream = Seed::from_entropy_u64(1_000 + query);
        let builds_before = reused.quantile_map_builds();
        let with_reused = lca
            .build_rule_in(oracle, &mut stream.rng(), shared, &mut reused)
            .unwrap();
        let with_fresh = lca
            .build_rule_in(
                oracle,
                &mut stream.rng(),
                shared,
                &mut QueryScratch::default(),
            )
            .unwrap();
        assert_eq!(with_reused, with_fresh, "query {query}");
        assert!(with_reused.e_small.is_some(), "query {query}");
        if query % 2 == 0 {
            assert!(
                reused.quantile_map_builds() > builds_before,
                "query {query} must shuffle"
            );
        }
    }
}
