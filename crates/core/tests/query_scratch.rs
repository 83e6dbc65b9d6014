//! `QueryScratch` keeps only capacity between queries, never contents: a
//! scratch reused across queries of different shapes and sizes builds
//! exactly the rule a fresh scratch builds.

use lcakp_core::{LcaKp, QueryScratch};
use lcakp_knapsack::iky::Epsilon;
use lcakp_knapsack::NormalizedInstance;
use lcakp_oracle::{InstanceOracle, Seed};
use lcakp_reproducible::SampleBudget;
use lcakp_workloads::{Family, WorkloadSpec};

fn instance(family: Family, n: usize) -> NormalizedInstance {
    WorkloadSpec::new(family, n, 3)
        .generate_normalized()
        .expect("workload generates")
}

/// Interleaves SmallDominated queries, which run the full EPS estimation
/// (t rQuantiles over one sorted key sample), with LargeDominated ones,
/// which skip it, at two n. The reused scratch therefore meets key
/// samples of several lengths and queries that leave its quantile buffers
/// untouched.
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
    let lca = LcaKp::new(Epsilon::new(1, 6).unwrap())
        .unwrap()
        .with_budget(SampleBudget::Calibrated { factor: 0.0001 });
    let shared = Seed::from_entropy_u64(41);

    let mut reused = QueryScratch::default();
    let mut estimated = 0;
    for query in 0..16u64 {
        // Visit the instances in an order that mixes both n and both
        // branches: 0, 3, 2, 1, 0, 3, …
        let index = (query * 3 % 4) as usize;
        let (_, estimates) = instances[index];
        let oracle = &oracles[index];
        let stream = Seed::from_entropy_u64(1_000 + query);

        let with_reused = lca
            .build_rule_in(oracle, &mut stream.rng(), &shared, &mut reused)
            .unwrap();
        let with_fresh = lca
            .build_rule_in(
                oracle,
                &mut stream.rng(),
                &shared,
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
    assert_eq!(estimated, 8);
}
