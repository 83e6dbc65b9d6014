//! Property-based cross-checks of the Knapsack substrate through the
//! facade: exact solvers agree; approximation guarantees hold on random
//! instances; the IKY reduction respects Lemma 4.4's band.

use lca_knapsack::knapsack::iky::{
    exact_eps, tilde_optimum, verify_eps, Epsilon, Partition, TildeInstance, MU_SHIFT,
};
use lca_knapsack::knapsack::{solvers, Instance, NormalizedInstance};
use proptest::prelude::*;

fn arb_instance(max_items: usize) -> impl Strategy<Value = Instance> {
    (
        proptest::collection::vec((0u64..200, 0u64..100), 1..max_items),
        0u64..400,
    )
        .prop_map(|(pairs, capacity)| Instance::from_pairs(pairs, capacity).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// All four exact solvers compute the same optimum.
    #[test]
    fn exact_solvers_agree(instance in arb_instance(18)) {
        let dp_w = solvers::dp_by_weight(&instance).unwrap().value;
        let dp_p = solvers::dp_by_profit(&instance).unwrap().value;
        let bb = solvers::branch_and_bound(&instance).unwrap().value;
        let brute = solvers::brute_force(&instance).unwrap().value;
        let mitm = solvers::meet_in_the_middle(&instance).unwrap().value;
        prop_assert_eq!(dp_w, dp_p);
        prop_assert_eq!(dp_w, bb);
        prop_assert_eq!(dp_w, brute);
        prop_assert_eq!(dp_w, mitm);
    }

    /// Modified greedy is a genuine 1/2-approximation ([WS11, Ex 3.1]).
    #[test]
    fn modified_greedy_is_half_approx(instance in arb_instance(18)) {
        let optimum = solvers::dp_by_weight(&instance).unwrap().value;
        let greedy = solvers::modified_greedy(&instance);
        prop_assert!(greedy.selection.is_feasible(&instance));
        prop_assert!(2 * greedy.value >= optimum,
            "greedy {} vs OPT {optimum}", greedy.value);
    }

    /// FPTAS achieves (1 − ε)·OPT ([WS11, §3.2]).
    #[test]
    fn fptas_achieves_one_minus_eps(instance in arb_instance(15)) {
        let optimum = solvers::dp_by_weight(&instance).unwrap().value;
        let eps = Epsilon::new(1, 4).unwrap();
        let outcome = solvers::fptas(&instance, eps).unwrap();
        prop_assert!(outcome.selection.is_feasible(&instance));
        // value ≥ (1 − ε)·OPT, in exact integer arithmetic: 4·v ≥ 3·OPT.
        prop_assert!(4 * outcome.value >= 3 * optimum,
            "fptas {} vs OPT {optimum}", outcome.value);
    }

    /// The fractional relaxation upper-bounds the 0/1 optimum, and the
    /// prefix greedy lower-bounds it.
    #[test]
    fn relaxation_sandwich(instance in arb_instance(16)) {
        let optimum = solvers::dp_by_weight(&instance).unwrap().value;
        let upper = solvers::fractional::fractional_upper_bound(&instance);
        let lower = solvers::greedy_prefix(&instance).outcome.value;
        prop_assert!(upper >= optimum);
        prop_assert!(lower <= optimum);
    }

    /// Lemma 4.4 with the exact EPS: |OPT(Ĩ) − OPT(I)| ≤ 6ε normalized.
    #[test]
    fn itilde_tracks_the_optimum(instance in arb_instance(20)) {
        prop_assume!(instance.total_profit() > 0 && instance.total_weight() > 0);
        let norm = NormalizedInstance::new(instance).unwrap();
        let eps = Epsilon::new(1, 4).unwrap();
        let partition = Partition::compute(&norm, eps);
        let seq = exact_eps(&norm, eps, &partition);
        let tilde = TildeInstance::build_from_instance(&norm, eps, partition.large(), &seq);
        let Ok(opt_mu) = tilde_optimum(&tilde) else { return Ok(()); };
        let tilde_opt = opt_mu as f64 / (1u128 << MU_SHIFT) as f64;
        let optimum = solvers::dp_by_weight(norm.as_instance()).unwrap().value;
        let normalized_opt = optimum as f64 / norm.total_profit() as f64;
        prop_assert!((tilde_opt - normalized_opt).abs() <= 6.0 * eps.as_f64() + 1e-9,
            "OPT(Ĩ) = {tilde_opt} vs OPT = {normalized_opt}");
        // The verification report never panics and is internally coherent.
        let verification = verify_eps(&norm, eps, &partition, &seq);
        prop_assert_eq!(verification.buckets.len(), seq.len() + 1);
    }

    /// Selections audited through the facade agree with raw arithmetic.
    #[test]
    fn audit_arithmetic(instance in arb_instance(12)) {
        let outcome = solvers::modified_greedy(&instance);
        let audit = outcome.selection.audit(&instance);
        prop_assert_eq!(audit.value, outcome.value);
        prop_assert_eq!(audit.feasible, audit.weight <= instance.capacity());
    }
}
