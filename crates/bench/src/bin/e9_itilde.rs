//! E9 — Definition 4.3 / Lemma 4.4: the EPS construction balances bucket
//! masses, and `OPT(Ĩ) − ε` is a `(1, 6ε)`-approximation of `OPT(I)`.

use lcakp_bench::{banner, experiment_root, Table};
use lcakp_core::iky_value::iky_value_estimate;
use lcakp_knapsack::iky::{
    exact_eps, tilde_optimum, verify_eps, Epsilon, Partition, TildeInstance, MU_SHIFT,
};
use lcakp_knapsack::solvers;
use lcakp_oracle::InstanceOracle;
use lcakp_workloads::standard_suite;

fn main() {
    banner(
        "E9",
        "OPT(Ĩ) tracks OPT(I) within 6ε; exact EPS buckets sit in [ε, ε+ε²)",
        "Definition 4.3, Lemma 4.4 ([IKY12, Lemma 1])",
    );

    let n = 250;
    let mut table = Table::new([
        "workload",
        "eps",
        "EPS len",
        "EPS valid",
        "OPT(I)/P",
        "OPT(Ĩ)",
        "|diff|",
        "<= 6eps",
    ]);
    for spec in standard_suite(n, 0xE9) {
        let norm = match spec.generate_normalized() {
            Ok(norm) => norm,
            Err(err) => {
                eprintln!("skipping {spec}: {err}");
                continue;
            }
        };
        let optimum = match solvers::dp_by_weight(norm.as_instance()) {
            Ok(outcome) => outcome.value,
            Err(_) => continue,
        };
        let normalized_opt = optimum as f64 / norm.total_profit() as f64;
        for &(num, den) in &[(1u64, 4u64), (1, 8)] {
            let eps = Epsilon::new(num, den).expect("valid eps");
            let partition = Partition::compute(&norm, eps);
            let seq = exact_eps(&norm, eps, &partition);
            let verification = verify_eps(&norm, eps, &partition, &seq);
            let tilde = TildeInstance::build_from_instance(&norm, eps, partition.large(), &seq);
            let Ok(opt_mu) = tilde_optimum(&tilde) else {
                continue;
            };
            let tilde_opt = opt_mu as f64 / (1u128 << MU_SHIFT) as f64;
            let diff = (tilde_opt - normalized_opt).abs();
            table.row([
                spec.family.to_string(),
                format!("{num}/{den}"),
                seq.len().to_string(),
                verification.is_eps.to_string(),
                format!("{normalized_opt:.4}"),
                format!("{tilde_opt:.4}"),
                format!("{diff:.4}"),
                (diff <= 6.0 * eps.as_f64() + 1e-9).to_string(),
            ]);
        }
    }
    table.print();

    println!("\nSampled IKY12 value estimates (the [IKY12] algorithm end to end):");
    let mut table = Table::new(["workload", "eps", "estimate", "OPT/P", "|err|", "<= 7eps"]);
    for spec in standard_suite(n, 0x9E9).into_iter().take(5) {
        let norm = match spec.generate_normalized() {
            Ok(norm) => norm,
            Err(_) => continue,
        };
        let optimum = match solvers::dp_by_weight(norm.as_instance()) {
            Ok(outcome) => outcome.value,
            Err(_) => continue,
        };
        let normalized_opt = optimum as f64 / norm.total_profit() as f64;
        let eps = Epsilon::new(1, 4).expect("valid eps");
        let oracle = InstanceOracle::new(&norm);
        let mut rng = experiment_root("e9").derive("e9/sampling", 0).rng();
        let estimate = iky_value_estimate(&oracle, &mut rng, eps, 60_000).expect("estimate runs");
        let err = (estimate.value - normalized_opt).abs();
        table.row([
            spec.family.to_string(),
            "1/4".to_string(),
            format!("{:.4}", estimate.value),
            format!("{normalized_opt:.4}"),
            format!("{err:.4}"),
            (err <= 7.0 * eps.as_f64()).to_string(),
        ]);
    }
    table.print();
    println!(
        "\nExpected shape: the exact-EPS rows all verify and sit within the 6ε band; the\n\
         sampled estimates stay within ~7ε (6ε plus sampling noise)."
    );
}
