//! A serving fleet: N workers, each an independent `LCA-KP` instance
//! holding only the shared seed, each draining its own bounded queue —
//! the "hugely distributed" deployment of the paper's introduction,
//! with load accounting and a duplicate-consistency check.
//!
//! ```sh
//! cargo run --release --example cluster_serving
//! ```

use lca_knapsack::prelude::*;
use lca_knapsack::workloads::{Family, WorkloadSpec};
use lcakp_service::{serve_batch, ServiceConfig};
use std::collections::BTreeMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 300;
    let workers = 8;
    let spec = WorkloadSpec::new(
        Family::LargeDominated {
            heavy: 6,
            heavy_profit: 9_000,
        },
        n,
        7,
    );
    let norm = spec.generate_normalized()?;
    let oracle = InstanceOracle::new(&norm);
    let eps = Epsilon::new(1, 4)?;
    let lca = LcaKp::new(eps)?;
    // Single root seed for this example; every stream below derives from it.
    // lcakp-lint: allow(D005) reason="the example's single root seed constant"
    let root = Seed::from_entropy_u64(0xC1_0531);
    let seed = root.derive("cluster-serving/shared-seed", 0);
    let service_root = root.derive("cluster-serving/service", 0);

    // A realistic query log: every item once, plus a hot set queried
    // five times (by whichever workers get them).
    let mut queries: Vec<ItemId> = (0..n).map(ItemId).collect();
    for _ in 0..5 {
        queries.extend((0..n).step_by(50).map(ItemId));
    }

    let report = serve_batch(
        &lca,
        &oracle,
        &seed,
        &service_root,
        &queries,
        &ServiceConfig {
            workers,
            ..ServiceConfig::default()
        },
        None,
    )?;

    let mut loads = vec![0usize; workers];
    let mut by_item: BTreeMap<ItemId, Vec<bool>> = BTreeMap::new();
    for outcome in &report.outcomes {
        if let Some(answered) = outcome.disposition.answered() {
            loads[answered.worker] += 1;
            by_item
                .entry(outcome.item)
                .or_default()
                .push(answered.include);
        }
    }
    let duplicated: Vec<&Vec<bool>> = by_item.values().filter(|a| a.len() > 1).collect();
    let agreeing = duplicated
        .iter()
        .filter(|answers| answers.iter().all(|&x| x == answers[0]))
        .count();

    println!(
        "served {} of {} queries across {workers} workers",
        loads.iter().sum::<usize>(),
        queries.len()
    );
    println!("per-worker load: {loads:?}");
    println!(
        "hot-set duplicate agreement (same item, different workers): {agreeing}/{} items",
        duplicated.len()
    );

    let selection = report.to_selection(n);
    let audit = selection.audit(norm.as_instance());
    println!("assembled solution: {audit}");
    assert!(audit.feasible, "the fleet must serve one feasible solution");
    println!(
        "total oracle accesses: {} (~{} per query)",
        report.accesses_used(),
        report.accesses_used() / queries.len() as u64
    );
    Ok(())
}
