//! E16 — simulated multi-node cluster: replica failover, partition
//! tolerance, and node-level fault simulation.
//!
//! The cluster simulator (`lcakp-sim::cluster`) sends one fixed steady
//! trace through the arrival-driven cluster engine, with admission and
//! rebalancing off, under each case's node crashes (some tearing the
//! node's last journal append), restarts, and network partitions. It
//! checks that no arrival is silently dropped (a shard that genuinely
//! lost every reachable replica sheds with a typed `node-unreachable` /
//! `partitioned` reason), that the routing audit trail never records a
//! shed while a live replica was reachable, that every node's journal
//! stays decodable and holds every answer it acknowledged, and that
//! every acknowledged answer is byte-identical to its shard's
//! standalone replay (Theorem 4.1's consistency guarantee is what makes
//! replication free).
//!
//! Two demonstrations:
//!
//! * the default seed range under faithful routing reports **zero**
//!   invariant violations while mixing crashes, restarts, and
//!   partitions;
//! * the deliberately planted stale-ring routing bug (the router routes
//!   to the boot primary only and never fails over) is caught and
//!   auto-shrunk to a minimal replayable repro.
//!
//! `--smoke` prints only the committed smoke range's canonical JSON
//! for CI to diff against `crates/sim/tests/golden/e16_smoke.json`.

use lcakp_bench::{banner, experiment_root, Table};
use lcakp_service::RebalanceDiscipline;
use lcakp_sim::{
    run_cluster_smoke, run_range, ClusterSimConfig, ClusterWorld, SimEvent, Violation,
};

/// Cases the full (non-smoke) demonstration covers.
const DEFAULT_CASES: u64 = 12;

fn main() {
    // lcakp-lint: allow(D002) reason="--smoke flag selects the CI golden output, no entropy involved"
    let smoke_only = std::env::args().any(|arg| arg == "--smoke");
    let root = experiment_root("e16");

    if smoke_only {
        let json = run_cluster_smoke(&root).expect("smoke range runs");
        println!("{json}");
        return;
    }

    banner(
        "E16",
        "simulated cluster: failover and partitions are byte-invisible, and a stale router shrinks",
        "Definition 2.4 statelessness makes replication free: any replica serves a shard byte-identically",
    );

    // ---- Part 1: faithful routing survives the default range. ----
    let config = ClusterSimConfig::default();
    let world = ClusterWorld::build(&root, &config).expect("world builds");
    let report = run_range(&root, &world, 0..DEFAULT_CASES).expect("range runs");
    let mut table = Table::new([
        "case",
        "events",
        "node-crashes",
        "failovers",
        "answered",
        "shed",
        "violations",
    ]);
    for case in &report.cases {
        let events = case
            .events
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("; ");
        table.row([
            case.case.to_string(),
            events,
            case.stats.node_crashes.to_string(),
            case.stats.failovers.to_string(),
            case.stats.answered.to_string(),
            case.stats.shed.to_string(),
            case.violations.len().to_string(),
        ]);
    }
    table.print();
    assert_eq!(
        report.total_violations(),
        0,
        "faithful routing must survive the default seed range"
    );
    let crashes: usize = report
        .cases
        .iter()
        .map(|case| case.stats.node_crashes)
        .sum();
    let failovers: usize = report.cases.iter().map(|case| case.stats.failovers).sum();
    assert!(crashes > 0, "the range must actually kill nodes");
    assert!(failovers > 0, "the range must actually fail shards over");
    assert!(
        report.cases.iter().any(|case| case
            .events
            .iter()
            .any(|event| matches!(event, SimEvent::Partition { .. }))),
        "the range must include at least one partition"
    );
    assert!(
        report.cases.iter().any(|case| case
            .events
            .iter()
            .any(|event| matches!(event, SimEvent::NodeRestart { .. }))),
        "the range must include at least one node restart"
    );
    println!(
        "\n{DEFAULT_CASES} cases, {crashes} node crashes fired, {failovers} shard failovers, \
         0 invariant violations."
    );

    // ---- Part 2: the planted stale-ring routing bug shrinks. ----
    let buggy = ClusterSimConfig {
        routing: RebalanceDiscipline::StaleRing,
        ..ClusterSimConfig::default()
    };
    let buggy_world = ClusterWorld::build(&root, &buggy).expect("buggy world builds");
    let buggy_report = run_range(&root, &buggy_world, 0..DEFAULT_CASES).expect("buggy range runs");
    let repro = buggy_report
        .repro
        .as_ref()
        .expect("stale-ring routing must violate within the range");
    println!(
        "\nplanted bug {} caught: {} violating case(s) in the range",
        buggy.routing,
        buggy_report
            .cases
            .iter()
            .filter(|case| !case.violations.is_empty())
            .count()
    );
    print!("{}", repro.render());
    assert!(
        repro.shrunk.events.len() <= 3,
        "the shrunk repro must be minimal"
    );
    assert!(repro
        .shrunk
        .events
        .iter()
        .any(|event| matches!(event, SimEvent::NodeCrash { .. })));
    assert!(repro
        .shrunk
        .violations
        .iter()
        .any(|violation| matches!(violation, Violation::ShedWithLiveReplica { .. })));

    println!(
        "\nExpected shape: every faithful case answers each arrival byte-identically to\n\
         its shard's standalone replay (node-unreachable/partitioned sheds only for\n\
         shards that truly lost every reachable replica), while the planted stale-ring\n\
         router sheds work the audit trail proves a live replica could have served, and\n\
         shrinks to a bare node-crash repro.\n\n\
         All E16 acceptance assertions passed."
    );
}
