//! The E16 acceptance tests:
//!
//! * the default seed range — node crashes, restarts, partitions —
//!   reports **zero** invariant violations under faithful routing;
//! * the deliberately planted stale-ring routing bug is caught and
//!   shrunk to a repro of ≤ 3 events;
//! * the smoke JSON is byte-identical across runs and matches the
//!   committed golden.

use lcakp_oracle::Seed;
use lcakp_service::RoutingDiscipline;
use lcakp_sim::{
    run_cluster_smoke, run_range, ClusterSimConfig, ClusterWorld, SimEvent, Violation,
};

/// Mirrors `lcakp_bench::experiment_root("e16")`, so the golden test,
/// the bench bin, and CI all replay the identical range.
fn e16_root() -> Seed {
    Seed::from_entropy_u64(0x1ca_4b2e_2025).derive("e16", 0)
}

fn world(config: &ClusterSimConfig) -> ClusterWorld {
    ClusterWorld::build(&e16_root(), config).expect("world builds")
}

#[test]
fn default_seed_range_with_node_faults_has_zero_violations() {
    let config = ClusterSimConfig::default();
    let report = run_range(&e16_root(), &world(&config), 0..8).expect("range runs");
    for case in &report.cases {
        assert!(
            case.violations.is_empty(),
            "case {} violated: {:?}\nevents: {:?}",
            case.case,
            case.violations,
            case.events
        );
    }
    assert!(report.repro.is_none());
    // The range must actually exercise the machinery it certifies:
    // every schedule carries a node crash, crashes must fire, and at
    // least one shard must survive an ownership change.
    assert!(
        report.cases.iter().all(|case| case
            .events
            .iter()
            .any(|event| matches!(event, SimEvent::NodeCrash { .. }))),
        "every generated schedule must contain a node crash"
    );
    assert!(
        report.cases.iter().any(|case| case.stats.node_crashes > 0),
        "no node crash fired across the whole range"
    );
    assert!(
        report.cases.iter().any(|case| case.stats.failovers > 0),
        "no shard failed over across the whole range"
    );
    assert!(
        report.cases.iter().any(|case| case
            .events
            .iter()
            .any(|event| matches!(event, SimEvent::Partition { .. }))),
        "the range must include at least one partition"
    );
}

#[test]
fn planted_stale_ring_bug_is_caught_and_shrunk() {
    let config = ClusterSimConfig {
        routing: RoutingDiscipline::StaleRing,
        ..ClusterSimConfig::default()
    };
    let report = run_range(&e16_root(), &world(&config), 0..8).expect("range runs");
    let repro = report
        .repro
        .as_ref()
        .expect("stale-ring routing must violate somewhere in the range");
    assert!(
        repro.shrunk.events.len() <= 3,
        "repro did not shrink: {} events\n{}",
        repro.shrunk.events.len(),
        repro.render()
    );
    // The stale router sheds while the audit trail proves a live
    // replica was reachable — that is the bug's signature — and the
    // sheds also diverge from the fault-free twin.
    assert!(
        repro
            .shrunk
            .violations
            .iter()
            .any(|violation| matches!(violation, Violation::ShedWithLiveReplica { .. })),
        "unexpected violation mix: {:?}",
        repro.shrunk.violations
    );
    assert!(repro
        .shrunk
        .events
        .iter()
        .any(|event| matches!(event, SimEvent::NodeCrash { .. })));
    let rendered = repro.render();
    assert!(rendered.contains("node-crash(node="), "{rendered}");
    assert!(rendered.contains("shed-with-live-replica("), "{rendered}");
}

#[test]
fn cluster_smoke_json_is_byte_identical_across_runs_and_matches_the_golden() {
    let first = run_cluster_smoke(&e16_root()).expect("smoke runs");
    let second = run_cluster_smoke(&e16_root()).expect("smoke reruns");
    assert_eq!(
        first, second,
        "the cluster simulator must be byte-identical across runs"
    );
    // Regenerate with:
    //   LCAKP_REGEN_GOLDEN=1 cargo test -p lcakp-sim --test cluster_sim
    // lcakp-lint: allow(D002) reason="opt-in golden regeneration for developers, no seeded behavior depends on it"
    if std::env::var_os("LCAKP_REGEN_GOLDEN").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/e16_smoke.json");
        std::fs::write(path, format!("{}\n", first.trim_end())).expect("golden writes");
        return;
    }
    let golden = include_str!("golden/e16_smoke.json");
    assert_eq!(
        first.trim_end(),
        golden.trim_end(),
        "smoke output drifted from the committed golden; regenerate with\n\
         LCAKP_REGEN_GOLDEN=1 cargo test -p lcakp-sim --test cluster_sim"
    );
}
