//! E18 — traffic-driven cluster runtime and admission-coupled ring
//! rebalancing.
//!
//! The rebalance simulator (`lcakp-sim::rebalance`) derives
//! seed-replayable traffic-and-fault schedules — hot-shard, bursty, and
//! query-of-death arrival shapes, optionally surged, with node crashes,
//! restarts, and partitions layered on — and serves them through the
//! simulated cluster twice per case: once with the admission-coupled
//! [`RebalanceController`] armed, and once with the ring frozen at boot
//! (the no-rebalance twin). The E18 invariants hold on the controlled
//! run's own audit trail: every promotion cites an overloaded signal
//! and a live under-loaded target, no shard ping-pongs past the
//! per-window bound, ring epochs strictly increase and survive crash
//! recovery, and every acknowledged answer is byte-identical to the
//! shard's standalone replay — migration is invisible in the answer
//! bytes because LCA-KP queries are stateless (Definition 2.4), which
//! is the whole reason shard promotion is safe to do mid-trace.
//!
//! Two demonstrations:
//!
//! * faithful routing survives the default seed range with zero
//!   violations, and a hot-shard scenario is demonstrably *relieved*:
//!   neither the hottest node's p99 nor the cluster shed rate gets
//!   worse than the frozen-ring twin's, and at least one strictly
//!   improves;
//! * the deliberately planted stale-epoch router (keeps serving from
//!   the boot ring view after a promotion) is caught shedding on epoch
//!   mismatches and auto-shrunk to a minimal replayable repro.
//!
//! `--smoke` prints only the committed smoke range's canonical JSON
//! for CI to diff against `crates/sim/tests/golden/e18_smoke.json`.
//!
//! [`RebalanceController`]: lcakp_service::RebalanceController

use lcakp_bench::{banner, experiment_root, Table};
use lcakp_service::RebalanceDiscipline;
use lcakp_sim::{
    run_range, run_rebalance_smoke, RebalanceSimConfig, RebalanceWorld, SimEvent, Violation,
    E18_SMOKE_CASES,
};

fn main() {
    // lcakp-lint: allow(D002) reason="--smoke flag selects the CI golden output, no entropy involved"
    let smoke_only = std::env::args().any(|arg| arg == "--smoke");
    let root = experiment_root("e18");

    if smoke_only {
        let json = run_rebalance_smoke(&root).expect("smoke range runs");
        println!("{json}");
        return;
    }

    banner(
        "E18",
        "admission-coupled rebalancing relieves hot shards, and a stale-epoch router shrinks",
        "statelessness makes migration free: any replica serves any shard byte-identically",
    );

    // ---- Part 1: faithful routing survives and relieves. ----
    let config = RebalanceSimConfig::default();
    let world = RebalanceWorld::build(&root, &config).expect("world builds");
    let report = run_range(&root, &world, 0..E18_SMOKE_CASES).expect("range runs");
    let mut table = Table::new([
        "case",
        "events",
        "answered",
        "shed",
        "promotions",
        "epoch",
        "p99 vs twin",
        "shed\u{2030} vs twin",
        "relieved",
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
            case.stats.answered.to_string(),
            case.stats.shed.to_string(),
            case.stats.promotions.to_string(),
            case.stats.final_epoch.to_string(),
            format!("{}/{}", case.stats.p99_ticks, case.stats.twin_p99_ticks),
            format!(
                "{}/{}",
                case.stats.shed_permille, case.stats.twin_shed_permille
            ),
            case.stats.relieved.to_string(),
            case.violations.len().to_string(),
        ]);
    }
    table.print();
    assert_eq!(
        report.total_violations(),
        0,
        "faithful routing must survive the default seed range"
    );
    let promotions: usize = report.cases.iter().map(|case| case.stats.promotions).sum();
    assert!(
        promotions > 0,
        "the range must actually push some node into promoting a replica"
    );
    assert!(
        report.hot_shard_relieved(),
        "a hot-shard scenario must be demonstrably relieved vs the frozen-ring twin"
    );
    assert!(
        report
            .cases
            .iter()
            .any(|case| case.stats.failovers > 0 || case.stats.promotions > 0),
        "the range must exercise ownership changes"
    );
    println!(
        "\n{E18_SMOKE_CASES} cases, {promotions} promotions, 0 invariant violations, \
         a hot-shard scenario demonstrably relieved vs its frozen-ring twin."
    );

    // ---- Part 2: the planted stale-epoch router shrinks. ----
    let buggy = RebalanceSimConfig {
        routing: RebalanceDiscipline::StaleEpoch,
        ..RebalanceSimConfig::default()
    };
    let buggy_world = RebalanceWorld::build(&root, &buggy).expect("buggy world builds");
    let buggy_report =
        run_range(&root, &buggy_world, 0..E18_SMOKE_CASES).expect("buggy range runs");
    let repro = buggy_report
        .repro
        .as_ref()
        .expect("the stale-epoch router must violate within the range");
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
        repro.shrunk.events.len() <= 2,
        "the shrunk repro must be minimal"
    );
    assert!(repro
        .shrunk
        .events
        .iter()
        .any(|event| matches!(event, SimEvent::Traffic { .. })));
    assert!(repro
        .shrunk
        .violations
        .iter()
        .any(|violation| matches!(violation, Violation::StaleEpochShed { .. })));

    println!(
        "\nExpected shape: under hot-shard and surge load the controller promotes an\n\
         under-loaded replica for the hottest shard (epoch bumps, journaled on every\n\
         live node), answers stay byte-identical to the standalone replay across the\n\
         migration, and the planted stale-epoch router sheds on epoch mismatches and\n\
         shrinks to a bare traffic-event repro.\n\n\
         All E18 acceptance assertions passed."
    );
}
