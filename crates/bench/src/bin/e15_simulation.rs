//! E15 — VOPR-style simulation: the crash–recovery layer of
//! `lcakp-service` under seed-derived randomized fault schedules.
//!
//! The simulator (`lcakp-sim`) runs each case twice — the faulted run
//! and its crash-free twin — and checks that crashes, torn journal
//! writes, and restarts are *byte-invisible*: every outcome equals the
//! twin's (dead workers excepted, whose shard tails shed with a typed
//! `worker-crashed` reason), every acknowledged answer is journaled,
//! journals decode cleanly, and no query is silently dropped.
//!
//! Two demonstrations:
//!
//! * the default seed range under faithful recovery reports **zero**
//!   invariant violations;
//! * a deliberately planted recovery bug (skipping journal replay)
//!   is caught and auto-shrunk to a minimal replayable repro.
//!
//! `--smoke` prints only the committed smoke range's canonical JSON
//! for CI to diff against `crates/sim/tests/golden/e15_smoke.json`.

use lcakp_bench::{banner, experiment_root, Table};
use lcakp_service::RecoveryDiscipline;
use lcakp_sim::{run_range, run_smoke, SimConfig, SimEvent, SimWorld};

/// Cases the full (non-smoke) demonstration covers.
const DEFAULT_CASES: u64 = 12;

fn main() {
    // lcakp-lint: allow(D002) reason="--smoke flag selects the CI golden output, no entropy involved"
    let smoke_only = std::env::args().any(|arg| arg == "--smoke");
    let root = experiment_root("e15");

    if smoke_only {
        let json = run_smoke(&root).expect("smoke range runs");
        println!("{json}");
        return;
    }

    banner(
        "E15",
        "deterministic simulation: crash-recovery is byte-invisible, and planted bugs shrink",
        "Theorem 4.1 consistency pushed through worker death; ARVX-style cheap per-query state",
    );

    // ---- Part 1: faithful recovery survives the default range. ----
    let config = SimConfig::default();
    let world = SimWorld::build(&root, &config).expect("world builds");
    let report = run_range(&root, &world, 0..DEFAULT_CASES).expect("range runs");
    let mut table = Table::new([
        "case",
        "events",
        "crashes",
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
            case.stats.crashes.to_string(),
            case.stats.answered.to_string(),
            case.stats.shed.to_string(),
            case.violations.len().to_string(),
        ]);
    }
    table.print();
    assert_eq!(
        report.total_violations(),
        0,
        "faithful recovery must survive the default seed range"
    );
    let fired: usize = report.cases.iter().map(|case| case.stats.crashes).sum();
    assert!(fired > 0, "the range must actually kill workers");
    println!("\n{DEFAULT_CASES} cases, {fired} worker crashes fired, 0 invariant violations.");

    // ---- Part 2: a planted recovery bug is caught and shrunk. ----
    let buggy = SimConfig {
        recovery: RecoveryDiscipline::SkipJournalReplay,
        ..SimConfig::default()
    };
    let buggy_world = SimWorld::build(&root, &buggy).expect("buggy world builds");
    let buggy_report = run_range(&root, &buggy_world, 0..DEFAULT_CASES).expect("buggy range runs");
    let repro = buggy_report
        .repro
        .as_ref()
        .expect("skip-journal-replay must violate within the range");
    println!(
        "\nplanted bug {} caught: {} violating case(s) in the range",
        buggy.recovery,
        buggy_report
            .cases
            .iter()
            .filter(|case| !case.violations.is_empty())
            .count()
    );
    print!("{}", repro.render());
    assert!(
        repro.shrunk.events.len() <= 5,
        "the shrunk repro must be minimal"
    );
    assert!(repro
        .shrunk
        .events
        .iter()
        .any(|event| matches!(event, SimEvent::Crash { .. })));

    println!(
        "\nExpected shape: every faithful case matches its crash-free twin byte for byte\n\
         (worker-crashed sheds excepted for unrevived workers), while the planted\n\
         skip-journal-replay bug silently drops pre-crash answers and shrinks to a\n\
         bare crash(+restart) repro.\n\n\
         All E15 acceptance assertions passed."
    );
}
