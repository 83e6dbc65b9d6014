//! The E15 acceptance tests:
//!
//! * the default seed range, crash+restart faults enabled, reports
//!   **zero** invariant violations under faithful recovery;
//! * a deliberately planted recovery bug (skipping journal replay) is
//!   caught and shrunk to a repro of ≤ 5 events;
//! * the smoke JSON is byte-identical across runs and matches the
//!   committed golden.

use lcakp_oracle::Seed;
use lcakp_service::RecoveryDiscipline;
use lcakp_sim::{run_range, run_smoke, SimConfig, SimEvent, SimWorld, Violation};

/// Mirrors `lcakp_bench::experiment_root("e15")`, so the golden test,
/// the bench bin, and CI all replay the identical range.
fn e15_root() -> Seed {
    Seed::from_entropy_u64(0x1ca_4b2e_2025).derive("e15", 0)
}

fn world(config: &SimConfig) -> SimWorld {
    SimWorld::build(&e15_root(), config).expect("world builds")
}

#[test]
fn default_seed_range_with_crash_faults_has_zero_violations() {
    let config = SimConfig::default();
    let report = run_range(&e15_root(), &world(&config), 0..8).expect("range runs");
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
    // every schedule carries a crash, and at least one crash must fire.
    assert!(
        report.cases.iter().all(|case| case
            .events
            .iter()
            .any(|event| matches!(event, SimEvent::Crash { .. }))),
        "every generated schedule must contain a crash"
    );
    assert!(
        report.cases.iter().any(|case| case.stats.crashes > 0),
        "no crash fired across the whole range"
    );
}

#[test]
fn planted_skip_journal_replay_bug_is_caught_and_shrunk() {
    let config = SimConfig {
        recovery: RecoveryDiscipline::SkipJournalReplay,
        ..SimConfig::default()
    };
    let report = run_range(&e15_root(), &world(&config), 0..8).expect("range runs");
    let repro = report
        .repro
        .as_ref()
        .expect("the planted bug must violate somewhere in the range");
    assert!(
        repro.shrunk.events.len() <= 5,
        "repro did not shrink: {} events\n{}",
        repro.shrunk.events.len(),
        repro.render()
    );
    // Skipping replay silently drops pre-crash dispositions, so the
    // surviving violation must be a liveness break (a dropped query) or
    // a divergence from the crash-free twin.
    assert!(
        repro.shrunk.violations.iter().any(|violation| matches!(
            violation,
            Violation::MissingOutcome { .. } | Violation::OutcomeDiverged { .. }
        )),
        "unexpected violation mix: {:?}",
        repro.shrunk.violations
    );
    // The minimal repro still needs a crash — the bug is in recovery,
    // after all — and renders replayably.
    assert!(repro
        .shrunk
        .events
        .iter()
        .any(|event| matches!(event, SimEvent::Crash { .. })));
    let rendered = repro.render();
    assert!(rendered.contains("crash(worker="), "{rendered}");
    assert!(rendered.contains("violation: "), "{rendered}");
}

#[test]
fn smoke_json_is_byte_identical_across_runs_and_matches_the_golden() {
    let first = run_smoke(&e15_root()).expect("smoke runs");
    let second = run_smoke(&e15_root()).expect("smoke reruns");
    assert_eq!(
        first, second,
        "the simulator must be byte-identical across runs"
    );
    // Regenerate with:
    //   LCAKP_REGEN_GOLDEN=1 cargo test -p lcakp-sim --test simulation
    // lcakp-lint: allow(D002) reason="opt-in golden regeneration for developers, no seeded behavior depends on it"
    if std::env::var_os("LCAKP_REGEN_GOLDEN").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/e15_smoke.json");
        std::fs::write(path, format!("{}\n", first.trim_end())).expect("golden writes");
        return;
    }
    let golden = include_str!("golden/e15_smoke.json");
    assert_eq!(
        first.trim_end(),
        golden.trim_end(),
        "smoke output drifted from the committed golden; regenerate with\n\
         LCAKP_REGEN_GOLDEN=1 cargo test -p lcakp-sim --test simulation"
    );
}
