//! The E17 acceptance tests:
//!
//! * the default seed range — every traffic shape, half the cases
//!   carrying an overload surge — reports **zero** invariant
//!   violations under the faithful admission controller, while every
//!   scenario meets its availability SLO target;
//! * the deliberately planted non-hysteretic controller is caught
//!   flapping and shrunk to a repro of ≤ 3 events;
//! * the smoke JSON is byte-identical across runs and matches the
//!   committed golden.

use lcakp_oracle::Seed;
use lcakp_service::AdmissionDiscipline;
use lcakp_sim::{
    run_range, run_slo_smoke, SimEvent, SloSimConfig, SloWorld, Violation, E17_SMOKE_CASES,
};

/// Mirrors `lcakp_bench::experiment_root("e17")`, so the golden test,
/// the bench bin, and CI all replay the identical range.
fn e17_root() -> Seed {
    Seed::from_entropy_u64(0x1ca_4b2e_2025).derive("e17", 0)
}

fn world(config: &SloSimConfig) -> SloWorld {
    SloWorld::build(&e17_root(), config).expect("world builds")
}

#[test]
fn faithful_controller_survives_the_range_and_meets_every_slo() {
    let config = SloSimConfig::default();
    let report = run_range(&e17_root(), &world(&config), 0..E17_SMOKE_CASES).expect("range runs");
    for case in &report.cases {
        assert!(
            case.violations.is_empty(),
            "case {} violated: {:?}\nevents: {:?}",
            case.case,
            case.violations,
            case.events
        );
        assert!(
            case.stats.meets_slo,
            "case {} missed its SLO: availability {}/1000 < target {}/1000\nevents: {:?}",
            case.case,
            case.stats.availability_permille,
            case.stats.slo_target_permille,
            case.events
        );
    }
    assert!(report.repro.is_none());
    // The range must actually stress the controller it certifies:
    // every schedule carries a traffic event, some scenario must push
    // into overload and shed, the controller must transition both ways,
    // and at least one surge must be present.
    assert!(
        report.cases.iter().all(|case| case
            .events
            .iter()
            .any(|event| matches!(event, SimEvent::Traffic { .. }))),
        "every generated schedule must contain a traffic event"
    );
    assert!(
        report.cases.iter().any(|case| case.stats.shed > 0),
        "no scenario pushed the controller into shedding"
    );
    assert!(
        report.cases.iter().any(|case| case.stats.transitions >= 2),
        "no scenario drove the controller into overload and back"
    );
    assert!(
        report.cases.iter().any(|case| case
            .events
            .iter()
            .any(|event| matches!(event, SimEvent::OverloadSurge { .. }))),
        "the range must include at least one overload surge"
    );
}

#[test]
fn planted_no_hysteresis_bug_is_caught_and_shrunk() {
    let config = SloSimConfig {
        discipline: AdmissionDiscipline::NoHysteresis,
        ..SloSimConfig::default()
    };
    let report = run_range(&e17_root(), &world(&config), 0..E17_SMOKE_CASES).expect("range runs");
    let repro = report
        .repro
        .as_ref()
        .expect("the non-hysteretic controller must violate somewhere in the range");
    assert!(
        repro.shrunk.events.len() <= 3,
        "repro did not shrink: {} events\n{}",
        repro.shrunk.events.len(),
        repro.render()
    );
    // The planted bug's signature: state flips spaced closer than the
    // hysteresis window. The shrunk schedule must keep its traffic
    // event — with no arrivals there is nothing to flap over.
    assert!(
        repro
            .shrunk
            .violations
            .iter()
            .any(|violation| matches!(violation, Violation::AdmissionFlap { .. })),
        "unexpected violation mix: {:?}",
        repro.shrunk.violations
    );
    assert!(repro
        .shrunk
        .events
        .iter()
        .any(|event| matches!(event, SimEvent::Traffic { .. })));
    let rendered = repro.render();
    assert!(rendered.contains("traffic(shape="), "{rendered}");
    assert!(rendered.contains("admission-flap(shard="), "{rendered}");
}

#[test]
fn slo_smoke_json_is_byte_identical_across_runs_and_matches_the_golden() {
    let first = run_slo_smoke(&e17_root()).expect("smoke runs");
    let second = run_slo_smoke(&e17_root()).expect("smoke reruns");
    assert_eq!(
        first, second,
        "the SLO simulator must be byte-identical across runs"
    );
    // Regenerate with:
    //   LCAKP_REGEN_GOLDEN=1 cargo test -p lcakp-sim --test slo_sim
    // lcakp-lint: allow(D002) reason="opt-in golden regeneration for developers, no seeded behavior depends on it"
    if std::env::var_os("LCAKP_REGEN_GOLDEN").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/e17_smoke.json");
        std::fs::write(path, format!("{}\n", first.trim_end())).expect("golden writes");
        return;
    }
    let golden = include_str!("golden/e17_smoke.json");
    assert_eq!(
        first.trim_end(),
        golden.trim_end(),
        "smoke output drifted from the committed golden; regenerate with\n\
         LCAKP_REGEN_GOLDEN=1 cargo test -p lcakp-sim --test slo_sim"
    );
}
