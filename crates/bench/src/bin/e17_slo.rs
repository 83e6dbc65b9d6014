//! E17 — open-loop traffic, SLO tracking, and adaptive admission
//! control.
//!
//! The SLO simulator (`lcakp-sim::slo`) derives seed-replayable
//! open-loop arrival traces — steady, diurnal, bursty, hot-shard, and
//! query-of-death shapes, optionally compressed by an overload surge —
//! and serves them through the full runtime twice per case: once under
//! the adaptive admission controller and once through its
//! admission-free twin. Three invariants are checked against the pair:
//! every `overload(...)` shed is *honest* (its recorded signal really
//! crossed a threshold), the controller never flips state twice within
//! its hysteresis window, and traffic the twin proves is under capacity
//! is never overload-shed. This is only safe because queries are
//! stateless and query-order oblivious (Definition 2.4): shedding or
//! reordering arrivals cannot change any other answer, so admission
//! control composes with Theorem 4.1's guarantee for free.
//!
//! Two demonstrations:
//!
//! * the faithful controller survives the default seed range with zero
//!   violations while meeting every scenario's availability SLO;
//! * the deliberately planted non-hysteretic controller (reacts to the
//!   instantaneous signal, ignoring the dwell window) is caught
//!   flapping and auto-shrunk to a minimal replayable repro.
//!
//! `--smoke` prints only the committed smoke range's canonical JSON
//! for CI to diff against `crates/sim/tests/golden/e17_smoke.json`.

use lcakp_bench::{banner, experiment_root, Table};
use lcakp_service::AdmissionDiscipline;
use lcakp_sim::{
    run_range, run_slo_smoke, SimEvent, SloSimConfig, SloWorld, Violation, E17_SMOKE_CASES,
};

fn main() {
    // lcakp-lint: allow(D002) reason="--smoke flag selects the CI golden output, no entropy involved"
    let smoke_only = std::env::args().any(|arg| arg == "--smoke");
    let root = experiment_root("e17");

    if smoke_only {
        let json = run_slo_smoke(&root).expect("smoke range runs");
        println!("{json}");
        return;
    }

    banner(
        "E17",
        "adaptive admission meets its SLOs under open-loop traffic, and a flapping controller shrinks",
        "Definition 2.4 obliviousness makes shedding safe; the signal decides only *whether*, never *what*",
    );

    // ---- Part 1: the faithful controller survives the range. ----
    let config = SloSimConfig::default();
    let world = SloWorld::build(&root, &config).expect("world builds");
    let report = run_range(&root, &world, 0..E17_SMOKE_CASES).expect("range runs");
    let mut table = Table::new([
        "case",
        "events",
        "answered",
        "shed",
        "missed",
        "avail",
        "target",
        "flips",
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
            case.stats.deadline_missed.to_string(),
            format!("{}/1000", case.stats.availability_permille),
            format!("{}/1000", case.stats.slo_target_permille),
            case.stats.transitions.to_string(),
            case.violations.len().to_string(),
        ]);
    }
    table.print();
    assert_eq!(
        report.total_violations(),
        0,
        "the faithful controller must survive the default seed range"
    );
    assert!(
        report.all_meet_slo(),
        "every scenario must meet its availability SLO target"
    );
    let sheds: u64 = report.cases.iter().map(|case| case.stats.shed).sum();
    let flips: usize = report.cases.iter().map(|case| case.stats.transitions).sum();
    assert!(
        sheds > 0,
        "the range must actually push some scenario into overload"
    );
    assert!(
        flips > 0,
        "the controller must actually enter and leave overload"
    );
    assert!(
        report.cases.iter().any(|case| case
            .events
            .iter()
            .any(|event| matches!(event, SimEvent::OverloadSurge { .. }))),
        "the range must include at least one overload surge"
    );
    println!(
        "\n{E17_SMOKE_CASES} cases, {sheds} queries shed, {flips} controller transitions, \
         0 invariant violations, every availability SLO met."
    );

    // ---- Part 2: the planted non-hysteretic controller shrinks. ----
    let buggy = SloSimConfig {
        discipline: AdmissionDiscipline::NoHysteresis,
        ..SloSimConfig::default()
    };
    let buggy_world = SloWorld::build(&root, &buggy).expect("buggy world builds");
    let buggy_report =
        run_range(&root, &buggy_world, 0..E17_SMOKE_CASES).expect("buggy range runs");
    let repro = buggy_report
        .repro
        .as_ref()
        .expect("the non-hysteretic controller must violate within the range");
    println!(
        "\nplanted bug {} caught: {} violating case(s) in the range",
        buggy.discipline,
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
        .any(|event| matches!(event, SimEvent::Traffic { .. })));
    assert!(repro
        .shrunk
        .violations
        .iter()
        .any(|violation| matches!(violation, Violation::AdmissionFlap { .. })));

    println!(
        "\nExpected shape: the faithful controller sheds explicitly and honestly under\n\
         hot-shard, query-of-death, and surge scenarios while availability stays above\n\
         each scenario's target, and the planted no-hysteresis controller flaps state\n\
         within its dwell window and shrinks to a bare traffic-event repro.\n\n\
         All E17 acceptance assertions passed."
    );
}
