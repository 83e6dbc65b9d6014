//! The generic simulator driver on a toy scenario, without the serving
//! stack: [`run_range`] records every case and shrinks only the first
//! violation, [`hunt`] finds the same repro, and [`render_json`] writes
//! the canonical bytes the `--smoke` goldens rely on.

use lcakp_core::LcaError;
use lcakp_oracle::Seed;
use lcakp_sim::{hunt, render_json, run_range, JsonFields, Scenario, SimEvent, Violation};
use std::cell::Cell;

/// A scenario with no serving stack: case `c` schedules a restart,
/// plus a crash when `c` is odd, and a schedule violates iff it
/// holds a crash. `runs` counts [`Scenario::run_schedule`] calls;
/// `mode` names the discipline.
struct Toy {
    runs: Cell<usize>,
    mode: &'static str,
}

fn toy() -> Toy {
    Toy {
        runs: Cell::new(0),
        mode: "toy",
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct ToyStats {
    len: usize,
}

impl JsonFields for ToyStats {
    fn fields(&self) -> Vec<(&'static str, String)> {
        vec![("len", self.len.to_string())]
    }
}

impl Scenario for Toy {
    type Stats = ToyStats;

    fn header(&self) -> Vec<(&'static str, usize)> {
        vec![("n", 2)]
    }

    fn discipline(&self) -> (&'static str, String) {
        ("mode", self.mode.into())
    }

    fn schedule(&self, _root: &Seed, case: u64) -> Vec<SimEvent> {
        let mut events = vec![SimEvent::Restart { worker: 0 }];
        if case % 2 == 1 {
            events.push(SimEvent::Crash {
                worker: 0,
                tick_permille: 8,
                torn_keep: None,
            });
        }
        events
    }

    fn run_schedule(&self, events: &[SimEvent]) -> Result<(ToyStats, Vec<Violation>), LcaError> {
        self.runs.set(self.runs.get() + 1);
        let crashed = events
            .iter()
            .any(|event| matches!(event, SimEvent::Crash { .. }));
        let violations = if crashed {
            vec![Violation::MissingOutcome { index: 0 }]
        } else {
            Vec::new()
        };
        Ok((ToyStats { len: events.len() }, violations))
    }
}

fn root() -> Seed {
    Seed::from_entropy_u64(17)
}

#[test]
fn run_range_records_every_case_and_shrinks_only_the_first_violation() {
    let toy = toy();
    let report = run_range(&root(), &toy, 0..4).expect("toy runs");
    assert_eq!(
        report
            .cases
            .iter()
            .map(|case| case.case)
            .collect::<Vec<_>>(),
        [0, 1, 2, 3]
    );
    assert_eq!(report.total_violations(), 2);
    let repro = report.repro.as_ref().expect("case 1 violates");
    assert_eq!(repro.case, 1);
    assert_eq!(
        repro.shrunk.events,
        [SimEvent::Crash {
            worker: 0,
            tick_permille: 0,
            torn_keep: None,
        }]
    );
    // One run per case, plus the shrink of case 1 alone.
    assert_eq!(toy.runs.get(), 4 + repro.shrunk.attempts);
}

#[test]
fn hunt_returns_the_repro_run_range_shrinks() {
    let toy = toy();
    let report = run_range(&root(), &toy, 0..4).expect("toy runs");
    assert_eq!(hunt(&root(), &toy, 4), report.repro);
    assert_eq!(hunt(&root(), &toy, 1), None);
}

#[test]
fn render_json_is_canonical() {
    let toy = toy();
    let empty = run_range(&root(), &toy, 0..0).expect("toy runs");
    assert_eq!(
        render_json("toy", &toy, &empty, None),
        "{\n  \"label\": \"toy\",\n  \"n\": 2,\n  \"mode\": \"toy\",\n  \"cases\": [],\n  \
         \"total_violations\": 0,\n  \"repro\": null\n}"
    );
    let report = run_range(&root(), &toy, 0..2).expect("toy runs");
    let planted = Some((&toy, report.repro.as_ref()));
    assert_eq!(
        render_json("toy", &toy, &report, planted),
        "{\n  \"label\": \"toy\",\n  \"n\": 2,\n  \"mode\": \"toy\",\n  \"cases\": [\n    \
         {\"case\": 0, \"events\": [\"restart(worker=0)\"], \"len\": 1, \"violations\": []},\n    \
         {\"case\": 1, \"events\": [\"restart(worker=0)\", \"crash(worker=0, tick=8/1000)\"], \
         \"len\": 2, \"violations\": [\"missing-outcome(index=0)\"]}\n  ],\n  \
         \"total_violations\": 1,\n  \"repro\": {\"case\": 1, \"events\": 1},\n  \
         \"planted\": {\"mode\": \"toy\", \"case\": 1, \"events\": \
         [\"crash(worker=0, tick=0/1000)\"], \"violations\": [\"missing-outcome(index=0)\"]}\n}"
    );
}

#[test]
fn render_json_escapes_display_strings() {
    let toy = Toy {
        mode: "say \"no\" \\ twice",
        ..toy()
    };
    let report = run_range(&root(), &toy, 1..2).expect("toy runs");
    let planted = Some((&toy, report.repro.as_ref()));
    let json = render_json("toy", &toy, &report, planted);
    assert!(
        json.contains("\n  \"mode\": \"say \\\"no\\\" \\\\ twice\",\n"),
        "{json}"
    );
    assert!(
        json.contains("\"planted\": {\"mode\": \"say \\\"no\\\" \\\\ twice\", \"case\": 1"),
        "{json}"
    );
}
