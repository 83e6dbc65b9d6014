//! The one simulator skeleton every experiment (E15–E18) runs on.
//!
//! A *case* is `(root, case number)`: the schedule derives from the
//! seed, the world from the root, and both runs — the faulted one and
//! its fault-free twin — from the world and the schedule alone. So one
//! `u64` replays everything, and a shrunk event list replays without
//! the generator at all. A [`Scenario`] supplies the three
//! per-experiment parts: its schedule generator, its twin-and-faulted
//! run with the invariant checks, and its per-case stats. The rest —
//! the range driver [`run_range`], the planted-bug hunt [`hunt`], the
//! shrink of the first violation, and the canonical JSON report
//! [`render_json`] the `--smoke` goldens pin — is written once here.

use crate::invariants::Violation;
use crate::schedule::SimEvent;
use crate::shrink::{shrink, Shrunk};
use lcakp_canon::{line, list, object, quote, rows};
use lcakp_core::LcaError;
use lcakp_oracle::Seed;
use std::fmt::{Display, Write as _};
use std::ops::Range;

/// One simulated experiment: a world built once per root, which runs
/// any schedule against its fault-free twin and checks its invariants.
pub trait Scenario {
    /// Headline counters of one run, rendered into the report JSON.
    type Stats: JsonFields;

    /// The world's shape knobs, printed after the label in the report
    /// header in this order.
    fn header(&self) -> Vec<(&'static str, usize)>;

    /// The discipline under test, as its JSON key and name. It closes
    /// the report header and names a planted bug's section.
    fn discipline(&self) -> (&'static str, String);

    /// The schedule of `case`, a pure function of `(root, case)`.
    fn schedule(&self, root: &Seed, case: u64) -> Vec<SimEvent>;

    /// Runs one schedule — the twin, the faulted run, every invariant
    /// check — and returns the faulted run's stats and the violations.
    ///
    /// # Errors
    ///
    /// Propagates hard configuration errors from the serving runtime.
    fn run_schedule(&self, events: &[SimEvent]) -> Result<(Self::Stats, Vec<Violation>), LcaError>;

    /// Convenience for shrink loops: violations only, with hard errors
    /// treated as "no violation" (a schedule that cannot even run is
    /// not a smaller repro of an invariant break).
    fn violations_for(&self, events: &[SimEvent]) -> Vec<Violation> {
        self.run_schedule(events)
            .map(|(_, violations)| violations)
            .unwrap_or_default()
    }
}

/// Per-case stats as canonical JSON fields.
pub trait JsonFields: Sized {
    /// `(key, value)` pairs in report order; every value is a JSON
    /// number or boolean.
    fn fields(&self) -> Vec<(&'static str, String)>;

    /// A range-wide verdict printed after `total_violations`, if the
    /// scenario has one.
    fn summary(_report: &SimReport<Self>) -> Option<(&'static str, bool)> {
        None
    }
}

/// One simulated case: its schedule, run counters, and violations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseResult<S> {
    /// The case number (schedule seed index).
    pub case: u64,
    /// The generated schedule.
    pub events: Vec<SimEvent>,
    /// Counters of the faulted run.
    pub stats: S,
    /// Invariant violations (empty = the case passed).
    pub violations: Vec<Violation>,
}

/// A shrunk repro of the first violating case in a range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Repro {
    /// The violating case number (replays the unshrunk schedule).
    pub case: u64,
    /// The shrunk schedule and the violations it still triggers.
    pub shrunk: Shrunk,
}

impl Repro {
    /// Shrinks the violating schedule of `case` against `world`.
    fn find<S: Scenario>(world: &S, case: u64, events: &[SimEvent]) -> Repro {
        let shrunk = shrink(events, |candidate| world.violations_for(candidate));
        Repro { case, shrunk }
    }

    /// The repro as replayable text: the case seed plus one line per
    /// surviving event and violation.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "repro: case {} shrunk to {} event(s) ({} candidate schedules tried)",
            self.case,
            self.shrunk.events.len(),
            self.shrunk.attempts
        );
        for event in &self.shrunk.events {
            let _ = writeln!(out, "  event: {event}");
        }
        for violation in &self.shrunk.violations {
            let _ = writeln!(out, "  violation: {violation}");
        }
        out
    }
}

/// Everything [`run_range`] learned: per-case results plus the first
/// violation's shrunk repro.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimReport<S> {
    /// One entry per case, in case order.
    pub cases: Vec<CaseResult<S>>,
    /// Shrunk repro of the first violating case, if any violated.
    pub repro: Option<Repro>,
}

impl<S> SimReport<S> {
    /// Total violations across the range.
    pub fn total_violations(&self) -> usize {
        self.cases.iter().map(|case| case.violations.len()).sum()
    }
}

/// Runs the cases in `range` against `world`, shrinking the first
/// violating schedule (if any) to a minimal repro.
///
/// # Errors
///
/// Propagates [`Scenario::run_schedule`] errors.
pub fn run_range<S: Scenario>(
    root: &Seed,
    world: &S,
    range: Range<u64>,
) -> Result<SimReport<S::Stats>, LcaError> {
    let mut cases = Vec::new();
    let mut repro = None;
    for case in range {
        let events = world.schedule(root, case);
        let (stats, violations) = world.run_schedule(&events)?;
        if !violations.is_empty() && repro.is_none() {
            repro = Some(Repro::find(world, case, &events));
        }
        cases.push(CaseResult {
            case,
            events,
            stats,
            violations,
        });
    }
    Ok(SimReport { cases, repro })
}

/// Hunts for a planted bug: runs `world` over cases from 0 until a
/// schedule violates (bounded by `max_cases`), then shrinks it to a
/// minimal repro. Unlike [`run_range`] it keeps no per-case results
/// and stops at the first violation.
pub fn hunt<S: Scenario>(root: &Seed, world: &S, max_cases: u64) -> Option<Repro> {
    (0..max_cases).find_map(|case| {
        let events = world.schedule(root, case);
        (!world.violations_for(&events).is_empty()).then(|| Repro::find(world, case, &events))
    })
}

/// `items` as a one-line JSON array of their quoted `Display` strings.
fn json_list<T: Display>(items: &[T]) -> String {
    list(items.iter().map(|item| quote(&item.to_string())))
}

/// Renders a range report as canonical JSON: fixed field order, no
/// floats, no ambient state — two runs with the same root must be
/// byte-identical. `planted` is a planted-bug world and its hunt
/// result; when given, its section is spliced in after `repro`, so one
/// file pins both halves of an experiment's acceptance criteria.
#[must_use]
pub fn render_json<S: Scenario>(
    label: &str,
    world: &S,
    report: &SimReport<S::Stats>,
    planted: Option<(&S, Option<&Repro>)>,
) -> String {
    let mut members = vec![("label", quote(label))];
    members.extend(
        world
            .header()
            .into_iter()
            .map(|(key, value)| (key, value.to_string())),
    );
    let (key, discipline) = world.discipline();
    members.push((key, quote(&discipline)));
    let cases = report.cases.iter().map(|case| {
        let mut fields = vec![
            ("case", case.case.to_string()),
            ("events", json_list(&case.events)),
        ];
        fields.extend(case.stats.fields());
        fields.push(("violations", json_list(&case.violations)));
        line(fields)
    });
    members.push(("cases", rows(cases)));
    members.push(("total_violations", report.total_violations().to_string()));
    if let Some((key, verdict)) = S::Stats::summary(report) {
        members.push((key, verdict.to_string()));
    }
    let repro = report.repro.as_ref().map_or_else(
        || "null".to_string(),
        |repro| {
            line([
                ("case", repro.case.to_string()),
                ("events", repro.shrunk.events.len().to_string()),
            ])
        },
    );
    members.push(("repro", repro));
    if let Some((bug, bug_repro)) = planted {
        let section = bug_repro.map_or_else(
            || "null".to_string(),
            |bug_repro| {
                let (key, discipline) = bug.discipline();
                line([
                    (key, quote(&discipline)),
                    ("case", bug_repro.case.to_string()),
                    ("events", json_list(&bug_repro.shrunk.events)),
                    ("violations", json_list(&bug_repro.shrunk.violations)),
                ])
            },
        );
        members.push(("planted", section));
    }
    object(members)
}

/// Runs the committed smoke range `0..cases` of `world` and renders its
/// report as `label`; with a `planted` world, also hunts that world's
/// bug over the same cases and splices its repro in.
///
/// # Errors
///
/// Propagates [`run_range`] errors.
pub(crate) fn smoke<S: Scenario>(
    root: &Seed,
    label: &str,
    world: &S,
    planted: Option<&S>,
    cases: u64,
) -> Result<String, LcaError> {
    let report = run_range(root, world, 0..cases)?;
    let planted = planted.map(|bug| (bug, hunt(root, bug, cases)));
    Ok(render_json(
        label,
        world,
        &report,
        planted.as_ref().map(|(bug, repro)| (*bug, repro.as_ref())),
    ))
}
