//! The E17 open-loop traffic simulator: seed-derived traffic schedules
//! against the adaptive admission controller.
//!
//! Each case derives a [`SimEvent::Traffic`] shape (cycling through all
//! five arrival processes) and, in half the cases, an
//! [`SimEvent::OverloadSurge`], from `(root, case)`. The schedule maps
//! onto a replayable arrival trace — the traffic gap is permille of the
//! world's *measured per-query service cost*, so 1000 offers exactly one
//! server's capacity — and the trace runs twice through
//! [`run_open_loop`]: the *controlled* run under the discipline under
//! test, and its *admission-free twin* (unbounded queue, nothing shed).
//! [`check_slo_run`] then verifies the three E17 invariants against the
//! pair:
//!
//! * **admission honesty** — every `Overload` shed carries a signal
//!   that actually exceeded a threshold;
//! * **hysteresis** — no controller flips state twice within the
//!   hysteresis window;
//! * **liveness** — offered load below capacity ⇒ zero overload sheds.
//!
//! [`AdmissionDiscipline::Faithful`] must survive every schedule while
//! meeting its per-scenario availability SLO;
//! [`AdmissionDiscipline::NoHysteresis`] is the planted bug the
//! simulator exists to catch (and shrink to a replayable repro).

use crate::calibrate::calibrate_cost;
use crate::harness::Repro;
use crate::invariants::{check_slo_run, Violation};
use crate::schedule::{generate_slo_schedule, SimEvent};
use crate::shrink::shrink;
use lcakp_core::{LcaError, LcaKp};
use lcakp_knapsack::iky::Epsilon;
use lcakp_knapsack::NormalizedInstance;
use lcakp_oracle::{InstanceOracle, Seed};
use lcakp_reproducible::SampleBudget;
use lcakp_service::{
    generate_trace, run_open_loop, seed_to_u64, AdmissionConfig, AdmissionDiscipline, Arrival,
    BreakerConfig, OpenLoopConfig, ServiceConfig, TrafficConfig, TrafficShape,
};
use lcakp_workloads::{Family, WorkloadSpec};
use std::fmt::Write as _;
use std::ops::Range;

/// SLO-simulator tuning. The defaults keep one case (twin + controlled
/// run over the whole trace) in the tens of milliseconds so seed ranges
/// and shrink loops stay affordable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloSimConfig {
    /// Instance size (arrivals query items `0..n`).
    pub n: usize,
    /// Single-server shards the engine runs.
    pub shards: usize,
    /// Arrivals per generated trace.
    pub arrivals: usize,
    /// Admission discipline under test —
    /// [`AdmissionDiscipline::Faithful`] must survive every schedule;
    /// [`AdmissionDiscipline::NoHysteresis`] is the planted bug.
    pub discipline: AdmissionDiscipline,
}

impl Default for SloSimConfig {
    fn default() -> Self {
        SloSimConfig {
            n: 24,
            shards: 2,
            arrivals: 160,
            discipline: AdmissionDiscipline::Faithful,
        }
    }
}

/// The fixed world one SLO simulation runs in: the instance, the LCA,
/// the seeds, and the calibration the schedules are expressed against
/// (the measured per-query service cost). Everything here depends only
/// on `(root, config)` — the schedule is the entire difference between
/// two cases.
#[derive(Debug)]
pub struct SloWorld {
    norm: NormalizedInstance,
    lca: LcaKp,
    shared_seed: Seed,
    service_root: Seed,
    trace_root: Seed,
    service: ServiceConfig,
    admission: AdmissionConfig,
    shards: usize,
    arrivals: usize,
    /// Measured mean service ticks per query (the unit every schedule
    /// gap is permille of).
    cost: u64,
}

/// Headline counters of one controlled run (rendered into the smoke
/// JSON).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloCaseStats {
    /// Arrivals the trace offered.
    pub offered: u64,
    /// Arrivals answered.
    pub answered: u64,
    /// Arrivals shed by the controller.
    pub shed: u64,
    /// Answered arrivals that missed the end-to-end SLO deadline.
    pub deadline_missed: u64,
    /// Permille availability (sheds and misses both count against it).
    pub availability_permille: u32,
    /// p99 end-to-end latency, virtual ticks (bucket upper bound).
    pub p99_ticks: u64,
    /// Deepest admission queue observed on any shard.
    pub max_queue_depth: u32,
    /// Controller state flips across the run.
    pub transitions: usize,
    /// The scenario's availability SLO target, permille.
    pub slo_target_permille: u32,
    /// Whether availability met the target.
    pub meets_slo: bool,
}

/// One simulated case: its schedule, run counters, violations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloCaseResult {
    /// The case number (schedule seed index).
    pub case: u64,
    /// The generated traffic schedule.
    pub events: Vec<SimEvent>,
    /// Counters of the controlled run.
    pub stats: SloCaseStats,
    /// Invariant violations (empty = the case passed).
    pub violations: Vec<Violation>,
}

/// Everything [`run_slo_range`] learned: per-case results plus the
/// first violation's shrunk repro.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloSimReport {
    /// One entry per case, in case order.
    pub cases: Vec<SloCaseResult>,
    /// Shrunk repro of the first violating case, if any violated.
    pub repro: Option<Repro>,
}

impl SloSimReport {
    /// Total violations across the range.
    pub fn total_violations(&self) -> usize {
        self.cases.iter().map(|case| case.violations.len()).sum()
    }

    /// Whether every case met its availability SLO target.
    pub fn all_meet_slo(&self) -> bool {
        self.cases.iter().all(|case| case.stats.meets_slo)
    }
}

/// The availability SLO target of one scenario, in permille. Targets
/// are per-shape because the shapes stress different things: a clean
/// steady or diurnal trace must stay near-perfect, while a hot shard, a
/// query of death, or an overload surge *forces* explicit sheds — there
/// the target asserts the controller keeps the damage bounded instead
/// of collapsing.
#[must_use]
pub fn slo_target_permille(events: &[SimEvent]) -> u32 {
    let surged = events
        .iter()
        .any(|event| matches!(event, SimEvent::OverloadSurge { .. }));
    let shape = events.iter().find_map(|event| match event {
        SimEvent::Traffic { shape, .. } => Some(*shape),
        _ => None,
    });
    let base = match shape {
        Some(TrafficShape::Steady | TrafficShape::Diurnal) => 950,
        Some(TrafficShape::Bursty) => 850,
        Some(TrafficShape::HotShard) => 700,
        Some(TrafficShape::QueryOfDeath) => 450,
        None => 1000,
    };
    if surged {
        base / 2
    } else {
        base
    }
}

impl SloWorld {
    /// Builds the world for `root`: the same dominated instance family
    /// and tuning as the E15/E16 worlds — under SLO-specific domain
    /// labels, so the simulators' random streams stay independent —
    /// then calibrates the per-query service cost by timing a
    /// back-to-back probe run, and scales the SLO deadline and
    /// hysteresis window to it.
    ///
    /// # Errors
    ///
    /// Propagates workload generation, LCA construction, and probe-run
    /// errors.
    pub fn build(root: &Seed, config: &SloSimConfig) -> Result<SloWorld, LcaError> {
        let workload_seed = seed_to_u64(&root.derive("sim/slo-workload", 0));
        let norm = WorkloadSpec::new(Family::SmallDominated, config.n, workload_seed)
            .generate_normalized()
            .map_err(LcaError::from)?;
        let lca =
            LcaKp::new(Epsilon::new(1, 3)?)?.with_budget(SampleBudget::Calibrated { factor: 0.01 });
        let shared_seed = root.derive("sim/slo-shared", 0);
        let service_root = root.derive("sim/slo-serving", 0);
        let trace_root = root.derive("sim/slo-trace", 0);
        let mut service = ServiceConfig {
            workers: 1,
            breaker: BreakerConfig {
                failure_threshold: 2,
                cooldown_ticks: 6,
                half_open_probes: 1,
            },
            ..ServiceConfig::default()
        };

        // Calibration probe (shared with the E18 world): the measured
        // mean ticks per query is the unit every schedule gap is
        // expressed in.
        let cost = calibrate_cost(
            &lca,
            &InstanceOracle::new(&norm),
            &shared_seed,
            &service_root,
            &trace_root,
            &service,
            config.n,
        )?;

        // An end-to-end deadline of 8 service costs: unqueued queries
        // meet it easily; a queue of ~7 starts missing.
        service.deadline_ticks = cost * 8;
        let admission = AdmissionConfig {
            enter_queue_depth: 6,
            exit_queue_depth: 2,
            enter_miss_permille: 250,
            exit_miss_permille: 60,
            // The hysteresis window in trace terms: ~8 mean arrivals at
            // capacity. The faithful controller dwells this long
            // between flips; the planted bug ignores it.
            hysteresis_ticks: cost * 8,
            shed_permille: 400,
            queue_depth_normal: 12,
            queue_depth_overloaded: 4,
        };
        Ok(SloWorld {
            norm,
            lca,
            shared_seed,
            service_root,
            trace_root,
            service,
            admission,
            shards: config.shards,
            arrivals: config.arrivals,
            cost,
        })
    }

    /// The calibrated per-query service cost (ticks).
    #[must_use]
    pub fn cost(&self) -> u64 {
        self.cost
    }

    /// Maps a schedule onto its arrival trace: the traffic event picks
    /// the shape and scales the mean gap by the calibrated cost; each
    /// overload surge then compresses the gaps inside its window. An
    /// event list with no traffic event maps to the empty trace.
    #[must_use]
    pub fn build_trace(&self, events: &[SimEvent]) -> Vec<Arrival> {
        let Some((shape, gap_permille)) = events.iter().find_map(|event| match event {
            SimEvent::Traffic {
                shape,
                gap_permille,
            } => Some((*shape, *gap_permille)),
            _ => None,
        }) else {
            return Vec::new();
        };
        let mut trace = generate_trace(
            &self.trace_root,
            &TrafficConfig {
                shape,
                arrivals: self.arrivals,
                mean_gap_ticks: (self.cost * u64::from(gap_permille) / 1000).max(1),
                universe: self.norm.len(),
                shards: self.shards,
            },
        );
        for event in events {
            if let SimEvent::OverloadSurge {
                start_permille,
                len_permille,
                gap_div,
            } = event
            {
                apply_surge(&mut trace, *start_permille, *len_permille, *gap_div);
            }
        }
        trace
    }

    /// Runs one schedule: builds the trace, runs the admission-free
    /// twin and the controlled run, and checks the E17 invariants
    /// against the pair.
    ///
    /// # Errors
    ///
    /// Propagates hard serving errors from [`run_open_loop`].
    pub fn run_schedule(
        &self,
        discipline: AdmissionDiscipline,
        events: &[SimEvent],
    ) -> Result<(SloCaseStats, Vec<Violation>), LcaError> {
        let trace = self.build_trace(events);
        let oracle = InstanceOracle::new(&self.norm);
        let twin = run_open_loop(
            &self.lca,
            &oracle,
            &self.shared_seed,
            &self.service_root,
            &trace,
            &OpenLoopConfig {
                service: self.service.clone(),
                admission: self.admission,
                discipline: None,
                shards: self.shards,
            },
        )?;
        let controlled = run_open_loop(
            &self.lca,
            &oracle,
            &self.shared_seed,
            &self.service_root,
            &trace,
            &OpenLoopConfig {
                service: self.service.clone(),
                admission: self.admission,
                discipline: Some(discipline),
                shards: self.shards,
            },
        )?;
        let violations = check_slo_run(&twin, &controlled, &self.admission);
        let target = slo_target_permille(events);
        let stats = SloCaseStats {
            offered: controlled.slo.offered,
            answered: controlled.slo.answered,
            shed: controlled.slo.shed,
            deadline_missed: controlled.slo.deadline_missed,
            availability_permille: controlled.slo.availability_permille,
            p99_ticks: controlled.slo.p99_ticks,
            max_queue_depth: controlled.max_queue_depth(),
            transitions: controlled.transitions.len(),
            slo_target_permille: target,
            meets_slo: controlled.slo.meets(target),
        };
        Ok((stats, violations))
    }

    /// Convenience for shrink loops: violations only, with hard errors
    /// treated as "no violation" (a schedule that cannot even run is
    /// not a smaller repro of an invariant break).
    pub fn violations_for(
        &self,
        discipline: AdmissionDiscipline,
        events: &[SimEvent],
    ) -> Vec<Violation> {
        self.run_schedule(discipline, events)
            .map(|(_, violations)| violations)
            .unwrap_or_default()
    }
}

/// Compresses the gaps of every arrival whose (pre-surge) tick falls in
/// the window `[start, start+len)` — both permille of the trace horizon
/// — by `gap_div`, then rebuilds the cumulative ticks so they stay
/// strictly increasing.
pub(crate) fn apply_surge(
    trace: &mut [Arrival],
    start_permille: u32,
    len_permille: u32,
    gap_div: u32,
) {
    let div = u64::from(gap_div.max(1));
    let horizon = trace.last().map_or(0, |arrival| arrival.at_tick);
    let start = horizon * u64::from(start_permille) / 1000;
    let end = start + horizon * u64::from(len_permille) / 1000;
    let mut previous_original = 0u64;
    let mut previous_new = 0u64;
    for arrival in trace.iter_mut() {
        let mut gap = arrival.at_tick - previous_original;
        if arrival.at_tick >= start && arrival.at_tick < end {
            gap /= div;
        }
        previous_original = arrival.at_tick;
        previous_new += gap.max(1);
        arrival.at_tick = previous_new;
    }
}

/// Runs the cases in `range` against one SLO world, shrinking the
/// first violating schedule (if any) to a minimal repro.
///
/// # Errors
///
/// Propagates world construction and [`run_open_loop`] errors.
pub fn run_slo_range(
    root: &Seed,
    config: &SloSimConfig,
    range: Range<u64>,
) -> Result<SloSimReport, LcaError> {
    let world = SloWorld::build(root, config)?;
    let mut cases = Vec::new();
    let mut repro = None;
    for case in range {
        let events = generate_slo_schedule(root, case);
        let (stats, violations) = world.run_schedule(config.discipline, &events)?;
        if !violations.is_empty() && repro.is_none() {
            let shrunk = shrink(&events, |candidate| {
                world.violations_for(config.discipline, candidate)
            });
            repro = Some(Repro { case, shrunk });
        }
        cases.push(SloCaseResult {
            case,
            events,
            stats,
            violations,
        });
    }
    Ok(SloSimReport { cases, repro })
}

/// Renders a range report as canonical JSON: fixed field order, no
/// floats, no ambient state — two runs with the same root must be
/// byte-identical. This is what the `e17_slo --smoke` golden pins
/// (together with the planted-bug section appended by
/// [`run_slo_smoke`]).
#[must_use]
pub fn render_slo_json(label: &str, config: &SloSimConfig, report: &SloSimReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"label\": \"{label}\",");
    let _ = writeln!(out, "  \"n\": {},", config.n);
    let _ = writeln!(out, "  \"shards\": {},", config.shards);
    let _ = writeln!(out, "  \"arrivals\": {},", config.arrivals);
    let _ = writeln!(out, "  \"discipline\": \"{}\",", config.discipline);
    let _ = writeln!(out, "  \"cases\": [");
    for (position, case) in report.cases.iter().enumerate() {
        let events: Vec<String> = case
            .events
            .iter()
            .map(|event| format!("\"{event}\""))
            .collect();
        let violations: Vec<String> = case
            .violations
            .iter()
            .map(|violation| format!("\"{violation}\""))
            .collect();
        let comma = if position + 1 < report.cases.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "    {{\"case\": {}, \"events\": [{}], \"offered\": {}, \"answered\": {}, \
             \"shed\": {}, \"missed\": {}, \"availability\": {}, \"p99\": {}, \
             \"max_queue\": {}, \"transitions\": {}, \"target\": {}, \"meets\": {}, \
             \"violations\": [{}]}}{comma}",
            case.case,
            events.join(", "),
            case.stats.offered,
            case.stats.answered,
            case.stats.shed,
            case.stats.deadline_missed,
            case.stats.availability_permille,
            case.stats.p99_ticks,
            case.stats.max_queue_depth,
            case.stats.transitions,
            case.stats.slo_target_permille,
            case.stats.meets_slo,
            violations.join(", "),
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(
        out,
        "  \"total_violations\": {},",
        report.total_violations()
    );
    let _ = writeln!(out, "  \"all_meet_slo\": {},", report.all_meet_slo());
    let _ = writeln!(
        out,
        "  \"repro\": {}",
        report.repro.as_ref().map_or_else(
            || "null".to_string(),
            |repro| format!(
                "{{\"case\": {}, \"events\": {}}}",
                repro.case,
                repro.shrunk.events.len()
            )
        )
    );
    let _ = write!(out, "}}");
    out
}

/// Cases the smoke run covers (CI diffs its JSON against the golden).
pub const E17_SMOKE_CASES: u64 = 10;

/// Hunts for the planted bug: runs `discipline` over cases from 0
/// until a schedule violates (bounded by `max_cases`), then shrinks it
/// to a minimal repro.
///
/// # Errors
///
/// Propagates world construction and [`run_open_loop`] errors.
pub fn hunt_planted_bug(
    root: &Seed,
    config: &SloSimConfig,
    max_cases: u64,
) -> Result<Option<Repro>, LcaError> {
    let world = SloWorld::build(root, config)?;
    for case in 0..max_cases {
        let events = generate_slo_schedule(root, case);
        let violations = world.violations_for(config.discipline, &events);
        if !violations.is_empty() {
            let shrunk = shrink(&events, |candidate| {
                world.violations_for(config.discipline, candidate)
            });
            return Ok(Some(Repro { case, shrunk }));
        }
    }
    Ok(None)
}

/// Runs the committed smoke for the `e17_slo --smoke` bin and the
/// golden test: [`E17_SMOKE_CASES`] cases under the faithful
/// discipline, plus the planted-bug section — the non-hysteretic
/// controller hunted over the same schedules and shrunk to its minimal
/// repro.
///
/// # Errors
///
/// Propagates [`run_slo_range`] and [`hunt_planted_bug`] errors.
pub fn run_slo_smoke(root: &Seed) -> Result<String, LcaError> {
    let config = SloSimConfig::default();
    let report = run_slo_range(root, &config, 0..E17_SMOKE_CASES)?;
    let faithful = render_slo_json("e17-smoke", &config, &report);

    let bug_config = SloSimConfig {
        discipline: AdmissionDiscipline::NoHysteresis,
        ..config
    };
    let repro = hunt_planted_bug(root, &bug_config, E17_SMOKE_CASES)?;
    let planted = repro.map_or_else(
        || "null".to_string(),
        |repro| {
            let events: Vec<String> = repro
                .shrunk
                .events
                .iter()
                .map(|event| format!("\"{event}\""))
                .collect();
            let violations: Vec<String> = repro
                .shrunk
                .violations
                .iter()
                .map(|violation| format!("\"{violation}\""))
                .collect();
            format!(
                "{{\"discipline\": \"{}\", \"case\": {}, \"events\": [{}], \
                 \"violations\": [{}]}}",
                bug_config.discipline,
                repro.case,
                events.join(", "),
                violations.join(", "),
            )
        },
    );

    // Splice the planted-bug section before the closing brace so the
    // golden pins both halves of the acceptance criteria in one file.
    let body = faithful
        .strip_suffix('}')
        .expect("render_slo_json ends with a closing brace")
        .trim_end()
        .to_string();
    Ok(format!("{body},\n  \"planted\": {planted}\n}}"))
}
