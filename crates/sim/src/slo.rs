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

use crate::driver::{smoke, JsonFields, Scenario, SimReport};
use crate::invariants::{check_slo_run, Violation};
use crate::schedule::{generate_slo_schedule, SimEvent};
use crate::world::{TrafficWorld, WorldBase};
use lcakp_core::LcaError;
use lcakp_oracle::{InstanceOracle, Seed};
use lcakp_service::{run_open_loop, AdmissionDiscipline, OpenLoopConfig, TrafficShape};

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

/// The fixed world one SLO simulation runs in: the calibrated traffic
/// world plus the discipline under test. Everything here depends only
/// on `(root, config)` — the schedule is the entire difference between
/// two cases.
#[derive(Debug)]
pub struct SloWorld {
    traffic: TrafficWorld,
    config: SloSimConfig,
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

impl SimReport<SloCaseStats> {
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
    /// Builds the world for `root`: the shared dominated instance and
    /// tuning under SLO-specific domain labels, so the simulators'
    /// random streams stay independent, calibrated by a probe run.
    ///
    /// # Errors
    ///
    /// Propagates workload generation, LCA construction, and probe-run
    /// errors.
    pub fn build(root: &Seed, config: &SloSimConfig) -> Result<SloWorld, LcaError> {
        let base = WorldBase::build(
            config.n,
            [
                root.derive("sim/slo-workload", 0),
                root.derive("sim/slo-shared", 0),
                root.derive("sim/slo-serving", 0),
            ],
        )?;
        let traffic = TrafficWorld::build(
            base,
            root.derive("sim/slo-trace", 0),
            config.shards,
            config.arrivals,
        )?;
        Ok(SloWorld {
            traffic,
            config: *config,
        })
    }
}

impl Scenario for SloWorld {
    type Stats = SloCaseStats;

    fn header(&self) -> Vec<(&'static str, usize)> {
        vec![
            ("n", self.config.n),
            ("shards", self.config.shards),
            ("arrivals", self.config.arrivals),
        ]
    }

    fn discipline(&self) -> (&'static str, String) {
        ("discipline", self.config.discipline.to_string())
    }

    fn schedule(&self, root: &Seed, case: u64) -> Vec<SimEvent> {
        generate_slo_schedule(root, case)
    }

    /// Runs one schedule: builds the trace, runs the admission-free
    /// twin and the controlled run, and checks the E17 invariants
    /// against the pair.
    fn run_schedule(
        &self,
        events: &[SimEvent],
    ) -> Result<(SloCaseStats, Vec<Violation>), LcaError> {
        let world = &self.traffic;
        let trace = world.build_trace(events);
        let oracle = InstanceOracle::new(&world.base.norm);
        let serve = |discipline: Option<AdmissionDiscipline>| {
            run_open_loop(
                &world.base.lca,
                &oracle,
                &world.base.shared_seed,
                &world.base.service_root,
                &trace,
                &OpenLoopConfig {
                    service: world.service.clone(),
                    admission: world.admission,
                    discipline,
                    shards: self.config.shards,
                },
            )
        };
        let twin = serve(None)?;
        let controlled = serve(Some(self.config.discipline))?;
        let violations = check_slo_run(&twin, &controlled, &world.admission);
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
}

impl JsonFields for SloCaseStats {
    fn fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("offered", self.offered.to_string()),
            ("answered", self.answered.to_string()),
            ("shed", self.shed.to_string()),
            ("missed", self.deadline_missed.to_string()),
            ("availability", self.availability_permille.to_string()),
            ("p99", self.p99_ticks.to_string()),
            ("max_queue", self.max_queue_depth.to_string()),
            ("transitions", self.transitions.to_string()),
            ("target", self.slo_target_permille.to_string()),
            ("meets", self.meets_slo.to_string()),
        ]
    }

    fn summary(report: &SimReport<Self>) -> Option<(&'static str, bool)> {
        Some(("all_meet_slo", report.all_meet_slo()))
    }
}

/// Cases the smoke run covers (CI diffs its JSON against the golden).
pub const E17_SMOKE_CASES: u64 = 10;

/// Runs the committed smoke for the `e17_slo --smoke` bin and the
/// golden test: [`E17_SMOKE_CASES`] cases under the faithful
/// discipline, plus the planted-bug section — the non-hysteretic
/// controller hunted over the same schedules and shrunk to its minimal
/// repro.
///
/// # Errors
///
/// Propagates world construction and [`run_range`](crate::run_range) errors.
pub fn run_slo_smoke(root: &Seed) -> Result<String, LcaError> {
    let config = SloSimConfig::default();
    let planted = SloSimConfig {
        discipline: AdmissionDiscipline::NoHysteresis,
        ..config
    };
    smoke(
        root,
        "e17-smoke",
        &SloWorld::build(root, &config)?,
        Some(&SloWorld::build(root, &planted)?),
        E17_SMOKE_CASES,
    )
}
