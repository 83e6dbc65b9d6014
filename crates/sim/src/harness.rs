//! The E15 simulator: worker-level fault schedules against the
//! crash–recovery layer of a single-node worker pool.
//!
//! Each case derives crashes, restarts, corruption bursts, latency
//! spikes, and budget squeezes from `(root, case)`, runs
//! [`serve_batch`] twice — the crash-free twin and the faulted run —
//! and checks [`check_run`]'s crash-transparency, liveness, and journal
//! invariants against the pair.

use crate::driver::{smoke, JsonFields, Scenario};
use crate::invariants::{check_run, Violation};
use crate::schedule::{generate_schedule, SimEvent};
use crate::world::{WorldBase, BREAKER};
use lcakp_core::LcaError;
use lcakp_oracle::{FaultPlan, InstanceOracle, Seed};
use lcakp_service::{
    serve_batch, BatchReport, ChaosPlan, LatencyWindow, RecoveryDiscipline, ServiceConfig,
    WorkerEvent,
};

/// Simulator tuning. The defaults keep one case (twin + faulted run)
/// in the low hundreds of milliseconds so seed ranges and shrink loops
/// stay cheap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Instance size (= batch size: the batch queries every item).
    pub n: usize,
    /// Worker threads in the simulated service.
    pub workers: usize,
    /// Recovery discipline under test — [`RecoveryDiscipline::Faithful`]
    /// must survive every schedule; anything else is a planted bug the
    /// simulator exists to catch.
    pub recovery: RecoveryDiscipline,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            n: 24,
            workers: 3,
            recovery: RecoveryDiscipline::Faithful,
        }
    }
}

/// The fixed world one simulation runs in: instance, LCA, seeds, and
/// the base service configuration events get applied to.
#[derive(Debug)]
pub struct SimWorld {
    base: WorldBase,
    config: SimConfig,
    service: ServiceConfig,
}

/// Headline counters of one faulted run (rendered into the smoke JSON).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaseStats {
    /// Queries answered (any tier).
    pub answered: usize,
    /// Queries shed with a typed reason.
    pub shed: usize,
    /// Worker crashes that actually fired.
    pub crashes: usize,
}

impl SimWorld {
    /// Builds the world for `root`: a small dominated instance and a
    /// service tuned so corruption bursts trip breakers and budget
    /// squeezes force sheds, while a clean query still answers full
    /// tier.
    ///
    /// # Errors
    ///
    /// Propagates workload generation and LCA construction errors.
    pub fn build(root: &Seed, config: &SimConfig) -> Result<SimWorld, LcaError> {
        let base = WorldBase::build(
            config.n,
            [
                root.derive("sim/workload", 0),
                root.derive("sim/shared", 0),
                root.derive("sim/serving", 0),
            ],
        )?;
        let service = ServiceConfig {
            workers: config.workers,
            queue_depth: config.n.max(1),
            breaker: BREAKER,
            recovery: config.recovery,
            ..ServiceConfig::default()
        };
        Ok(SimWorld {
            base,
            config: *config,
            service,
        })
    }

    /// Applies the ambient (non-crash) events to the base world.
    fn ambient_world(&self, events: &[SimEvent]) -> (ServiceConfig, ChaosPlan) {
        let mut config = self.service.clone();
        let mut plan = ChaosPlan::none();
        for event in events {
            match *event {
                SimEvent::CorruptionBurst {
                    period,
                    len,
                    transient_permille,
                    corruption_permille,
                } => {
                    plan.burst = FaultPlan {
                        transient_rate: f64::from(transient_permille) / 1000.0,
                        corruption_rate: f64::from(corruption_permille) / 1000.0,
                        signal_corruption: true,
                        ..FaultPlan::none()
                    };
                    plan.burst_period = period;
                    plan.burst_len = len;
                }
                SimEvent::LatencySpike {
                    start_tick,
                    len_ticks,
                    extra_cost,
                } => {
                    config.cost = config.cost.with_spike(LatencyWindow {
                        start_tick,
                        end_tick: start_tick.saturating_add(len_ticks),
                        extra_cost,
                    });
                }
                SimEvent::BudgetSqueeze { slack_accesses } => {
                    config.worker_access_cap = Some(
                        self.base
                            .lca
                            .worst_case_accesses()
                            .saturating_add(slack_accesses),
                    );
                }
                SimEvent::Crash { .. }
                | SimEvent::Restart { .. }
                | SimEvent::NodeCrash { .. }
                | SimEvent::NodeRestart { .. }
                | SimEvent::Partition { .. }
                | SimEvent::Traffic { .. }
                | SimEvent::OverloadSurge { .. } => {}
            }
        }
        (config, plan)
    }
}

impl Scenario for SimWorld {
    type Stats = CaseStats;

    fn header(&self) -> Vec<(&'static str, usize)> {
        vec![("n", self.config.n), ("workers", self.config.workers)]
    }

    fn discipline(&self) -> (&'static str, String) {
        ("recovery", self.config.recovery.to_string())
    }

    fn schedule(&self, root: &Seed, case: u64) -> Vec<SimEvent> {
        generate_schedule(root, case, self.config.workers)
    }

    /// Runs one schedule: the crash-free twin first (also the timeline
    /// that turns permille crash ticks into absolute ones), then the
    /// faulted run, then every invariant check.
    fn run_schedule(&self, events: &[SimEvent]) -> Result<(CaseStats, Vec<Violation>), LcaError> {
        let batch = self.base.batch();
        let oracle = InstanceOracle::new(&self.base.norm);
        let (config, twin_plan) = self.ambient_world(events);
        let serve = |plan: &ChaosPlan| {
            serve_batch(
                &self.base.lca,
                &oracle,
                &self.base.shared_seed,
                &self.base.service_root,
                &batch,
                &config,
                Some(plan),
            )
        };
        let twin = serve(&twin_plan)?;
        let worker_events = map_crash_events(events, &twin);
        let faulted_plan = ChaosPlan {
            worker_events,
            ..twin_plan
        };
        let faulted = serve(&faulted_plan)?;
        let violations = check_run(&twin, &faulted, batch.len());
        let stats = CaseStats {
            answered: faulted.outcomes.len() - faulted.shed_count(),
            shed: faulted.shed_count(),
            crashes: faulted
                .workers
                .iter()
                .map(|trace| trace.crashes.len())
                .sum(),
        };
        Ok((stats, violations))
    }
}

impl JsonFields for CaseStats {
    fn fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("answered", self.answered.to_string()),
            ("shed", self.shed.to_string()),
            ("crashes", self.crashes.to_string()),
        ]
    }
}

/// Turns the schedule's permille crash ticks into absolute
/// [`WorkerEvent`]s on the twin's timeline. Events naming a worker the
/// configuration doesn't have are dropped (shrunk or hand-written
/// schedules may contain them).
fn map_crash_events(events: &[SimEvent], twin: &BatchReport) -> Vec<WorkerEvent> {
    let mut worker_events = Vec::new();
    for event in events {
        match *event {
            SimEvent::Crash {
                worker,
                tick_permille,
                torn_keep,
            } => {
                let Some(trace) = twin.workers.get(worker) else {
                    continue;
                };
                let at_tick = trace.end_tick.max(1) * u64::from(tick_permille) / 1000;
                worker_events.push(WorkerEvent::Crash {
                    worker,
                    at_tick,
                    torn_keep,
                });
            }
            SimEvent::Restart { worker } => {
                worker_events.push(WorkerEvent::Restart { worker, at_tick: 0 });
            }
            _ => {}
        }
    }
    worker_events
}

/// Cases the smoke run covers (CI diffs its JSON against the golden).
pub const SMOKE_CASES: u64 = 5;

/// Runs the committed smoke range for the `e15_simulation --smoke` bin
/// and the golden test: [`SMOKE_CASES`] cases under faithful recovery.
///
/// # Errors
///
/// Propagates world construction and [`run_range`](crate::run_range) errors.
pub fn run_smoke(root: &Seed) -> Result<String, LcaError> {
    let world = SimWorld::build(root, &SimConfig::default())?;
    smoke(root, "e15-smoke", &world, None, SMOKE_CASES)
}
