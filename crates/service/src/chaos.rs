//! The deterministic chaos harness behind experiment E14.
//!
//! A [`ChaosPlan`] assigns each batch position a [`FaultPlan`] — quiet
//! baseline faults outside periodic *bursts*, heavier faults inside —
//! and latency spikes ride on the [`CostModel`](crate::CostModel)
//! tick windows. Everything is keyed on batch position or virtual tick,
//! never on wall time or ambient randomness, so a chaos run is exactly
//! as replayable as a clean one: same root seed ⇒ byte-identical
//! responses, which [`run_scenario`] exposes as a canonical JSON
//! rendering that callers compare across runs.
//!
//! The harness also serves a fault-free **reference** run with the same
//! shared seed and per-query sampling streams. Because transient faults
//! and signalled corruption never consume caller entropy, every
//! full-tier answer under chaos must equal the reference answer — the
//! consistency oracle of E14 — and the reference selection is audited
//! against Theorem 4.1's `(1/2, 6ε)` bound.

use crate::deadline::CostModel;
use crate::service::{
    serve_batch, BatchReport, CrashDirective, Disposition, FaultSchedule, RecoveryDiscipline,
    ServiceConfig,
};
use lcakp_canon::{line, list, object, quote};
use lcakp_core::solution_audit::{audit_selection, exact_optimum, ApproxAudit};
use lcakp_core::{LcaError, LcaKp, ResponseTier};
use lcakp_knapsack::iky::Epsilon;
use lcakp_knapsack::{ItemId, NormalizedInstance};
use lcakp_oracle::{FaultPlan, InstanceOracle, Seed};
use lcakp_reproducible::SampleBudget;
use lcakp_workloads::{Family, WorkloadSpec};

/// A scheduled worker-lifecycle event. Crashes kill a worker at a
/// virtual tick (optionally tearing the in-flight journal write);
/// restarts revive the *earliest unrevived crash* of the same worker.
/// A restart's tick is bookkeeping only: recovery restores the clock
/// from the last journal snapshot, so a revival costs wall time, never
/// virtual time — which is exactly why a crashed run can stay
/// byte-identical to a crash-free one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerEvent {
    /// Kill `worker` at the first crash point at or after `at_tick` on
    /// its virtual clock.
    Crash {
        /// The worker to kill.
        worker: usize,
        /// The virtual tick the crash fires at.
        at_tick: u64,
        /// Surviving bytes of the in-flight journal write (`None`:
        /// crash between writes, nothing torn).
        torn_keep: Option<usize>,
    },
    /// Revive `worker` after its earliest unrevived crash.
    Restart {
        /// The worker to revive.
        worker: usize,
        /// When the revival happened (bookkeeping; see the enum docs).
        at_tick: u64,
    },
}

/// Periodic fault bursts over batch positions, plus scheduled worker
/// crashes and restarts.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPlan {
    /// Faults injected outside bursts.
    pub quiet: FaultPlan,
    /// Faults injected inside bursts.
    pub burst: FaultPlan,
    /// A burst starts every `burst_period` queries (`0` disables
    /// bursts).
    pub burst_period: usize,
    /// Queries per burst.
    pub burst_len: usize,
    /// Worker crash/restart schedule, in event order.
    pub worker_events: Vec<WorkerEvent>,
}

impl ChaosPlan {
    /// No faults at all.
    #[must_use]
    pub fn none() -> Self {
        ChaosPlan {
            quiet: FaultPlan::none(),
            burst: FaultPlan::none(),
            burst_period: 0,
            burst_len: 0,
            worker_events: Vec::new(),
        }
    }

    /// This plan with every crash/restart removed — the crash-free twin
    /// the E15 simulator compares against.
    #[must_use]
    pub fn without_worker_events(&self) -> Self {
        ChaosPlan {
            worker_events: Vec::new(),
            ..self.clone()
        }
    }

    /// Whether batch position `index` falls inside a burst.
    #[must_use]
    pub fn in_burst(&self, index: usize) -> bool {
        self.burst_period > 0 && index % self.burst_period < self.burst_len
    }
}

impl FaultSchedule for ChaosPlan {
    fn plan_for(&self, index: usize) -> FaultPlan {
        if self.in_burst(index) {
            self.burst
        } else {
            self.quiet
        }
    }

    fn crash_directives(&self, worker: usize) -> Vec<CrashDirective> {
        let mut claimed = vec![false; self.worker_events.len()];
        let mut directives = Vec::new();
        for (position, event) in self.worker_events.iter().enumerate() {
            let WorkerEvent::Crash {
                worker: crash_worker,
                at_tick,
                torn_keep,
            } = *event
            else {
                continue;
            };
            if crash_worker != worker {
                continue;
            }
            // Pair this crash with the first unclaimed later restart.
            let mut restarts = false;
            for (later, event) in self.worker_events.iter().enumerate().skip(position + 1) {
                if claimed[later] {
                    continue;
                }
                if let WorkerEvent::Restart {
                    worker: restart_worker,
                    ..
                } = *event
                {
                    if restart_worker == worker {
                        claimed[later] = true;
                        restarts = true;
                        break;
                    }
                }
            }
            directives.push(CrashDirective {
                at_tick,
                torn_keep,
                restarts,
            });
        }
        directives.sort_by_key(|directive| directive.at_tick);
        directives
    }
}

/// One chaos experiment: an instance, an LCA, seeds, a service
/// configuration, and the fault schedule.
#[derive(Debug)]
pub struct ChaosScenario<'a> {
    /// Scenario name (appears in the JSON).
    pub label: &'a str,
    /// The instance under service.
    pub norm: &'a NormalizedInstance,
    /// The LCA configuration.
    pub lca: &'a LcaKp,
    /// The paper's shared random tape (consistency channel).
    pub shared_seed: Seed,
    /// The runtime's entropy root (sampling, faults, jitter).
    pub service_root: Seed,
    /// Runtime tuning for the chaos run.
    pub config: ServiceConfig,
    /// The fault schedule.
    pub plan: ChaosPlan,
}

/// The outcome of one scenario: the chaos run, its fault-free
/// reference, the derived verdicts, and the canonical JSON rendering.
#[derive(Debug, Clone)]
pub struct ChaosRun {
    /// Scenario name.
    pub label: String,
    /// The chaos-run report.
    pub report: BatchReport,
    /// The fault-free reference report (same seeds, no faults, no caps,
    /// effectively unbounded deadline).
    pub reference: BatchReport,
    /// ε the scenario ran at.
    pub eps: Epsilon,
    /// Fraction of queries answered within deadline under chaos.
    pub availability: f64,
    /// Whether every full-tier chaos answer equals its reference
    /// answer.
    pub full_tier_consistent: bool,
    /// The reference selection audited against the exact optimum.
    pub reference_audit: ApproxAudit,
    /// Value of the selection assembled from the chaos answers.
    pub chaos_value: u64,
    /// Whether the chaos selection is feasible.
    pub chaos_feasible: bool,
    /// Canonical JSON rendering (byte-compared across runs).
    pub json: String,
}

impl ChaosRun {
    /// Whether the reference run satisfies Theorem 4.1's `(1/2, 6ε)`
    /// bound.
    #[must_use]
    pub fn reference_theorem_ok(&self) -> bool {
        self.reference_audit.satisfies_theorem(self.eps)
    }

    /// Whether availability meets the SLO `slo` (e.g. `0.99`).
    #[must_use]
    pub fn slo_met(&self, slo: f64) -> bool {
        self.availability + 1e-12 >= slo
    }
}

/// Runs one scenario: reference first, then the chaos run, then the
/// verdicts and the JSON rendering.
///
/// # Errors
///
/// Propagates hard configuration errors from [`serve_batch`] or the
/// exact solvers.
pub fn run_scenario(scenario: &ChaosScenario<'_>) -> Result<ChaosRun, LcaError> {
    let n = scenario.norm.len();
    let queries: Vec<ItemId> = (0..n).map(ItemId).collect();
    let oracle = InstanceOracle::new(scenario.norm);

    // The reference: same seeds and sampling streams, but no faults, no
    // budget caps, a queue that admits the whole shard, and a deadline
    // no clean query can miss.
    let reference_config = ServiceConfig {
        worker_access_cap: None,
        queue_depth: scenario.config.queue_depth.max(n),
        deadline_ticks: u64::MAX / 4,
        ..scenario.config.clone()
    };
    let reference = serve_batch(
        scenario.lca,
        &oracle,
        &scenario.shared_seed,
        &scenario.service_root,
        &queries,
        &reference_config,
        None,
    )?;

    let report = serve_batch(
        scenario.lca,
        &oracle,
        &scenario.shared_seed,
        &scenario.service_root,
        &queries,
        &scenario.config,
        Some(&scenario.plan),
    )?;

    let full_tier_consistent = report.outcomes.iter().all(|outcome| {
        let Some(answered) = outcome.disposition.answered() else {
            return true;
        };
        if answered.tier != ResponseTier::Full {
            return true;
        }
        reference.outcomes[outcome.index]
            .disposition
            .answered()
            .is_some_and(|reference_answer| reference_answer.include == answered.include)
    });

    let optimum = exact_optimum(scenario.norm)?;
    let reference_audit = audit_selection(scenario.norm, &reference.to_selection(n), optimum);
    let chaos_audit = audit_selection(scenario.norm, &report.to_selection(n), optimum);

    let mut run = ChaosRun {
        label: scenario.label.to_string(),
        availability: report.availability(),
        eps: scenario.lca.eps(),
        report,
        reference,
        full_tier_consistent,
        reference_audit,
        chaos_value: chaos_audit.value,
        chaos_feasible: chaos_audit.feasible,
        json: String::new(),
    };
    run.json = render_json(scenario, &run);
    Ok(run)
}

/// `{:.4}` rendering for rates and ratios (stable across platforms for
/// the value ranges used here).
fn rate(value: f64) -> String {
    format!("{value:.4}")
}

fn fault_plan_json(plan: &FaultPlan) -> String {
    line([
        ("transient", quote(&rate(plan.transient_rate))),
        ("corruption", quote(&rate(plan.corruption_rate))),
        ("signalled", plan.signal_corruption.to_string()),
        ("sampler_bias", quote(&rate(plan.sampler_bias))),
    ])
}

/// Renders the scenario outcome as canonical JSON: fixed field order,
/// fixed float formatting, no dependence on anything but the run's
/// deterministic state. Two runs with the same root seed must produce
/// byte-identical output — the E14 acceptance check.
fn render_json(scenario: &ChaosScenario<'_>, run: &ChaosRun) -> String {
    let report = &run.report;
    let config = &scenario.config;
    let mut tiers = String::with_capacity(report.outcomes.len());
    let mut includes = String::with_capacity(report.outcomes.len());
    let mut deadline_met = 0usize;
    for outcome in &report.outcomes {
        match &outcome.disposition {
            Disposition::Shed(_) => {
                tiers.push('S');
                includes.push('-');
            }
            Disposition::Answered(answered) => {
                tiers.push(match answered.tier {
                    ResponseTier::Full => 'F',
                    ResponseTier::CachedRule => 'C',
                    ResponseTier::Trivial => 'T',
                    _ => '?',
                });
                includes.push(if answered.include { '1' } else { '0' });
                if answered.deadline_met {
                    deadline_met += 1;
                }
            }
        }
    }
    let plan = line([
        ("quiet", fault_plan_json(&scenario.plan.quiet)),
        ("burst", fault_plan_json(&scenario.plan.burst)),
        ("burst_period", scenario.plan.burst_period.to_string()),
        ("burst_len", scenario.plan.burst_len.to_string()),
    ]);
    let shed = report.shed_count();
    let tier = |tier| report.tier_count(tier).to_string();
    let summary = object([
        ("answered", (report.outcomes.len() - shed).to_string()),
        ("shed", shed.to_string()),
        ("tier_full", tier(ResponseTier::Full)),
        ("tier_cached", tier(ResponseTier::CachedRule)),
        ("tier_trivial", tier(ResponseTier::Trivial)),
        ("deadline_met", deadline_met.to_string()),
        ("availability", quote(&rate(run.availability))),
        (
            "breaker_transitions",
            report.breaker_transitions().to_string(),
        ),
        ("retries_used", report.retries_used().to_string()),
        ("accesses_used", report.accesses_used().to_string()),
        (
            "cached_rule_available",
            report.cached_rule_available.to_string(),
        ),
    ]);
    let verdict = object([
        ("full_tier_consistent", run.full_tier_consistent.to_string()),
        ("reference_value", run.reference_audit.value.to_string()),
        ("optimum", run.reference_audit.optimum.to_string()),
        (
            "reference_theorem_ok",
            run.reference_theorem_ok().to_string(),
        ),
        ("chaos_value", run.chaos_value.to_string()),
        ("chaos_feasible", run.chaos_feasible.to_string()),
    ]);
    let end_ticks = report
        .workers
        .iter()
        .map(|trace| trace.end_tick.to_string());
    let accesses = report
        .workers
        .iter()
        .map(|trace| trace.accesses_used.to_string());
    let access_cap = config.worker_access_cap.map(|cap| cap.to_string());
    object([
        ("label", quote(&run.label)),
        ("n", report.outcomes.len().to_string()),
        ("eps", quote(&run.eps.to_string())),
        ("workers", config.workers.to_string()),
        ("queue_depth", config.queue_depth.to_string()),
        ("deadline_ticks", config.deadline_ticks.to_string()),
        (
            "worker_access_cap",
            access_cap.unwrap_or_else(|| "null".into()),
        ),
        ("plan", plan),
        ("summary", summary),
        ("verdict", verdict),
        ("worker_end_ticks", list(end_ticks)),
        ("worker_accesses", list(accesses)),
        ("tiers", quote(&tiers)),
        ("includes", quote(&includes)),
    ])
}

/// The committed smoke scenario (CI and the golden test): a small
/// small-dominated instance, transient bursts plus signalled
/// corruption, one latency spike, and a breaker tuned to actually trip.
/// Everything derives from `root`, so the bench bin and the golden test
/// reproduce the identical JSON.
#[derive(Debug)]
pub struct SmokeParts {
    /// The generated instance.
    pub norm: NormalizedInstance,
    /// The LCA configuration.
    pub lca: LcaKp,
    /// Consistency seed.
    pub shared_seed: Seed,
    /// Runtime entropy root.
    pub service_root: Seed,
    /// Runtime tuning.
    pub config: ServiceConfig,
    /// Fault schedule.
    pub plan: ChaosPlan,
}

/// Builds the smoke scenario's parts from `root`.
///
/// # Errors
///
/// Propagates workload generation and LCA construction errors.
pub fn smoke_parts(root: &Seed) -> Result<SmokeParts, LcaError> {
    let workload_seed = seed_to_u64(&root.derive("chaos/workload", 0));
    let norm = WorkloadSpec::new(Family::SmallDominated, 48, workload_seed)
        .generate_normalized()
        .map_err(LcaError::from)?;
    let lca =
        LcaKp::new(Epsilon::new(1, 5)?)?.with_budget(SampleBudget::Calibrated { factor: 0.002 });
    // A clean full-tier query costs ≈24k ticks at these parameters, so
    // the deadline leaves ~2.5× headroom and the doubled-latency spike
    // window slows queries without blowing their deadlines.
    let config = ServiceConfig {
        workers: 3,
        queue_depth: 16,
        deadline_ticks: 60_000,
        dispatch_cost_ticks: 1,
        cost: CostModel::flat(1).with_spike(crate::deadline::LatencyWindow {
            start_tick: 100_000,
            end_tick: 160_000,
            extra_cost: 1,
        }),
        backoff: crate::backoff::BackoffPolicy::default(),
        // Cool-down is short relative to cached-tier progress (~2 ticks
        // per short-circuited query), so an open breaker recovers
        // mid-batch and the smoke exercises every legal edge.
        breaker: crate::breaker::BreakerConfig {
            failure_threshold: 2,
            cooldown_ticks: 6,
            half_open_probes: 1,
        },
        worker_access_cap: None,
        recovery: RecoveryDiscipline::Faithful,
    };
    let plan = ChaosPlan {
        quiet: FaultPlan::transient(0.02),
        burst: FaultPlan {
            transient_rate: 0.45,
            signal_corruption: true,
            corruption_rate: 0.05,
            ..FaultPlan::none()
        },
        burst_period: 16,
        burst_len: 6,
        worker_events: Vec::new(),
    };
    Ok(SmokeParts {
        norm,
        lca,
        shared_seed: root.derive("chaos/shared", 0),
        service_root: root.derive("chaos/service", 0),
        config,
        plan,
    })
}

/// Runs the smoke scenario.
///
/// # Errors
///
/// Propagates [`smoke_parts`] and [`run_scenario`] errors.
pub fn run_smoke(root: &Seed) -> Result<ChaosRun, LcaError> {
    let parts = smoke_parts(root)?;
    run_scenario(&ChaosScenario {
        label: "e14-smoke",
        norm: &parts.norm,
        lca: &parts.lca,
        shared_seed: parts.shared_seed,
        service_root: parts.service_root,
        config: parts.config.clone(),
        plan: parts.plan,
    })
}

/// First eight little-endian bytes of a derived seed, for APIs that
/// take `u64` seeds (workload generation).
pub fn seed_to_u64(seed: &Seed) -> u64 {
    let bytes = seed.as_bytes();
    u64::from_le_bytes([
        bytes[0], bytes[1], bytes[2], bytes[3], bytes[4], bytes[5], bytes[6], bytes[7],
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_windows_are_periodic() {
        let plan = ChaosPlan {
            quiet: FaultPlan::none(),
            burst: FaultPlan::transient(0.5),
            burst_period: 10,
            burst_len: 3,
            worker_events: Vec::new(),
        };
        for index in 0..40 {
            assert_eq!(plan.in_burst(index), index % 10 < 3, "index {index}");
            let assigned = plan.plan_for(index);
            if plan.in_burst(index) {
                assert_eq!(assigned, plan.burst);
            } else {
                assert_eq!(assigned, plan.quiet);
            }
        }
    }

    #[test]
    fn no_bursts_when_period_is_zero() {
        let plan = ChaosPlan::none();
        assert!(!plan.in_burst(0));
        assert!(plan.plan_for(0).is_inert());
    }

    #[test]
    fn crash_directives_pair_each_crash_with_the_first_free_restart() {
        let plan = ChaosPlan {
            worker_events: vec![
                WorkerEvent::Crash {
                    worker: 0,
                    at_tick: 10,
                    torn_keep: None,
                },
                WorkerEvent::Crash {
                    worker: 1,
                    at_tick: 5,
                    torn_keep: Some(3),
                },
                WorkerEvent::Restart {
                    worker: 0,
                    at_tick: 20,
                },
                WorkerEvent::Crash {
                    worker: 0,
                    at_tick: 50,
                    torn_keep: Some(0),
                },
            ],
            ..ChaosPlan::none()
        };
        assert_eq!(
            plan.crash_directives(0),
            vec![
                CrashDirective {
                    at_tick: 10,
                    torn_keep: None,
                    restarts: true,
                },
                CrashDirective {
                    at_tick: 50,
                    torn_keep: Some(0),
                    restarts: false,
                },
            ]
        );
        assert_eq!(
            plan.crash_directives(1),
            vec![CrashDirective {
                at_tick: 5,
                torn_keep: Some(3),
                restarts: false,
            }]
        );
        assert!(plan.crash_directives(2).is_empty());
    }

    #[test]
    fn seed_to_u64_is_stable() {
        let root = Seed::from_entropy_u64(9);
        assert_eq!(seed_to_u64(&root), seed_to_u64(&root));
        assert_ne!(seed_to_u64(&root), seed_to_u64(&root.derive("x", 1)));
    }
}
