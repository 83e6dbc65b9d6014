//! The E18 rebalance simulator: traffic-driven cluster schedules
//! against the admission-coupled ring-rebalance controller.
//!
//! Each case derives one load-concentrating traffic shape (hot shard,
//! bursty, or query of death), an optional overload surge, and node
//! crash/restart/partition events from `(root, case)`, then runs
//! [`serve_cluster_traffic`] twice over the same trace and faults: the
//! *controlled* run with the [`RebalanceController`] armed, and its
//! *no-rebalance twin* (same admission, the ring frozen at boot).
//! [`check_rebalance_run`] verifies the E18 invariants on the
//! controlled run's own audit trail:
//!
//! * **rebalance honesty** — every promotion cites an overloaded
//!   source signal and a live, under-loaded target;
//! * **no ping-pong** — promotions per shard per window stay under the
//!   dual-hysteresis bound;
//! * **epoch monotonicity** — ring epochs strictly increase, and a
//!   crashed node's journals replay the epoch the cluster reached;
//! * **migration byte-identity** — every acknowledged answer matches
//!   the shard's standalone replay of the same admitted subsequence
//!   (Theorem 4.1's consistency guarantee across a migration).
//!
//! The twin is the *relief* baseline: across the range, promotion must
//! demonstrably help at least one hot-shard scenario — neither the
//! hottest node's p99 nor the cluster shed rate worse than the frozen
//! ring's, and at least one strictly better.
//! [`RebalanceDiscipline::Faithful`] must survive every schedule;
//! [`RebalanceDiscipline::StaleEpoch`] is the planted bug (a router
//! that keeps serving from the boot ring view after a promotion), which
//! the simulator catches as stale-epoch sheds and shrinks to a
//! replayable repro.
//!
//! [`RebalanceController`]: lcakp_service::RebalanceController

use crate::cluster::map_node_events;
use crate::driver::{smoke, JsonFields, Scenario, SimReport};
use crate::invariants::{check_rebalance_run, Violation};
use crate::schedule::{generate_rebalance_schedule, SimEvent};
use crate::world::{TrafficWorld, WorldBase};
use lcakp_core::LcaError;
use lcakp_oracle::{InstanceOracle, Seed};
use lcakp_service::{
    serve_cluster_traffic, AdmissionDiscipline, ClusterTrafficConfig, ClusterTrafficReport,
    RebalanceConfig, RebalanceDiscipline, TrafficShape,
};

/// Rebalance-simulator tuning. The defaults keep one case (controlled
/// run + no-rebalance twin + per-shard standalone replays) in the tens
/// of milliseconds so seed ranges and shrink loops stay affordable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebalanceSimConfig {
    /// Instance size (arrivals query items `0..n`).
    pub n: usize,
    /// Nodes in the simulated membership.
    pub nodes: usize,
    /// Replicas per shard.
    pub replication: usize,
    /// Shards arrivals are routed over.
    pub shards: usize,
    /// Arrivals per generated trace.
    pub arrivals: usize,
    /// Routing discipline under test —
    /// [`RebalanceDiscipline::Faithful`] must survive every schedule;
    /// [`RebalanceDiscipline::StaleEpoch`] is the planted bug.
    pub routing: RebalanceDiscipline,
}

impl Default for RebalanceSimConfig {
    fn default() -> Self {
        RebalanceSimConfig {
            n: 24,
            nodes: 3,
            replication: 2,
            shards: 4,
            arrivals: 160,
            routing: RebalanceDiscipline::Faithful,
        }
    }
}

/// The fixed world one rebalance simulation runs in: the calibrated
/// traffic world plus the cluster it serves on. Everything here depends
/// only on `(root, config)` — the schedule is the entire difference
/// between two cases.
#[derive(Debug)]
pub struct RebalanceWorld {
    traffic: TrafficWorld,
    config: RebalanceSimConfig,
    cluster: ClusterTrafficConfig,
}

/// Headline counters of one controlled run, with its no-rebalance
/// twin's load figures alongside (rendered into the smoke JSON).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebalanceCaseStats {
    /// Arrivals the trace offered.
    pub offered: u64,
    /// Arrivals answered.
    pub answered: u64,
    /// Arrivals shed with a typed reason.
    pub shed: u64,
    /// Ring promotions the rebalance controller fired.
    pub promotions: usize,
    /// Arrival-time acting-owner changes caused by faults (not by
    /// promotions).
    pub failovers: usize,
    /// Sheds blaming a stale ring epoch (zero under faithful routing).
    pub stale_sheds: usize,
    /// The final ring epoch.
    pub final_epoch: u64,
    /// The hottest node's p99 end-to-end latency, virtual ticks.
    pub p99_ticks: u64,
    /// The same figure for the no-rebalance twin.
    pub twin_p99_ticks: u64,
    /// Cluster-wide shed rate, permille of offered arrivals.
    pub shed_permille: u32,
    /// The same figure for the no-rebalance twin.
    pub twin_shed_permille: u32,
    /// Whether rebalancing demonstrably relieved the cluster: at least
    /// one promotion fired, neither load figure got worse than the
    /// frozen-ring twin's, and at least one strictly improved.
    pub relieved: bool,
}

impl SimReport<RebalanceCaseStats> {
    /// Whether at least one hot-shard case was demonstrably relieved —
    /// the scenario the rebalance controller exists for. Not every
    /// hot-shard case can be: a partition may isolate every standby, or
    /// answering the arrivals the frozen-ring twin would have shed can
    /// legitimately widen the donor's latency tail even as the shed
    /// rate collapses.
    pub fn hot_shard_relieved(&self) -> bool {
        self.cases
            .iter()
            .filter(|case| {
                case.events.iter().any(|event| {
                    matches!(
                        event,
                        SimEvent::Traffic {
                            shape: TrafficShape::HotShard,
                            ..
                        }
                    )
                })
            })
            .any(|case| case.stats.relieved)
    }
}

impl RebalanceWorld {
    /// Builds the world for `root`: the same dominated instance family
    /// and tuning as the E15/E16/E17 worlds — under rebalance-specific
    /// domain labels, so the simulators' random streams stay
    /// independent — then calibrates the per-query service cost with
    /// the shared probe and scales the SLO deadline, the admission
    /// hysteresis, and the rebalance dwell/window to it.
    ///
    /// # Errors
    ///
    /// Propagates workload generation, LCA construction, and probe-run
    /// errors.
    pub fn build(root: &Seed, config: &RebalanceSimConfig) -> Result<RebalanceWorld, LcaError> {
        let base = WorldBase::build(
            config.n,
            [
                root.derive("sim/rebalance-workload", 0),
                root.derive("sim/rebalance-shared", 0),
                root.derive("sim/rebalance-serving", 0),
            ],
        )?;
        let traffic = TrafficWorld::build(
            base,
            root.derive("sim/rebalance-trace", 0),
            config.shards,
            config.arrivals,
        )?;

        // The rebalance dual hysteresis, in the same calibrated unit as
        // the admission controller: a short dwell (promote fast under
        // genuine heat) under a long window (but never twice per shard
        // back to back — the anti-ping-pong bound).
        let cost = traffic.cost;
        let rebalance = RebalanceConfig {
            enter_queue_depth: 6,
            enter_miss_permille: 250,
            target_queue_depth: 3,
            hysteresis_ticks: cost * 4,
            window_ticks: cost * 64,
            max_promotions_per_shard: 2,
        };
        let cluster = ClusterTrafficConfig {
            nodes: config.nodes,
            replication: config.replication,
            shards: config.shards,
            vnodes: 64,
            service: traffic.service.clone(),
            admission: traffic.admission,
            discipline: Some(AdmissionDiscipline::Faithful),
            rebalance: Some(rebalance),
            routing: config.routing,
        };
        Ok(RebalanceWorld {
            traffic,
            config: *config,
            cluster,
        })
    }
}

impl Scenario for RebalanceWorld {
    type Stats = RebalanceCaseStats;

    fn header(&self) -> Vec<(&'static str, usize)> {
        vec![
            ("n", self.config.n),
            ("nodes", self.config.nodes),
            ("replication", self.config.replication),
            ("shards", self.config.shards),
            ("arrivals", self.config.arrivals),
        ]
    }

    fn discipline(&self) -> (&'static str, String) {
        ("routing", self.config.routing.to_string())
    }

    fn schedule(&self, root: &Seed, case: u64) -> Vec<SimEvent> {
        generate_rebalance_schedule(root, case, self.config.nodes)
    }

    /// Runs one schedule: builds the trace, maps the node faults onto
    /// the trace horizon, runs the controlled cluster and its
    /// no-rebalance twin, and checks every E18 invariant (including
    /// migration byte-identity against per-shard standalone replays).
    fn run_schedule(
        &self,
        events: &[SimEvent],
    ) -> Result<(RebalanceCaseStats, Vec<Violation>), LcaError> {
        let base = &self.traffic.base;
        let trace = self.traffic.build_trace(events);
        let horizon = trace.last().map_or(0, |arrival| arrival.at_tick).max(1);
        let node_events = map_node_events(events, horizon, self.cluster.nodes);
        let oracle = InstanceOracle::new(&base.norm);
        let controlled = serve_cluster_traffic(
            &base.lca,
            &oracle,
            &base.shared_seed,
            &base.service_root,
            &trace,
            &self.cluster,
            &node_events,
        )?;
        let twin = serve_cluster_traffic(
            &base.lca,
            &oracle,
            &base.shared_seed,
            &base.service_root,
            &trace,
            &ClusterTrafficConfig {
                rebalance: None,
                routing: RebalanceDiscipline::Faithful,
                ..self.cluster.clone()
            },
            &node_events,
        )?;
        let rebalance = self
            .cluster
            .rebalance
            .expect("the world always arms the controller");
        let mut violations = check_rebalance_run(&controlled, &rebalance, trace.len());
        // Every case's trace differs, so no replay is shared.
        violations.extend(self.traffic.replica_mismatches(&controlled, &trace, &[]));
        Ok((case_stats(&controlled, &twin), violations))
    }
}

impl JsonFields for RebalanceCaseStats {
    fn fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("offered", self.offered.to_string()),
            ("answered", self.answered.to_string()),
            ("shed", self.shed.to_string()),
            ("promotions", self.promotions.to_string()),
            ("failovers", self.failovers.to_string()),
            ("stale_sheds", self.stale_sheds.to_string()),
            ("epoch", self.final_epoch.to_string()),
            ("p99", self.p99_ticks.to_string()),
            ("twin_p99", self.twin_p99_ticks.to_string()),
            ("shed_permille", self.shed_permille.to_string()),
            ("twin_shed_permille", self.twin_shed_permille.to_string()),
            ("relieved", self.relieved.to_string()),
        ]
    }

    fn summary(report: &SimReport<Self>) -> Option<(&'static str, bool)> {
        Some(("hot_shard_relieved", report.hot_shard_relieved()))
    }
}

/// Folds one controlled run and its no-rebalance twin into the
/// headline stats, including the relief verdict.
fn case_stats(
    controlled: &ClusterTrafficReport,
    twin: &ClusterTrafficReport,
) -> RebalanceCaseStats {
    let hottest_p99 = |report: &ClusterTrafficReport| {
        report
            .nodes
            .iter()
            .map(|node| node.slo.p99_ticks)
            .max()
            .unwrap_or(0)
    };
    let shed_permille = |report: &ClusterTrafficReport| {
        u32::try_from(report.slo.shed * 1000 / report.slo.offered.max(1)).unwrap_or(u32::MAX)
    };
    let p99_ticks = hottest_p99(controlled);
    let twin_p99_ticks = hottest_p99(twin);
    let controlled_shed = shed_permille(controlled);
    let twin_shed = shed_permille(twin);
    let promotions = controlled.promotion_count();
    RebalanceCaseStats {
        offered: controlled.slo.offered,
        answered: controlled.slo.answered,
        shed: controlled.slo.shed,
        promotions,
        failovers: controlled.shards.iter().map(|shard| shard.failovers).sum(),
        stale_sheds: controlled.stale_sheds(),
        final_epoch: controlled.final_epoch.get(),
        p99_ticks,
        twin_p99_ticks,
        shed_permille: controlled_shed,
        twin_shed_permille: twin_shed,
        relieved: promotions > 0
            && p99_ticks <= twin_p99_ticks
            && controlled_shed <= twin_shed
            && (p99_ticks < twin_p99_ticks || controlled_shed < twin_shed),
    }
}

/// Cases the smoke run covers (CI diffs its JSON against the golden).
pub const E18_SMOKE_CASES: u64 = 10;

/// Runs the committed smoke for the `e18_rebalance --smoke` bin and
/// the golden test: [`E18_SMOKE_CASES`] cases under faithful routing,
/// plus the planted-bug section — the stale-epoch router hunted over
/// the same schedules and shrunk to its minimal repro.
///
/// # Errors
///
/// Propagates world construction and [`run_range`](crate::run_range) errors.
pub fn run_rebalance_smoke(root: &Seed) -> Result<String, LcaError> {
    let config = RebalanceSimConfig::default();
    let planted = RebalanceSimConfig {
        routing: RebalanceDiscipline::StaleEpoch,
        ..config
    };
    smoke(
        root,
        "e18-smoke",
        &RebalanceWorld::build(root, &config)?,
        Some(&RebalanceWorld::build(root, &planted)?),
        E18_SMOKE_CASES,
    )
}
