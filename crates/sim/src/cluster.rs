//! The E16 cluster simulator: node-level fault schedules against the
//! arrival-driven cluster engine.
//!
//! Each case derives node crashes, restarts, and partitions from
//! `(root, case)`, maps their permille ticks onto the horizon of one
//! fixed steady trace, and sends that trace through
//! [`serve_cluster_traffic`] with admission and rebalancing off, so
//! routing alone decides every shed. [`check_cluster_run`] checks the
//! run's own records: exactly one outcome per arrival, routing honesty
//! (no shed while a live replica was reachable), and journal discipline
//! on every node's journal. The world adds **replica byte-identity**:
//! every shard's admitted arrivals are replayed standalone — what any
//! replica computes from the shared seeds alone, per Theorem 4.1's
//! consistency guarantee — and every answer the cluster acknowledged
//! must match byte-for-byte. That check covers every acknowledged
//! answer, so no fault-free twin runs.

use crate::driver::{smoke, JsonFields, Scenario};
use crate::invariants::{check_cluster_run, Violation};
use crate::schedule::{generate_cluster_schedule, SimEvent};
use crate::world::{ShardReplay, TrafficWorld, WorldBase};
use lcakp_core::LcaError;
use lcakp_oracle::{InstanceOracle, Seed};
use lcakp_service::{
    serve_cluster_traffic, Arrival, ClusterTrafficConfig, NodeEvent, NodeId, RebalanceDiscipline,
    TrafficShape,
};

/// The fixed trace's mean arrival gap, permille of the calibrated
/// per-query cost: one server's capacity, spread over every node.
const TRACE_GAP_PERMILLE: u32 = 1000;

/// Cluster-simulator tuning. The defaults keep one case (the faulted
/// run plus per-shard standalone replays) in the tens of milliseconds
/// so seed ranges and shrink loops stay affordable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterSimConfig {
    /// Instance size, and the fixed trace's length (arrivals query
    /// items `0..n`).
    pub n: usize,
    /// Nodes in the simulated membership.
    pub nodes: usize,
    /// Replicas per shard.
    pub replication: usize,
    /// Shards arrivals are routed over.
    pub shards: usize,
    /// Routing discipline under test — [`RebalanceDiscipline::Faithful`]
    /// must survive every schedule; [`RebalanceDiscipline::StaleRing`]
    /// is the planted bug the simulator exists to catch.
    pub routing: RebalanceDiscipline,
}

impl Default for ClusterSimConfig {
    fn default() -> Self {
        ClusterSimConfig {
            n: 24,
            nodes: 4,
            replication: 2,
            shards: 6,
            routing: RebalanceDiscipline::Faithful,
        }
    }
}

/// The fixed world one cluster simulation runs in: the calibrated
/// traffic world, its one steady trace, and the cluster it serves on.
/// Everything here depends only on `(root, config)` — the schedule is
/// the entire difference between two cases.
#[derive(Debug)]
pub struct ClusterWorld {
    traffic: TrafficWorld,
    config: ClusterSimConfig,
    cluster: ClusterTrafficConfig,
    trace: Vec<Arrival>,
    /// Every shard's replay of its full subsequence of `trace`: with
    /// admission off, a shard that shed nothing admitted exactly that,
    /// so most cases compare against it instead of replaying.
    replays: Vec<ShardReplay>,
}

/// Headline counters of one faulted cluster run (rendered into the
/// smoke JSON).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterCaseStats {
    /// Arrivals answered (any tier).
    pub answered: u64,
    /// Arrivals shed with a typed reason.
    pub shed: u64,
    /// Node crashes that actually fired.
    pub node_crashes: usize,
    /// Arrival-time acting-owner changes: a shard moving to another
    /// replica, or back to a revived or reconnected one.
    pub failovers: usize,
}

impl ClusterWorld {
    /// Builds the world for `root`: the same dominated instance family
    /// and tuning as the other simulators' worlds — under
    /// cluster-specific domain labels, so their random streams stay
    /// independent — calibrated by the shared probe, plus one steady
    /// trace at [`TRACE_GAP_PERMILLE`] and a cluster with admission and
    /// rebalancing off.
    ///
    /// # Errors
    ///
    /// Propagates workload generation, LCA construction, and probe-run
    /// errors.
    pub fn build(root: &Seed, config: &ClusterSimConfig) -> Result<ClusterWorld, LcaError> {
        let base = WorldBase::build(
            config.n,
            [
                root.derive("sim/cluster-workload", 0),
                root.derive("sim/cluster-shared", 0),
                root.derive("sim/cluster-serving", 0),
            ],
        )?;
        let traffic = TrafficWorld::build(
            base,
            root.derive("sim/cluster-trace", 0),
            config.shards,
            config.n,
        )?;
        let trace = traffic.build_trace(&[SimEvent::Traffic {
            shape: TrafficShape::Steady,
            gap_permille: TRACE_GAP_PERMILLE,
        }]);
        let cluster = ClusterTrafficConfig {
            nodes: config.nodes,
            replication: config.replication,
            shards: config.shards,
            vnodes: 64,
            service: traffic.service.clone(),
            admission: traffic.admission,
            discipline: None,
            rebalance: None,
            routing: config.routing,
        };
        let replays = traffic.fault_free_replays(&trace);
        Ok(ClusterWorld {
            traffic,
            config: *config,
            cluster,
            trace,
            replays,
        })
    }
}

impl Scenario for ClusterWorld {
    type Stats = ClusterCaseStats;

    fn header(&self) -> Vec<(&'static str, usize)> {
        vec![
            ("n", self.config.n),
            ("nodes", self.config.nodes),
            ("replication", self.config.replication),
            ("shards", self.config.shards),
        ]
    }

    fn discipline(&self) -> (&'static str, String) {
        ("routing", self.config.routing.to_string())
    }

    fn schedule(&self, root: &Seed, case: u64) -> Vec<SimEvent> {
        generate_cluster_schedule(root, case, self.config.nodes)
    }

    /// Runs one node-level schedule: maps its permille ticks onto the
    /// trace horizon, serves the trace, then checks every cluster
    /// invariant including replica byte-identity.
    fn run_schedule(
        &self,
        events: &[SimEvent],
    ) -> Result<(ClusterCaseStats, Vec<Violation>), LcaError> {
        let base = &self.traffic.base;
        let horizon = self
            .trace
            .last()
            .map_or(0, |arrival| arrival.at_tick)
            .max(1);
        let node_events = map_node_events(events, horizon, self.cluster.nodes);
        let faulted = serve_cluster_traffic(
            &base.lca,
            &InstanceOracle::new(&base.norm),
            &base.shared_seed,
            &base.service_root,
            &self.trace,
            &self.cluster,
            &node_events,
        )?;
        let mut violations = check_cluster_run(&faulted, self.trace.len());
        violations.extend(
            self.traffic
                .replica_mismatches(&faulted, &self.trace, &self.replays),
        );
        let stats = ClusterCaseStats {
            answered: faulted.slo.answered,
            shed: faulted.slo.shed,
            node_crashes: faulted.nodes.iter().map(|node| node.crashes).sum(),
            failovers: faulted.shards.iter().map(|shard| shard.failovers).sum(),
        };
        Ok((stats, violations))
    }
}

impl JsonFields for ClusterCaseStats {
    fn fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("answered", self.answered.to_string()),
            ("shed", self.shed.to_string()),
            ("node_crashes", self.node_crashes.to_string()),
            ("failovers", self.failovers.to_string()),
        ]
    }
}

/// Turns the schedule's permille ticks into absolute [`NodeEvent`]s on
/// the trace horizon. Events naming a node the membership doesn't have,
/// worker-level E15 events, and degenerate partitions (cutting nobody
/// or everybody) are dropped — shrunk or hand-written schedules may
/// contain them.
pub(crate) fn map_node_events(events: &[SimEvent], horizon: u64, nodes: usize) -> Vec<NodeEvent> {
    let at = |permille: u32| horizon * u64::from(permille) / 1000;
    let mut mapped = Vec::new();
    for event in events {
        match *event {
            SimEvent::NodeCrash {
                node,
                tick_permille,
                torn_keep,
            } if node < nodes => {
                mapped.push(NodeEvent::NodeCrash {
                    node: NodeId(node),
                    at_tick: at(tick_permille),
                    torn_keep,
                });
            }
            SimEvent::NodeRestart {
                node,
                tick_permille,
            } if node < nodes => {
                mapped.push(NodeEvent::NodeRestart {
                    node: NodeId(node),
                    at_tick: at(tick_permille),
                });
            }
            SimEvent::Partition {
                cut_mask,
                from_permille,
                heal_permille,
            } => {
                // Nodes absent from every group stay on the client's
                // side, so a single far-side group encodes the cut.
                let cut: Vec<NodeId> = (0..nodes.min(32))
                    .filter(|&node| cut_mask & (1 << node) != 0)
                    .map(NodeId)
                    .collect();
                if cut.is_empty() || cut.len() == nodes {
                    continue;
                }
                mapped.push(NodeEvent::Partition {
                    groups: vec![cut],
                    at_tick: at(from_permille),
                    heal_at: heal_permille.map_or(u64::MAX, at),
                });
            }
            _ => {}
        }
    }
    mapped
}

/// Cases the smoke run covers (CI diffs its JSON against the golden).
pub const E16_SMOKE_CASES: u64 = 5;

/// Runs the committed smoke range for the `e16_cluster --smoke` bin
/// and the golden test: [`E16_SMOKE_CASES`] cases under faithful
/// routing.
///
/// # Errors
///
/// Propagates world construction and [`run_range`](crate::run_range) errors.
pub fn run_cluster_smoke(root: &Seed) -> Result<String, LcaError> {
    let world = ClusterWorld::build(root, &ClusterSimConfig::default())?;
    smoke(root, "e16-smoke", &world, None, E16_SMOKE_CASES)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_events_map_onto_the_horizon_and_drop_degenerates() {
        let events = [
            SimEvent::NodeCrash {
                node: 1,
                tick_permille: 500,
                torn_keep: Some(9),
            },
            SimEvent::NodeRestart {
                node: 7,
                tick_permille: 600,
            },
            SimEvent::Partition {
                cut_mask: 0b0110,
                from_permille: 250,
                heal_permille: None,
            },
            SimEvent::Partition {
                cut_mask: 0b1111,
                from_permille: 100,
                heal_permille: Some(200),
            },
            SimEvent::Crash {
                worker: 0,
                tick_permille: 10,
                torn_keep: None,
            },
        ];
        let mapped = map_node_events(&events, 1000, 4);
        assert_eq!(
            mapped,
            vec![
                NodeEvent::NodeCrash {
                    node: NodeId(1),
                    at_tick: 500,
                    torn_keep: Some(9),
                },
                NodeEvent::Partition {
                    groups: vec![vec![NodeId(1), NodeId(2)]],
                    at_tick: 250,
                    heal_at: u64::MAX,
                },
            ]
        );
    }

    #[test]
    fn cluster_schedules_always_contain_a_node_crash() {
        let root = Seed::from_entropy_u64(11);
        for case in 0..32 {
            let events = generate_cluster_schedule(&root, case, 4);
            assert_eq!(events, generate_cluster_schedule(&root, case, 4));
            assert!(
                events.iter().any(|event| matches!(
                    event,
                    SimEvent::NodeCrash { node, .. } if *node < 4
                )),
                "case {case} has no node crash: {events:?}"
            );
        }
    }
}
