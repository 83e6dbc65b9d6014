//! The E16 cluster simulator: node-level fault schedules against the
//! simulated multi-node runtime.
//!
//! Each case derives node crashes, restarts, and partitions from
//! `(root, case)`, runs [`serve_cluster`] twice — the faulted run and
//! its fault-free twin — and checks the cluster invariants: failover
//! transparency, exactly-one outcome per query, routing honesty (no
//! shed while a live replica was reachable), journal discipline on the
//! shipped per-shard journals, and **replica byte-identity**: every
//! shard is re-served standalone (what any replica computes from the
//! shared seeds alone, per Theorem 4.1's consistency guarantee) and the
//! answers the cluster acknowledged must match byte-for-byte on every
//! surviving replica.
//!
//! Schedule ticks are permille of the fault-free *cluster horizon* (the
//! max shard end tick), so shrunk schedules stay meaningful across
//! instance sizes exactly as in the E15 harness.

use crate::driver::{smoke, JsonFields, Scenario};
use crate::invariants::{check_cluster_run, Violation};
use crate::schedule::{generate_cluster_schedule, SimEvent};
use crate::world::{WorldBase, BREAKER};
use lcakp_core::LcaError;
use lcakp_oracle::{InstanceOracle, Seed};
use lcakp_service::{
    serve_cluster, serve_shard_standalone, ClusterConfig, ClusterReport, Disposition, NodeEvent,
    NodeId, QueryOutcome, Ring, RoutingDiscipline, ServiceConfig,
};
use std::collections::BTreeMap;

/// Cluster-simulator tuning. The defaults keep one case (twin +
/// faulted run + per-shard standalone replays) in the hundreds of
/// milliseconds so seed ranges and shrink loops stay affordable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterSimConfig {
    /// Instance size (= batch size: the batch queries every item).
    pub n: usize,
    /// Nodes in the simulated membership.
    pub nodes: usize,
    /// Replicas per shard.
    pub replication: usize,
    /// Shards queries are routed over.
    pub shards: usize,
    /// Routing discipline under test — [`RoutingDiscipline::Faithful`]
    /// must survive every schedule; [`RoutingDiscipline::StaleRing`] is
    /// the planted bug the simulator exists to catch.
    pub routing: RoutingDiscipline,
}

impl Default for ClusterSimConfig {
    fn default() -> Self {
        ClusterSimConfig {
            n: 24,
            nodes: 4,
            replication: 2,
            shards: 6,
            routing: RoutingDiscipline::Faithful,
        }
    }
}

/// The fixed world one cluster simulation runs in. The fault-free twin
/// and the per-shard standalone replays depend only on the world (node
/// events never touch them), so both are computed once at build time
/// and shared by every case and shrink candidate.
#[derive(Debug)]
pub struct ClusterWorld {
    base: WorldBase,
    config: ClusterSimConfig,
    cluster: ClusterConfig,
    twin: ClusterReport,
    horizon: u64,
    standalone: Vec<Vec<QueryOutcome>>,
}

/// Headline counters of one faulted cluster run (rendered into the
/// smoke JSON).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterCaseStats {
    /// Queries answered (any tier).
    pub answered: usize,
    /// Queries shed with a typed reason.
    pub shed: usize,
    /// Node crashes that actually fired.
    pub node_crashes: usize,
    /// Shard ownership changes survived via journal shipping.
    pub failovers: usize,
}

impl ClusterWorld {
    /// Builds the world for `root`: the same dominated instance family
    /// and tuning as the E15 [`SimWorld`](crate::SimWorld) — under
    /// cluster-specific domain labels, so the two simulators' random
    /// streams stay independent — with the worker pool replaced by a
    /// simulated cluster.
    ///
    /// # Errors
    ///
    /// Propagates workload generation and LCA construction errors.
    pub fn build(root: &Seed, config: &ClusterSimConfig) -> Result<ClusterWorld, LcaError> {
        let base = WorldBase::build(
            config.n,
            [
                root.derive("sim/cluster-workload", 0),
                root.derive("sim/cluster-shared", 0),
                root.derive("sim/cluster-serving", 0),
            ],
        )?;
        let cluster = ClusterConfig {
            nodes: config.nodes,
            replication: config.replication,
            shards: config.shards,
            routing: config.routing,
            base: ServiceConfig {
                workers: 1,
                queue_depth: config.n.max(1),
                breaker: BREAKER,
                ..ServiceConfig::default()
            },
            ..ClusterConfig::default()
        };
        let batch = base.batch();
        let oracle = InstanceOracle::new(&base.norm);
        let twin = serve_cluster(
            &base.lca,
            &oracle,
            &base.shared_seed,
            &base.service_root,
            &batch,
            &cluster,
            &[],
        )?;
        let horizon = twin
            .shards
            .iter()
            .map(|trace| trace.end_tick)
            .max()
            .unwrap_or(0)
            .max(1);
        let standalone = (0..cluster.shards)
            .map(|shard| {
                serve_shard_standalone(
                    &base.lca,
                    &oracle,
                    &base.shared_seed,
                    &base.service_root,
                    &batch,
                    shard,
                    &cluster,
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ClusterWorld {
            base,
            config: *config,
            cluster,
            twin,
            horizon,
            standalone,
        })
    }

    /// The replica byte-identity check: every shard's precomputed
    /// standalone replay — what each replica computes from the shared
    /// seeds alone — must match every answer the faulted cluster
    /// acknowledged byte-for-byte. A mismatch is reported against each
    /// surviving replica of the shard's boot-time group.
    fn replica_mismatches(&self, faulted: &ClusterReport) -> Vec<Violation> {
        let mut violations = Vec::new();
        let ring = Ring::new(self.cluster.nodes, self.cluster.vnodes);
        for (shard, standalone) in self.standalone.iter().enumerate() {
            let set = ring
                .replicas(shard, self.cluster.replication)
                .expect("a non-empty membership always routes");
            let alive: Vec<NodeId> = set
                .nodes()
                .iter()
                .copied()
                .filter(|node| {
                    faulted
                        .nodes
                        .get(node.0)
                        .is_some_and(|trace| trace.alive_at_end)
                })
                .collect();
            if alive.is_empty() {
                continue;
            }
            let reference: BTreeMap<usize, &Disposition> = standalone
                .iter()
                .map(|outcome| (outcome.index, &outcome.disposition))
                .collect();
            let mismatch = faulted.outcomes.iter().any(|outcome| {
                outcome.index % self.cluster.shards == shard
                    && outcome.disposition.answered().is_some()
                    && reference.get(&outcome.index) != Some(&&outcome.disposition)
            });
            if mismatch {
                for node in alive {
                    violations.push(Violation::ReplicaAnswerMismatch {
                        shard,
                        node: node.0,
                    });
                }
            }
        }
        violations
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

    /// Runs one node-level schedule against the precomputed fault-free
    /// twin: maps permille ticks onto the twin's horizon, runs the
    /// faulted cluster, then checks every cluster invariant including
    /// replica byte-identity.
    fn run_schedule(
        &self,
        events: &[SimEvent],
    ) -> Result<(ClusterCaseStats, Vec<Violation>), LcaError> {
        let batch = self.base.batch();
        let oracle = InstanceOracle::new(&self.base.norm);
        let node_events = map_node_events(events, self.horizon, self.cluster.nodes);
        let faulted = serve_cluster(
            &self.base.lca,
            &oracle,
            &self.base.shared_seed,
            &self.base.service_root,
            &batch,
            &self.cluster,
            &node_events,
        )?;
        let mut violations = check_cluster_run(&self.twin, &faulted, batch.len());
        violations.extend(self.replica_mismatches(&faulted));
        let stats = ClusterCaseStats {
            answered: faulted.answered_count(),
            shed: faulted.shed_count(),
            node_crashes: faulted.nodes.iter().map(|trace| trace.crashes).sum(),
            failovers: faulted.failover_count(),
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
/// the twin's cluster horizon. Events naming a node the membership
/// doesn't have, worker-level E15 events, and degenerate partitions
/// (cutting nobody or everybody) are dropped — shrunk or hand-written
/// schedules may contain them.
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
