//! The simulated multi-node cluster runtime: one arrival-driven engine
//! behind experiments E16, E17 and E18.
//!
//! [`serve_cluster_traffic`] serves an open-loop arrival trace from
//! [`crate::traffic`] on a cluster of nodes hosting replicated shards,
//! placed by the consistent-hash [`Ring`] through an epoch-versioned
//! [`RingView`]. The paper's Theorem 4.1 consistency plus Definition 2.4
//! statelessness make replication *free*: every replica derives from
//! the same root seeds, so any node serving a shard produces
//! byte-identical answers. [`replay_shard_traffic`] — one shard's
//! admitted arrivals on a fresh core — is what every replica computes,
//! and the simulators compare the cluster's answers against it. The
//! result is a pure function of `(inputs, config, events)`: no thread
//! scheduling, no wall clock.
//!
//! # State split
//!
//! Each *shard* owns the pool's `ShardCore` (clock, breaker, budget,
//! scratch), so answer bytes depend only on the admitted per-shard
//! subsequence, never on placement. Each *node* owns the queueing model
//! (a busy horizon plus in-flight completions, so end-to-end latency
//! and overload signals genuinely move when a shard does) and its
//! write-ahead journal of admissions, answers, sheds and ring changes.
//!
//! # The membership
//!
//! One crate-private membership holds node liveness with crash/restart
//! counts, every partition's groups, and the tick-sorted fault timeline
//! of [`NodeEvent`]s. Due ops fire before the first arrival at or after
//! their tick, and once more after the last arrival; a crash of a dead
//! node and a restart of a live one are skipped. The membership answers
//! who is alive and reachable, picks the router's owner, and writes the
//! shed audits. A crash tears the node's last journal append (if the
//! event says so), wipes its RAM and records the epoch replay; a
//! restart discards a torn tail before the node appends again. A node
//! event naming a node outside the membership is rejected up front.
//!
//! # Failover and partitions
//!
//! The router sends each arrival to the first alive, reachable replica
//! of its shard in ring order. Reachability is judged from the client's
//! vantage point, wired to node 0's side of every active partition
//! ([`NodeEvent::Partition`]). When no replica is usable the arrival
//! sheds explicitly — [`ShedReason::NodeUnreachable`] when the replica
//! group is gone, [`ShedReason::Partitioned`] when live replicas exist
//! but a partition cut them all off — with a [`ShedAudit`] of the true
//! replica state. Never a silent drop. A healed partition or a
//! restarted node serves again from the next arrival on; a query in
//! flight at a crash survives, because the journal is synchronously
//! replicated and any replica recomputes the identical answer.
//!
//! # Admission and rebalancing
//!
//! Every node runs its own [`SignalWindow`] and [`AdaptiveAdmission`]
//! controller over the queries routed to it. When a node's
//! [`LoadSignal`] crosses the overload threshold while a live standby
//! replica sits under-loaded, the [`RebalanceController`] promotes that
//! standby to acting owner of the node's hottest shard through an
//! epoch-versioned view update. Every promotion is journaled as a
//! [`JournalRecord::RingChange`] on all live nodes, and a crash records
//! the epoch recovered from the surviving journals next to the epoch
//! the cluster had actually reached.
//!
//! E16 runs the engine with admission and rebalancing off: a fixed
//! trace under node faults alone. E17's
//! [`run_open_loop`](crate::traffic::run_open_loop) runs it on a
//! dedicated view — shard `s` alone on node `s`, replication 1, no
//! rebalancing, no node events — which is exactly a set of independent
//! single-server shards: with one shard per node, the node's busy
//! horizon is the shard's clock. E18 runs all of it.
//!
//! # The planted routing bugs
//!
//! [`RebalanceDiscipline::StaleRing`] is E16's: the router consults only
//! the boot primary, so after that primary is lost it sheds
//! `NodeUnreachable` while a live replica sits idle — the shed audit
//! names the reachable replica it never tried.
//! [`RebalanceDiscipline::StaleEpoch`] is E18's: a router frozen on the
//! boot view, whose misroutes shed [`ShedReason::StaleRingEpoch`] with
//! both epochs on record.

use crate::admission::{
    AdaptiveAdmission, AdmissionConfig, AdmissionDecision, AdmissionDiscipline, AdmissionState,
    ShedReason,
};
use crate::journal::{DecodeMode, Journal, JournalRecord};
use crate::rebalance::{RebalanceAudit, RebalanceConfig, RebalanceController, RebalanceDiscipline};
use crate::ring::{NodeId, Ring, RingEpoch, RingView};
use crate::service::{Answered, ServiceConfig, ShardCore, SharedCtx};
use crate::slo::{LatencyHistogram, LoadSignal, SignalWindow, SloReport};
use crate::traffic::{Arrival, TrafficDisposition, TrafficOutcome};
use lcakp_core::{LcaError, LcaKp};
use lcakp_oracle::{ItemOracle, Seed, WeightedSampler};
use std::fmt;

/// One node-level fault event. It fires before the first arrival at or
/// after its tick; an event past the last arrival fires after it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeEvent {
    /// Kill a node at `at_tick`: its RAM (queue, signal window,
    /// admission controller) is lost, its journal survives, and its
    /// shards fail over to the next usable replica.
    NodeCrash {
        /// The node to kill.
        node: NodeId,
        /// Tick the crash fires at.
        at_tick: u64,
        /// How many bytes of the node's last journal append survived
        /// replication — `None` keeps it whole, `Some(k)` keeps its
        /// first `k` bytes (a restart discards the torn tail).
        torn_keep: Option<usize>,
    },
    /// Revive a dead node at `at_tick` with empty memory; it serves
    /// again from the next arrival routed to it.
    NodeRestart {
        /// The node to revive.
        node: NodeId,
        /// Tick the restart fires at.
        at_tick: u64,
    },
    /// Split the membership into disjoint `groups` at `at_tick`; nodes
    /// absent from every group stay on the client's side. Heals at
    /// `heal_at` (`u64::MAX` = never).
    Partition {
        /// The partition's sides; cross-group traffic is dropped.
        groups: Vec<Vec<NodeId>>,
        /// Tick the cut fires at.
        at_tick: u64,
        /// Tick the cut heals at (`u64::MAX` = never).
        heal_at: u64,
    },
}

impl fmt::Display for NodeEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeEvent::NodeCrash {
                node,
                at_tick,
                torn_keep,
            } => match torn_keep {
                Some(keep) => {
                    write!(f, "node-crash({node}, at={at_tick}, torn-keep={keep})")
                }
                None => write!(f, "node-crash({node}, at={at_tick})"),
            },
            NodeEvent::NodeRestart { node, at_tick } => {
                write!(f, "node-restart({node}, at={at_tick})")
            }
            NodeEvent::Partition {
                groups,
                at_tick,
                heal_at,
            } => {
                write!(f, "partition(groups=[")?;
                for (position, group) in groups.iter().enumerate() {
                    if position > 0 {
                        write!(f, " | ")?;
                    }
                    for (inner, node) in group.iter().enumerate() {
                        if inner > 0 {
                            write!(f, " ")?;
                        }
                        write!(f, "{node}")?;
                    }
                }
                write!(f, "], at={at_tick}, heal=")?;
                if *heal_at == u64::MAX {
                    write!(f, "never)")
                } else {
                    write!(f, "{heal_at})")
                }
            }
        }
    }
}

/// Audit record of one routing shed: the *true* replica state at shed
/// time, so the simulator can prove a shed was honest (no live
/// reachable replica existed) or catch a routing bug lying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShedAudit {
    /// The shard of the shed arrival.
    pub shard: usize,
    /// The reason the arrival shed with.
    pub reason: ShedReason,
    /// Replicas that were actually alive at shed time.
    pub alive_replicas: Vec<NodeId>,
    /// Alive replicas that were also reachable from the client.
    pub reachable_replicas: Vec<NodeId>,
}

/// A fault op on the membership's timeline (a partition's cut and heal
/// are separate ops, so the timeline is a flat sorted list).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Crash {
        node: usize,
        torn_keep: Option<usize>,
    },
    Restart {
        node: usize,
    },
    Cut {
        slot: usize,
    },
    Heal {
        slot: usize,
    },
}

/// The node-fault model of the cluster: node liveness with
/// crash/restart counts, every partition's groups with whether its cut
/// is active, and the tick-sorted fault timeline. By statelessness
/// (Definition 2.4) and consistency (Theorem 4.1) a shard answers the
/// same on any node, so this is pure placement bookkeeping: it decides
/// who may serve, never what is served.
struct Membership {
    alive: Vec<bool>,
    crashes: Vec<usize>,
    restarts: Vec<usize>,
    /// `(groups, active)` per partition event, in submission order.
    partitions: Vec<(Vec<Vec<NodeId>>, bool)>,
    /// Fault ops sorted by tick; the stable sort keeps submission order
    /// on ties.
    timeline: Vec<(u64, Op)>,
    next: usize,
}

impl Membership {
    /// A membership of `nodes` live, connected nodes facing `events`.
    ///
    /// # Panics
    ///
    /// Panics if an event names a node outside `0..nodes`.
    fn new(nodes: usize, events: &[NodeEvent]) -> Membership {
        let mut partitions = Vec::new();
        let mut timeline = Vec::new();
        for event in events {
            let check = |node: &NodeId| {
                assert!(
                    node.0 < nodes,
                    "node event {event} names {node}, outside the membership of {nodes} nodes"
                );
            };
            match event {
                NodeEvent::NodeCrash {
                    node,
                    at_tick,
                    torn_keep,
                } => {
                    check(node);
                    let (node, torn_keep) = (node.0, *torn_keep);
                    timeline.push((*at_tick, Op::Crash { node, torn_keep }));
                }
                NodeEvent::NodeRestart { node, at_tick } => {
                    check(node);
                    timeline.push((*at_tick, Op::Restart { node: node.0 }));
                }
                NodeEvent::Partition {
                    groups,
                    at_tick,
                    heal_at,
                } => {
                    groups.iter().flatten().for_each(check);
                    let slot = partitions.len();
                    partitions.push((groups.clone(), false));
                    timeline.push((*at_tick, Op::Cut { slot }));
                    if *heal_at != u64::MAX {
                        timeline.push((*heal_at, Op::Heal { slot }));
                    }
                }
            }
        }
        timeline.sort_by_key(|&(at_tick, _)| at_tick);
        Membership {
            alive: vec![true; nodes],
            crashes: vec![0; nodes],
            restarts: vec![0; nodes],
            partitions,
            timeline,
            next: 0,
        }
    }

    /// Applies the next op due by `tick` and hands it back with its
    /// timeline tick; `None` when nothing is due. A crash of a dead node
    /// and a restart of a live one are no events: they are skipped.
    fn fire(&mut self, tick: u64) -> Option<(u64, Op)> {
        while let Some(&(at_tick, op)) = self.timeline.get(self.next) {
            if at_tick > tick {
                break;
            }
            self.next += 1;
            match op {
                Op::Crash { node, .. } => {
                    if !self.alive[node] {
                        continue;
                    }
                    self.alive[node] = false;
                    self.crashes[node] += 1;
                }
                Op::Restart { node } => {
                    if self.alive[node] {
                        continue;
                    }
                    self.alive[node] = true;
                    self.restarts[node] += 1;
                }
                Op::Cut { slot } => self.partitions[slot].1 = true,
                Op::Heal { slot } => self.partitions[slot].1 = false,
            }
            return Some((at_tick, op));
        }
        None
    }

    fn alive(&self, node: NodeId) -> bool {
        self.alive[node.0]
    }

    /// Whether the client — wired to node 0's side of every active
    /// partition — can reach `node`. Nodes absent from every group stay
    /// on the client's side.
    fn reachable(&self, node: NodeId) -> bool {
        let side = |groups: &[Vec<NodeId>], node: NodeId| {
            groups.iter().position(|group| group.contains(&node))
        };
        self.partitions
            .iter()
            .filter(|(_, active)| *active)
            .all(|(groups, _)| side(groups, node) == side(groups, NodeId(0)))
    }

    /// Whether `node` can serve: alive and reachable.
    fn usable(&self, node: NodeId) -> bool {
        self.alive(node) && self.reachable(node)
    }

    /// The router's pick for `shard` in `view`: the first usable replica
    /// in ring order.
    fn pick_owner(&self, view: &RingView, shard: usize) -> Option<NodeId> {
        view.replica_set(shard)
            .nodes()
            .iter()
            .copied()
            .find(|&node| self.usable(node))
    }

    /// The audit of a routing shed for `shard`: the true replica state —
    /// its alive replicas, and those of them the client can reach — and
    /// the honest reason for a router that found no owner. Live replicas
    /// all cut off ⇒ a partition shed; otherwise the group is gone (or
    /// the router *claims* it is — the audit keeps the evidence either
    /// way).
    fn shed_audit(&self, view: &RingView, shard: usize) -> ShedAudit {
        let alive_replicas: Vec<NodeId> = view
            .replica_set(shard)
            .nodes()
            .iter()
            .copied()
            .filter(|&node| self.alive(node))
            .collect();
        let reachable_replicas: Vec<NodeId> = alive_replicas
            .iter()
            .copied()
            .filter(|&node| self.reachable(node))
            .collect();
        let reason = if !alive_replicas.is_empty() && reachable_replicas.is_empty() {
            ShedReason::Partitioned { shard }
        } else {
            ShedReason::NodeUnreachable { shard }
        };
        ShedAudit {
            shard,
            reason,
            alive_replicas,
            reachable_replicas,
        }
    }
}

/// Tuning of the cluster runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterTrafficConfig {
    /// Nodes in the membership. Must be ≥ 1.
    pub nodes: usize,
    /// Replicas per shard (clamped to the membership size).
    pub replication: usize,
    /// Shards arrivals are routed over. Must be ≥ 1.
    pub shards: usize,
    /// Virtual points per node on the consistent-hash ring.
    pub vnodes: usize,
    /// The per-shard serving configuration.
    pub service: ServiceConfig,
    /// The per-node adaptive admission thresholds.
    pub admission: AdmissionConfig,
    /// `Some(discipline)` runs per-node adaptive admission; `None`
    /// disables admission entirely (the unbounded twin).
    pub discipline: Option<AdmissionDiscipline>,
    /// `Some(config)` closes the loop from overload signals into ring
    /// placement; `None` is the no-rebalance twin (failover still
    /// works — only hot-shard relief is off).
    pub rebalance: Option<RebalanceConfig>,
    /// How the router picks a node ([`RebalanceDiscipline::StaleRing`]
    /// and [`RebalanceDiscipline::StaleEpoch`] are planted bugs).
    pub routing: RebalanceDiscipline,
}

impl Default for ClusterTrafficConfig {
    fn default() -> Self {
        ClusterTrafficConfig {
            nodes: 3,
            replication: 2,
            shards: 4,
            vnodes: 64,
            service: ServiceConfig::default(),
            admission: AdmissionConfig::default(),
            discipline: Some(AdmissionDiscipline::Faithful),
            rebalance: Some(RebalanceConfig::default()),
            routing: RebalanceDiscipline::default(),
        }
    }
}

/// One arrival's fate plus the node that handled it (`None` when no
/// alive, reachable replica existed to even refuse it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutedOutcome {
    /// The node the arrival was routed to.
    pub node: Option<NodeId>,
    /// What happened to it.
    pub outcome: TrafficOutcome,
}

/// One per-node admission-controller state flip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeTransition {
    /// The node whose controller flipped.
    pub node: NodeId,
    /// The arrival tick the flip happened at.
    pub at_tick: u64,
    /// The state it flipped to.
    pub to: AdmissionState,
}

/// Per-node load trace of one traffic-driven cluster run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeLoadTrace {
    /// The node.
    pub node: NodeId,
    /// The node's own availability/latency verdict over the arrivals
    /// routed to it.
    pub slo: SloReport,
    /// Deepest in-flight queue observed at this node.
    pub max_queue_depth: u32,
    /// Crashes the node suffered.
    pub crashes: usize,
    /// Restarts that revived it.
    pub restarts: usize,
    /// Whether the node was alive when the trace drained.
    pub alive_at_end: bool,
    /// The node's write-ahead journal (admissions, answers, sheds, and
    /// replicated ring changes), byte-for-byte.
    pub journal: Journal,
}

/// Acting-ownership history of one shard across the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardOwnership {
    /// The shard.
    pub shard: usize,
    /// Acting owners in order, starting at the boot primary
    /// (consecutive duplicates collapsed).
    pub owners: Vec<NodeId>,
    /// Owner changes caused by rebalance promotions.
    pub promotions: usize,
    /// Owner changes caused by crash/partition failover.
    pub failovers: usize,
}

/// What a crash recovered about the ring: the epoch the cluster had
/// reached versus the epoch replayable from the surviving journals'
/// [`JournalRecord::RingChange`] records. The simulator's
/// epoch-replay invariant demands equality — a recovery that comes back
/// on an older ring would re-route shards the cluster already moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochReplay {
    /// The node that crashed.
    pub node: NodeId,
    /// The fault-timeline tick of the crash.
    pub at_tick: u64,
    /// The ring epoch at crash time.
    pub epoch_at_crash: RingEpoch,
    /// The maximum ring-change epoch decodable from the journals.
    pub replayed_epoch: RingEpoch,
}

/// The merged result of one [`serve_cluster_traffic`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
#[must_use]
pub struct ClusterTrafficReport {
    /// Every arrival's fate, in trace order — answered, or shed with a
    /// typed reason. Never a silent drop.
    pub outcomes: Vec<RoutedOutcome>,
    /// Acting-ownership history per shard, sorted by shard id.
    pub shards: Vec<ShardOwnership>,
    /// Per-node load traces, sorted by node id.
    pub nodes: Vec<NodeLoadTrace>,
    /// Every per-node controller state flip, in decision order.
    pub transitions: Vec<NodeTransition>,
    /// One audit per rebalance promotion, in decision order (their
    /// epochs must be strictly increasing).
    pub rebalance_audits: Vec<RebalanceAudit>,
    /// One audit per routing give-up, in shed order.
    pub shed_audits: Vec<ShedAudit>,
    /// One record per node crash: reached vs journal-replayed epoch.
    pub epoch_replays: Vec<EpochReplay>,
    /// The ring epoch when the trace drained.
    pub final_epoch: RingEpoch,
    /// The cluster-wide availability/latency verdict.
    pub slo: SloReport,
    /// The latest shard clock or completion tick when the trace
    /// drained.
    pub end_tick: u64,
}

impl ClusterTrafficReport {
    /// Rebalance promotions across all shards.
    #[must_use]
    pub fn promotion_count(&self) -> usize {
        self.rebalance_audits.len()
    }

    /// Sheds carrying [`ShedReason::StaleRingEpoch`] — the planted
    /// stale-router bug's signature (zero under faithful routing).
    #[must_use]
    pub fn stale_sheds(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|routed| {
                matches!(
                    routed.outcome.disposition,
                    TrafficDisposition::Shed(ShedReason::StaleRingEpoch { .. })
                )
            })
            .count()
    }

    /// Deepest in-flight queue observed on any node.
    #[must_use]
    pub fn max_queue_depth(&self) -> u32 {
        self.nodes
            .iter()
            .map(|node| node.max_queue_depth)
            .max()
            .unwrap_or(0)
    }

    /// Sheds carrying [`ShedReason::Overload`] — per-node adaptive
    /// admission refusals.
    #[must_use]
    pub fn overload_sheds(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|routed| {
                matches!(
                    routed.outcome.disposition,
                    TrafficDisposition::Shed(ShedReason::Overload { .. })
                )
            })
            .count()
    }
}

/// One node's queueing and control state. This is the placement-
/// *dependent* half: the busy horizon and in-flight completions move
/// with the shards routed here, which is exactly what rebalancing
/// relieves.
struct NodeRt {
    /// Completion tick of the last query this node finished serving.
    horizon: u64,
    /// `(completion_tick, deadline_met, shard)` of every in-flight or
    /// finished query routed here, in completion order.
    completions: Vec<(u64, bool, usize)>,
    /// How many `completions` entries the window has absorbed.
    drained: usize,
    window: SignalWindow,
    controller: AdaptiveAdmission,
    journal: Journal,
    /// Journal length before the most recent append (for crash-time
    /// tearing of the last in-flight replication).
    last_append_start: usize,
    // Trace statistics (durable — they survive crashes and restarts).
    offered: u64,
    answered: u64,
    shed: u64,
    missed: u64,
    max_queue_depth: u32,
    histogram: LatencyHistogram,
}

impl NodeRt {
    fn new(admission: AdmissionConfig, discipline: AdmissionDiscipline) -> NodeRt {
        NodeRt {
            horizon: 0,
            completions: Vec::new(),
            drained: 0,
            window: SignalWindow::new(),
            controller: AdaptiveAdmission::new(admission, discipline),
            journal: Journal::new(),
            last_append_start: 0,
            offered: 0,
            answered: 0,
            shed: 0,
            missed: 0,
            max_queue_depth: 0,
            histogram: LatencyHistogram::new(),
        }
    }

    /// Queries routed here but not yet complete at `at_tick`, after
    /// absorbing finished ones into the signal window.
    fn queue_depth_at(&mut self, at_tick: u64) -> u32 {
        while self.drained < self.completions.len() {
            let (completion, met, _) = self.completions[self.drained];
            if completion > at_tick {
                break;
            }
            self.window.record_answered(met);
            self.drained += 1;
        }
        u32::try_from(self.completions.len() - self.drained).unwrap_or(u32::MAX)
    }

    /// Appends a record, remembering the frame boundary for crash-time
    /// tearing.
    fn journal_append(&mut self, record: &JournalRecord) {
        self.last_append_start = self.journal.bytes().len();
        self.journal.append(record);
    }

    /// Crash-time tear: keep only the first `keep` bytes of the last
    /// append (the synchronous replication was mid-flight).
    fn tear_last_append(&mut self, keep: usize) {
        let tail = self.journal.bytes().len() - self.last_append_start;
        if tail > 0 {
            let keep = keep.min(tail);
            self.journal.truncate(self.last_append_start + keep);
        }
    }

    /// Restart-time recovery: discards a torn tail, so the revived node
    /// appends after its last complete record rather than after garbage
    /// no decoder could read past.
    fn discard_torn_tail(&mut self) {
        if let Ok(decoded) = self.journal.decode(DecodeMode::Recover) {
            let len = self.journal.bytes().len() - decoded.torn_bytes;
            self.journal.truncate(len);
        }
    }

    /// Wipes the node's RAM (crash or restart); the journal and the
    /// trace statistics are durable and survive.
    fn wipe_memory(&mut self, admission: AdmissionConfig, discipline: AdmissionDiscipline) {
        self.horizon = 0;
        self.completions.clear();
        self.drained = 0;
        self.window = SignalWindow::new();
        self.controller = AdaptiveAdmission::new(admission, discipline);
    }
}

/// The maximum [`JournalRecord::RingChange`] epoch recoverable from the
/// nodes' journals (tolerantly decoded — a crash may have torn a tail).
fn replayed_ring_epoch(nodes: &[NodeRt]) -> RingEpoch {
    let mut best = RingEpoch::BOOT;
    for node in nodes {
        if let Ok(decoded) = node.journal.decode(DecodeMode::Recover) {
            for record in &decoded.records {
                if let JournalRecord::RingChange { epoch, .. } = record {
                    best = best.max(*epoch);
                }
            }
        }
    }
    best
}

/// Serves an open-loop arrival trace on the simulated cluster,
/// deterministically, with per-node adaptive admission and (optionally)
/// admission-coupled ring rebalancing.
///
/// Per arrival, in decision order: fault ops at or before the arrival
/// tick fire; the router picks the acting owner from the configured
/// ring view; the owner's controller decides on its current
/// [`LoadSignal`]; an admitted query is served on its *shard's* core
/// (so the answer bytes are placement-independent) while the queueing
/// latency is charged against the *node's* busy horizon; finally, if
/// the node's signal is hot and a live standby sits under-loaded, the
/// [`RebalanceController`] may promote that standby for the node's
/// hottest shard, bumping the ring epoch and journaling the change on
/// every live node.
///
/// In-flight queries survive node crashes by construction: the journal
/// is synchronously replicated, and LCA-KP statelessness lets any
/// replica recompute the identical answer, so a crash only affects
/// *future* routing and signals.
///
/// # Errors
///
/// Propagates hard configuration errors ([`LcaError`]); node faults
/// shed or fail over instead of erroring.
///
/// # Panics
///
/// Panics if `nodes`, `shards`, or `vnodes` is zero, if an arrival's
/// `shard` is not below `shards` (build the trace with the engine's own
/// shard count), or if a node event (a crash, a restart, or a partition
/// group) names a node outside `0..nodes`.
pub fn serve_cluster_traffic<O>(
    lca: &LcaKp,
    oracle: &O,
    shared_seed: &Seed,
    service_root: &Seed,
    arrivals: &[Arrival],
    config: &ClusterTrafficConfig,
    node_events: &[NodeEvent],
) -> Result<ClusterTrafficReport, LcaError>
where
    O: ItemOracle + WeightedSampler,
{
    assert!(config.nodes >= 1, "nodes must be at least 1");
    assert!(config.shards >= 1, "shards must be at least 1");
    assert!(config.vnodes >= 1, "vnodes must be at least 1");

    let ring = Ring::new(config.nodes, config.vnodes);
    let boot_view = RingView::from_ring(&ring, config.shards, config.replication)
        .expect("a non-empty membership always routes");
    serve_traffic(
        lca,
        oracle,
        shared_seed,
        service_root,
        arrivals,
        config,
        boot_view,
        config.nodes,
        node_events,
    )
}

/// The arrival-driven engine behind [`serve_cluster_traffic`] and
/// [`run_open_loop`](crate::traffic::run_open_loop). The topology is
/// `boot_view` over nodes `0..node_count` (the view's shard count is the
/// engine's); `config` contributes only its serving, admission,
/// rebalance, and routing policies.
///
/// # Panics
///
/// Panics if an arrival's shard is not below the view's shard count, or
/// if a node event names a node outside `0..node_count`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn serve_traffic<O>(
    lca: &LcaKp,
    oracle: &O,
    shared_seed: &Seed,
    service_root: &Seed,
    arrivals: &[Arrival],
    config: &ClusterTrafficConfig,
    boot_view: RingView,
    node_count: usize,
    node_events: &[NodeEvent],
) -> Result<ClusterTrafficReport, LcaError>
where
    O: ItemOracle + WeightedSampler,
{
    let ctx = SharedCtx {
        lca,
        oracle,
        shared_seed,
        service_root,
        config: &config.service,
        chaos: None,
        cached: None,
    };
    let discipline = config.discipline.unwrap_or_default();
    let shard_count = boot_view.shards();
    let mut view = boot_view.clone();

    let mut cores: Vec<ShardCore<'_, O>> = (0..shard_count).map(|_| ShardCore::new(&ctx)).collect();
    let mut nodes: Vec<NodeRt> = (0..node_count)
        .map(|_| NodeRt::new(config.admission, discipline))
        .collect();
    let mut shards: Vec<ShardOwnership> = (0..shard_count)
        .map(|shard| ShardOwnership {
            shard,
            owners: vec![view.primary(shard)],
            promotions: 0,
            failovers: 0,
        })
        .collect();
    let mut controller = config
        .rebalance
        .map(|rebalance| RebalanceController::new(rebalance, shard_count));

    let mut membership = Membership::new(node_count, node_events);

    let mut outcomes = Vec::with_capacity(arrivals.len());
    let mut transitions = Vec::new();
    let mut rebalance_audits = Vec::new();
    let mut shed_audits = Vec::new();
    let mut epoch_replays = Vec::new();
    let mut histogram = LatencyHistogram::new();
    let mut answered_count = 0u64;
    let mut shed_count = 0u64;
    let mut missed_count = 0u64;
    // The latest completion tick: a crash wipes a node's busy horizon,
    // never this.
    let mut last_completion = 0u64;
    // Per-shard in-flight counts, rebuilt per hottest-shard scan.
    let mut heat = vec![0u32; shard_count];

    // One pass per arrival plus a final one past the last arrival, so
    // fault ops after the trace still fire and late crashes still leave
    // their epoch-replay records.
    for (index, arrival) in arrivals.iter().map(Some).chain([None]).enumerate() {
        let due_by = arrival.map_or(u64::MAX, |arrival| arrival.at_tick);
        while let Some((at_tick, op)) = membership.fire(due_by) {
            match op {
                Op::Crash { node, torn_keep } => {
                    if let Some(keep) = torn_keep {
                        nodes[node].tear_last_append(keep);
                    }
                    nodes[node].wipe_memory(config.admission, discipline);
                    epoch_replays.push(EpochReplay {
                        node: NodeId(node),
                        at_tick,
                        epoch_at_crash: view.epoch(),
                        replayed_epoch: replayed_ring_epoch(&nodes),
                    });
                }
                Op::Restart { node } => {
                    nodes[node].discard_torn_tail();
                    nodes[node].wipe_memory(config.admission, discipline);
                }
                Op::Cut { .. } | Op::Heal { .. } => {}
            }
        }
        let Some(arrival) = arrival else {
            break;
        };
        let shard = arrival.shard;
        assert!(
            shard < shard_count,
            "arrival {index} is on shard {shard}, but the engine has {shard_count} shards"
        );
        let outcome_shed = |reason: ShedReason| TrafficOutcome {
            index,
            item: arrival.item,
            shard,
            at_tick: arrival.at_tick,
            disposition: TrafficDisposition::Shed(reason),
        };

        // Route per the configured discipline. The faithful pick is the
        // truth; the stale routers consult the boot view instead.
        let faithful_pick = membership.pick_owner(&view, shard);
        let routed = match config.routing {
            RebalanceDiscipline::Faithful => faithful_pick,
            RebalanceDiscipline::StaleEpoch => membership.pick_owner(&boot_view, shard),
            RebalanceDiscipline::StaleRing => {
                let primary = boot_view.primary(shard);
                membership.usable(primary).then_some(primary)
            }
        };
        let Some(node_id) = routed else {
            // No replica to even refuse the query: typed shed + audit.
            let audit = membership.shed_audit(&view, shard);
            shed_count += 1;
            outcomes.push(RoutedOutcome {
                node: None,
                outcome: outcome_shed(audit.reason),
            });
            shed_audits.push(audit);
            continue;
        };

        // The stale router's misroute: the boot pick reaches a node
        // that no longer owns the shard. An honest node refuses with
        // both epochs on record — never serves stale placement.
        if config.routing == RebalanceDiscipline::StaleEpoch && Some(node_id) != faithful_pick {
            let reason = ShedReason::StaleRingEpoch {
                shard,
                seen: boot_view.epoch(),
                current: view.epoch(),
            };
            let node = &mut nodes[node_id.0];
            node.offered += 1;
            node.shed += 1;
            node.window.record_shed();
            node.journal_append(&JournalRecord::Shed {
                index: index as u64,
                reason,
            });
            shed_count += 1;
            shed_audits.push(ShedAudit {
                reason,
                ..membership.shed_audit(&view, shard)
            });
            outcomes.push(RoutedOutcome {
                node: Some(node_id),
                outcome: outcome_shed(reason),
            });
            continue;
        }

        // Acting-ownership trace: a routed node differing from the last
        // acting owner is a failover (promotions record themselves).
        if *shards[shard]
            .owners
            .last()
            .expect("owners starts non-empty")
            != node_id
        {
            shards[shard].owners.push(node_id);
            shards[shard].failovers += 1;
        }

        let node = &mut nodes[node_id.0];
        node.offered += 1;
        let depth = node.queue_depth_at(arrival.at_tick);
        node.max_queue_depth = node.max_queue_depth.max(depth);
        let signal = node.window.signal(depth);

        if config.discipline.is_some() {
            let before = node.controller.state();
            let decision = node.controller.decide(arrival.at_tick, signal);
            if node.controller.state() != before {
                transitions.push(NodeTransition {
                    node: node_id,
                    at_tick: arrival.at_tick,
                    to: node.controller.state(),
                });
            }
            if let AdmissionDecision::Shed(reason) = decision {
                node.window.record_shed();
                node.shed += 1;
                node.journal_append(&JournalRecord::Shed {
                    index: index as u64,
                    reason,
                });
                shed_count += 1;
                outcomes.push(RoutedOutcome {
                    node: Some(node_id),
                    outcome: outcome_shed(reason),
                });
                maybe_rebalance(
                    &mut controller,
                    &mut view,
                    &mut nodes,
                    &mut shards,
                    &mut rebalance_audits,
                    &membership,
                    &mut heat,
                    node_id,
                    signal,
                    arrival.at_tick,
                );
                continue;
            }
        }

        // Write-ahead: the admission is durable before anything runs.
        nodes[node_id.0].journal_append(&JournalRecord::Admitted {
            index: index as u64,
            item: arrival.item.0 as u64,
        });

        // Serve on the shard's placement-independent core.
        let (answer, service_ticks) = cores[shard].serve_arrival(&ctx, shard, index, arrival)?;

        // Charge the queueing against the hosting node's busy horizon.
        let node = &mut nodes[node_id.0];
        let begin = arrival.at_tick.max(node.horizon);
        let completion_tick = begin + service_ticks;
        node.horizon = completion_tick;
        last_completion = last_completion.max(completion_tick);
        let latency_ticks = completion_tick - arrival.at_tick;
        let deadline_met = latency_ticks <= config.service.deadline_ticks;
        node.completions
            .push((completion_tick, deadline_met, shard));
        node.answered += 1;
        if !deadline_met {
            node.missed += 1;
            missed_count += 1;
        }
        node.histogram.record(latency_ticks);
        node.journal_append(&JournalRecord::Answered {
            index: index as u64,
            answer,
        });
        histogram.record(latency_ticks);
        answered_count += 1;
        outcomes.push(RoutedOutcome {
            node: Some(node_id),
            outcome: TrafficOutcome {
                index,
                item: arrival.item,
                shard,
                at_tick: arrival.at_tick,
                disposition: TrafficDisposition::Answered {
                    completion_tick,
                    latency_ticks,
                    deadline_met,
                    answer,
                },
            },
        });

        maybe_rebalance(
            &mut controller,
            &mut view,
            &mut nodes,
            &mut shards,
            &mut rebalance_audits,
            &membership,
            &mut heat,
            node_id,
            signal,
            arrival.at_tick,
        );
    }

    let end_tick = cores
        .iter()
        .map(ShardCore::now)
        .fold(last_completion, u64::max);
    let node_traces: Vec<NodeLoadTrace> = nodes
        .into_iter()
        .enumerate()
        .map(|(id, node)| NodeLoadTrace {
            node: NodeId(id),
            slo: SloReport::from_counts(
                node.offered,
                node.answered,
                node.shed,
                node.missed,
                &node.histogram,
            ),
            max_queue_depth: node.max_queue_depth,
            crashes: membership.crashes[id],
            restarts: membership.restarts[id],
            alive_at_end: membership.alive[id],
            journal: node.journal,
        })
        .collect();

    Ok(ClusterTrafficReport {
        outcomes,
        shards,
        nodes: node_traces,
        transitions,
        rebalance_audits,
        shed_audits,
        epoch_replays,
        final_epoch: view.epoch(),
        slo: SloReport::from_counts(
            arrivals.len() as u64,
            answered_count,
            shed_count,
            missed_count,
            &histogram,
        ),
        end_tick,
    })
}

/// One rebalance opportunity: if `from`'s signal is hot, propose moving
/// its hottest primaried shard to the least-loaded live standby and let
/// the [`RebalanceController`] judge it. On approval the view promotes,
/// the epoch bumps, and every live node journals the change.
#[allow(clippy::too_many_arguments)]
fn maybe_rebalance(
    controller: &mut Option<RebalanceController>,
    view: &mut RingView,
    nodes: &mut [NodeRt],
    shards: &mut [ShardOwnership],
    rebalance_audits: &mut Vec<RebalanceAudit>,
    membership: &Membership,
    heat: &mut [u32],
    from: NodeId,
    signal: LoadSignal,
    at_tick: u64,
) {
    let Some(controller) = controller.as_mut() else {
        return;
    };
    if !controller.hot(signal) {
        return;
    }
    // Hottest shard: the most in-flight queries at `from`, restricted
    // to shards it primaries (failover guests move by healing, not by
    // promotion). Lowest id wins ties.
    heat.fill(0);
    let node = &nodes[from.0];
    for &(_, _, shard) in &node.completions[node.drained..] {
        heat[shard] += 1;
    }
    let hottest = heat
        .iter()
        .enumerate()
        .filter(|&(shard, &in_flight)| in_flight > 0 && view.primary(shard) == from)
        .max_by_key(|&(shard, &in_flight)| (in_flight, std::cmp::Reverse(shard)))
        .map(|(shard, _)| shard);
    let Some(shard) = hottest else {
        return;
    };
    // Least-loaded live standby replica of that shard (lowest node id
    // on depth ties).
    let mut target: Option<(u32, NodeId)> = None;
    for &candidate in view.replica_set(shard).nodes() {
        if candidate == from || !membership.usable(candidate) {
            continue;
        }
        let depth = nodes[candidate.0].queue_depth_at(at_tick);
        if target.is_none_or(|(best_depth, best)| (depth, candidate.0) < (best_depth, best.0)) {
            target = Some((depth, candidate));
        }
    }
    let Some((target_queue_depth, to)) = target else {
        return;
    };
    let Some(decision) = controller.decide(
        at_tick,
        shard,
        from,
        to,
        signal,
        target_queue_depth,
        view.epoch(),
    ) else {
        return;
    };
    let applied = view
        .promote(shard, to)
        .expect("the controller only promotes live standby members");
    debug_assert_eq!(
        applied, decision.epoch,
        "controller and view agree on epochs"
    );
    // Synchronously replicate the ring change to every live node's
    // journal — this is what a post-crash recovery replays.
    let record = JournalRecord::RingChange {
        epoch: applied,
        shard: shard as u64,
        from,
        to,
    };
    for (id, node) in nodes.iter_mut().enumerate() {
        if membership.alive(NodeId(id)) {
            node.journal_append(&record);
        }
    }
    if *shards[shard]
        .owners
        .last()
        .expect("owners starts non-empty")
        != to
    {
        shards[shard].owners.push(to);
    }
    shards[shard].promotions += 1;
    rebalance_audits.push(RebalanceAudit {
        decision,
        signal,
        target_queue_depth,
        target_alive: true,
    });
}

/// Replays one shard's admitted arrival subsequence on a fresh,
/// standalone serving core — what any replica would compute from the
/// shared seeds alone. The E18 simulator compares these answers
/// byte-for-byte against the cluster run's: migrations, failovers, and
/// crashes must all be invisible in the bytes, because per-query
/// statelessness means placement never enters the computation.
///
/// # Errors
///
/// Propagates hard configuration errors ([`LcaError`]).
pub fn replay_shard_traffic<O>(
    lca: &LcaKp,
    oracle: &O,
    shared_seed: &Seed,
    service_root: &Seed,
    admitted: &[(usize, Arrival)],
    shard: usize,
    service: &ServiceConfig,
) -> Result<Vec<(usize, Answered)>, LcaError>
where
    O: ItemOracle + WeightedSampler,
{
    let ctx = SharedCtx {
        lca,
        oracle,
        shared_seed,
        service_root,
        config: service,
        chaos: None,
        cached: None,
    };
    let mut core = ShardCore::new(&ctx);
    let mut answers = Vec::with_capacity(admitted.len());
    for (index, arrival) in admitted {
        let (answer, _) = core.serve_arrival(&ctx, shard, *index, arrival)?;
        answers.push((*index, answer));
    }
    Ok(answers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{generate_trace, TrafficConfig, TrafficShape};
    use lcakp_knapsack::iky::Epsilon;
    use lcakp_knapsack::ItemId;
    use lcakp_oracle::InstanceOracle;
    use lcakp_reproducible::SampleBudget;
    use lcakp_workloads::{Family, WorkloadSpec};

    fn quick_lca() -> LcaKp {
        LcaKp::new(Epsilon::new(1, 3).unwrap())
            .unwrap()
            .with_budget(SampleBudget::Calibrated { factor: 0.01 })
    }

    struct World {
        norm: lcakp_knapsack::NormalizedInstance,
        lca: LcaKp,
        service: ServiceConfig,
    }

    fn world(n: usize, seed: u64) -> World {
        let norm = WorkloadSpec::new(Family::SmallDominated, n, seed)
            .generate_normalized()
            .unwrap();
        World {
            norm,
            lca: quick_lca(),
            service: ServiceConfig::default(),
        }
    }

    /// Measures the per-query service cost the way E17's simulator
    /// does: a back-to-back steady probe, mean ticks per answer.
    fn probe_cost(world: &World) -> u64 {
        let oracle = InstanceOracle::new(&world.norm);
        let admitted: Vec<(usize, Arrival)> = (0..32)
            .map(|i| {
                (
                    i,
                    Arrival {
                        at_tick: (i + 1) as u64,
                        item: ItemId(i % world.norm.len()),
                        shard: 0,
                        extra_cost_ticks: 0,
                    },
                )
            })
            .collect();
        let answers = replay_shard_traffic(
            &world.lca,
            &oracle,
            &Seed::from_entropy_u64(41),
            &Seed::from_entropy_u64(42),
            &admitted,
            0,
            &world.service,
        )
        .unwrap();
        (answers.last().unwrap().1.end_tick / 32).max(1)
    }

    /// An overload-ready traffic cluster: thresholds scaled to the
    /// measured per-query cost, hot-shard arrivals at twice capacity.
    fn traffic_world(world: &World, cost: u64) -> (ClusterTrafficConfig, Vec<Arrival>) {
        let mut service = world.service.clone();
        service.deadline_ticks = cost * 8;
        let admission = AdmissionConfig {
            enter_queue_depth: 6,
            exit_queue_depth: 2,
            enter_miss_permille: 250,
            exit_miss_permille: 60,
            hysteresis_ticks: cost * 8,
            shed_permille: 400,
            queue_depth_normal: 12,
            queue_depth_overloaded: 4,
        };
        let rebalance = RebalanceConfig {
            enter_queue_depth: 6,
            enter_miss_permille: 250,
            target_queue_depth: 3,
            hysteresis_ticks: cost * 4,
            window_ticks: cost * 64,
            max_promotions_per_shard: 2,
        };
        let config = ClusterTrafficConfig {
            nodes: 3,
            replication: 2,
            shards: 4,
            vnodes: 64,
            service,
            admission,
            discipline: Some(AdmissionDiscipline::Faithful),
            rebalance: Some(rebalance),
            routing: RebalanceDiscipline::Faithful,
        };
        let trace = generate_trace(
            &Seed::from_entropy_u64(43),
            &TrafficConfig {
                shape: TrafficShape::HotShard,
                arrivals: 160,
                mean_gap_ticks: (cost / 2).max(1),
                universe: world.norm.len(),
                shards: config.shards,
            },
        );
        (config, trace)
    }

    fn run_traffic(
        world: &World,
        config: &ClusterTrafficConfig,
        trace: &[Arrival],
        events: &[NodeEvent],
    ) -> ClusterTrafficReport {
        let oracle = InstanceOracle::new(&world.norm);
        serve_cluster_traffic(
            &world.lca,
            &oracle,
            &Seed::from_entropy_u64(41),
            &Seed::from_entropy_u64(42),
            trace,
            config,
            events,
        )
        .unwrap()
    }

    #[test]
    fn hot_shard_overload_promotes_deterministically_with_honest_audits() {
        let world = world(24, 12);
        let cost = probe_cost(&world);
        let (config, trace) = traffic_world(&world, cost);
        let first = run_traffic(&world, &config, &trace, &[]);
        let second = run_traffic(&world, &config, &trace, &[]);
        assert_eq!(first, second, "traffic cluster must be deterministic");
        assert_eq!(first.outcomes.len(), trace.len(), "no silent drops");
        assert!(
            first.promotion_count() > 0,
            "a hot shard at 2x capacity must trigger relief"
        );
        // Rebalance honesty: every promotion cites a hot signal and a
        // live under-loaded target, and epochs strictly increase.
        let rebalance = config.rebalance.unwrap();
        let mut last_epoch = RingEpoch::BOOT;
        for audit in &first.rebalance_audits {
            assert!(
                audit.signal.queue_depth >= rebalance.enter_queue_depth
                    || audit.signal.deadline_miss_permille >= rebalance.enter_miss_permille,
                "promotion without an overloaded source: {audit}"
            );
            assert!(audit.target_alive);
            assert!(audit.target_queue_depth < rebalance.target_queue_depth);
            assert!(audit.decision.epoch > last_epoch, "epochs must increase");
            last_epoch = audit.decision.epoch;
        }
        assert_eq!(first.final_epoch, last_epoch);
        assert_eq!(first.stale_sheds(), 0, "faithful routing never goes stale");
        // The promoted shard records its new acting owner.
        let moved = first
            .shards
            .iter()
            .find(|ownership| ownership.promotions > 0)
            .expect("some shard was promoted");
        assert!(moved.owners.len() >= 2);
    }

    /// The traffic world with admission and rebalancing off, so routing
    /// alone decides every shed.
    fn fault_world(world: &World) -> (ClusterTrafficConfig, Vec<Arrival>) {
        let (config, trace) = traffic_world(world, probe_cost(world));
        let config = ClusterTrafficConfig {
            discipline: None,
            rebalance: None,
            ..config
        };
        (config, trace)
    }

    /// A shard whose boot replica group excludes node 0 and that the
    /// trace visits, plus that group (needed to partition the group
    /// away from the client).
    fn replica_group_avoiding_node0(
        config: &ClusterTrafficConfig,
        trace: &[Arrival],
    ) -> (usize, Vec<NodeId>) {
        let ring = Ring::new(config.nodes, config.vnodes);
        for shard in 0..config.shards {
            let set = ring.replicas(shard, config.replication).unwrap();
            if !set.contains(NodeId(0)) && trace.iter().any(|arrival| arrival.shard == shard) {
                return (shard, set.nodes().to_vec());
            }
        }
        panic!("no visited shard avoids node 0 — pick different vnodes");
    }

    /// Every acknowledged answer equals its shard's standalone replay of
    /// the admitted subsequence, byte for byte.
    fn assert_answers_match_the_replay(
        world: &World,
        config: &ClusterTrafficConfig,
        trace: &[Arrival],
        report: &ClusterTrafficReport,
    ) {
        let oracle = InstanceOracle::new(&world.norm);
        for shard in 0..config.shards {
            let admitted: Vec<(usize, Arrival)> = report
                .outcomes
                .iter()
                .filter(|routed| {
                    routed.outcome.shard == shard
                        && matches!(
                            routed.outcome.disposition,
                            TrafficDisposition::Answered { .. }
                        )
                })
                .map(|routed| (routed.outcome.index, trace[routed.outcome.index]))
                .collect();
            let replayed = replay_shard_traffic(
                &world.lca,
                &oracle,
                &Seed::from_entropy_u64(41),
                &Seed::from_entropy_u64(42),
                &admitted,
                shard,
                &config.service,
            )
            .unwrap();
            let mut position = 0usize;
            for routed in &report.outcomes {
                if routed.outcome.shard != shard {
                    continue;
                }
                if let TrafficDisposition::Answered { answer, .. } = routed.outcome.disposition {
                    assert_eq!(
                        replayed[position],
                        (routed.outcome.index, answer),
                        "placement must be invisible in the answer bytes"
                    );
                    position += 1;
                }
            }
            assert_eq!(position, replayed.len());
        }
    }

    #[test]
    fn migrated_answers_are_byte_identical_to_the_standalone_replay() {
        let world = world(24, 12);
        let cost = probe_cost(&world);
        let (config, trace) = traffic_world(&world, cost);
        let report = run_traffic(&world, &config, &trace, &[]);
        assert!(report.promotion_count() > 0, "the check needs a migration");
        assert_answers_match_the_replay(&world, &config, &trace, &report);
    }

    #[test]
    fn losing_every_replica_sheds_node_unreachable_with_an_empty_audit() {
        let world = world(24, 12);
        let (config, trace) = fault_world(&world);
        let (shard, group) = replica_group_avoiding_node0(&config, &trace);
        let events: Vec<NodeEvent> = group
            .iter()
            .map(|&node| NodeEvent::NodeCrash {
                node,
                at_tick: 1,
                torn_keep: None,
            })
            .collect();
        let report = run_traffic(&world, &config, &trace, &events);
        assert_eq!(report.outcomes.len(), trace.len(), "no silent drops");
        let reason = ShedReason::NodeUnreachable { shard };
        let mut sheds = 0usize;
        for routed in report.outcomes.iter().filter(|r| r.outcome.shard == shard) {
            assert_eq!(routed.node, None, "no replica is left to refuse it");
            assert_eq!(routed.outcome.disposition, TrafficDisposition::Shed(reason));
            sheds += 1;
        }
        assert!(sheds > 0, "the orphaned shard must shed explicitly");
        let audits: Vec<&ShedAudit> = report
            .shed_audits
            .iter()
            .filter(|audit| audit.shard == shard)
            .collect();
        assert_eq!(audits.len(), sheds, "one audit per routing shed");
        for audit in audits {
            assert_eq!(audit.reason, reason);
            assert!(audit.alive_replicas.is_empty());
            assert!(audit.reachable_replicas.is_empty());
        }
    }

    #[test]
    fn partition_that_never_heals_sheds_partitioned_from_the_cut_on() {
        let world = world(24, 12);
        let (config, trace) = fault_world(&world);
        let (shard, group) = replica_group_avoiding_node0(&config, &trace);
        let cut = trace[trace.len() / 3].at_tick;
        let report = run_traffic(
            &world,
            &config,
            &trace,
            &[NodeEvent::Partition {
                groups: vec![group],
                at_tick: cut,
                heal_at: u64::MAX,
            }],
        );
        assert_eq!(report.outcomes.len(), trace.len(), "no silent drops");
        let mut stranded = 0usize;
        for routed in report.outcomes.iter().filter(|r| r.outcome.shard == shard) {
            let shed = matches!(
                routed.outcome.disposition,
                TrafficDisposition::Shed(ShedReason::Partitioned { shard: s }) if s == shard
            );
            assert_eq!(shed, routed.outcome.at_tick >= cut, "{routed:?}");
            stranded += usize::from(shed);
        }
        assert!(stranded > 0, "the cut must strand some arrivals");
        for audit in report.shed_audits.iter().filter(|a| a.shard == shard) {
            assert_eq!(audit.reason, ShedReason::Partitioned { shard });
            assert!(!audit.alive_replicas.is_empty());
            assert!(audit.reachable_replicas.is_empty());
        }
    }

    #[test]
    fn healed_partition_serves_again_byte_identically_to_the_replay() {
        let world = world(24, 12);
        let (config, trace) = fault_world(&world);
        let (shard, group) = replica_group_avoiding_node0(&config, &trace);
        let cut = trace[trace.len() / 3].at_tick;
        let heal = trace[trace.len() / 2].at_tick;
        let report = run_traffic(
            &world,
            &config,
            &trace,
            &[NodeEvent::Partition {
                groups: vec![group],
                at_tick: cut,
                heal_at: heal,
            }],
        );
        let answered_after_heal = report
            .outcomes
            .iter()
            .filter(|r| r.outcome.shard == shard && r.outcome.at_tick >= heal)
            .inspect(|r| {
                assert!(
                    matches!(r.outcome.disposition, TrafficDisposition::Answered { .. }),
                    "{r:?}"
                );
            })
            .count();
        assert!(
            answered_after_heal > 0,
            "the shard must serve after the heal"
        );
        assert!(report
            .shed_audits
            .iter()
            .all(|audit| audit.reason == ShedReason::Partitioned { shard }));
        assert_answers_match_the_replay(&world, &config, &trace, &report);
    }

    #[test]
    #[should_panic(expected = "vnodes must be at least 1")]
    fn zero_vnodes_is_rejected_by_the_traffic_engine() {
        let world = world(8, 5);
        let config = ClusterTrafficConfig {
            vnodes: 0,
            ..ClusterTrafficConfig::default()
        };
        let _ = run_traffic(&world, &config, &[], &[]);
    }

    /// The boot primary of the trace's hot shard 0.
    fn hot_primary(config: &ClusterTrafficConfig) -> NodeId {
        let ring = Ring::new(config.nodes, config.vnodes);
        ring.replicas(0, config.replication).unwrap().nodes()[0]
    }

    #[test]
    fn stale_ring_routing_sheds_while_a_live_replica_waits() {
        let world = world(24, 12);
        let (config, trace) = fault_world(&world);
        let crash = [NodeEvent::NodeCrash {
            node: hot_primary(&config),
            at_tick: trace[trace.len() / 3].at_tick,
            torn_keep: None,
        }];
        let faithful = run_traffic(&world, &config, &trace, &crash);
        assert!(faithful.shed_audits.is_empty(), "a live replica takes over");
        let stale = ClusterTrafficConfig {
            routing: RebalanceDiscipline::StaleRing,
            ..config
        };
        let report = run_traffic(&world, &stale, &trace, &crash);
        // The bug's signature: a NodeUnreachable shed whose audit shows
        // an alive, reachable replica the router never consulted.
        let lying = report
            .shed_audits
            .iter()
            .find(|audit| !audit.reachable_replicas.is_empty())
            .expect("the stale router must strand a shard with live replicas");
        assert_eq!(lying.shard, 0);
        assert_eq!(lying.reason, ShedReason::NodeUnreachable { shard: 0 });
        assert_eq!(
            report.outcomes.len(),
            trace.len(),
            "even the bug never drops silently"
        );
    }

    #[test]
    fn restart_discards_the_torn_tail_and_serves_again() {
        let world = world(24, 12);
        let (config, trace) = fault_world(&world);
        let victim = hot_primary(&config);
        let restart = trace[trace.len() / 2].at_tick;
        let report = run_traffic(
            &world,
            &config,
            &trace,
            &[
                NodeEvent::NodeCrash {
                    node: victim,
                    at_tick: trace[trace.len() / 3].at_tick,
                    torn_keep: Some(5),
                },
                NodeEvent::NodeRestart {
                    node: victim,
                    at_tick: restart,
                },
            ],
        );
        let node = &report.nodes[victim.0];
        assert_eq!((node.crashes, node.restarts), (1, 1));
        assert!(node.alive_at_end);
        assert!(
            report
                .outcomes
                .iter()
                .any(|r| r.node == Some(victim) && r.outcome.at_tick >= restart),
            "the revived primary must take its shard back"
        );
        // Appends after the restart follow the last complete record, so
        // even a strict decode reads the whole journal.
        node.journal
            .decode(DecodeMode::Strict)
            .expect("the restart discarded the torn tail");
        assert!(report.shed_audits.is_empty());
        assert_answers_match_the_replay(&world, &config, &trace, &report);
    }

    #[test]
    fn crash_after_the_last_arrival_keeps_the_end_tick() {
        let world = world(24, 12);
        let (config, trace) = traffic_world(&world, probe_cost(&world));
        let clean = run_traffic(&world, &config, &trace, &[]);
        let at_tick = trace.last().unwrap().at_tick + 1;
        let events: Vec<NodeEvent> = (0..config.nodes)
            .map(|node| NodeEvent::NodeCrash {
                node: NodeId(node),
                at_tick,
                torn_keep: None,
            })
            .collect();
        let late = run_traffic(&world, &config, &trace, &events);
        assert_eq!(late.outcomes, clean.outcomes);
        assert_eq!(
            late.end_tick, clean.end_tick,
            "a crash after every answer completed cannot move the end"
        );
    }

    #[test]
    fn stale_epoch_routing_sheds_with_both_epochs_on_record() {
        let world = world(24, 12);
        let cost = probe_cost(&world);
        let (mut config, trace) = traffic_world(&world, cost);
        config.routing = RebalanceDiscipline::StaleEpoch;
        let report = run_traffic(&world, &config, &trace, &[]);
        assert!(report.promotion_count() > 0, "staleness needs a promotion");
        assert!(
            report.stale_sheds() > 0,
            "the frozen router must misroute after the ring moved"
        );
        let audit = report
            .shed_audits
            .iter()
            .find(|audit| matches!(audit.reason, ShedReason::StaleRingEpoch { .. }))
            .expect("stale sheds leave audits");
        assert!(
            !audit.reachable_replicas.is_empty(),
            "the true owner was alive and reachable the whole time"
        );
        if let ShedReason::StaleRingEpoch { seen, current, .. } = audit.reason {
            assert_eq!(seen, RingEpoch::BOOT);
            assert!(current > seen);
        }
        assert_eq!(report.outcomes.len(), trace.len(), "never a silent drop");
    }

    #[test]
    fn crash_after_promotion_replays_the_reached_epoch_from_journals() {
        let world = world(24, 12);
        let cost = probe_cost(&world);
        let (config, trace) = traffic_world(&world, cost);
        let clean = run_traffic(&world, &config, &trace, &[]);
        assert!(clean.promotion_count() > 0);
        let first_promotion = clean.rebalance_audits[0].decision.at_tick;
        // Crash the donating node right after the promotion, tearing
        // its last journal append mid-replication.
        let victim = clean.rebalance_audits[0].decision.from;
        let report = run_traffic(
            &world,
            &config,
            &trace,
            &[NodeEvent::NodeCrash {
                node: victim,
                at_tick: first_promotion + 1,
                torn_keep: Some(3),
            }],
        );
        let replay = report
            .epoch_replays
            .first()
            .expect("a crash leaves an epoch-replay record");
        assert_eq!(replay.node, victim);
        assert!(replay.epoch_at_crash >= RingEpoch(1));
        assert_eq!(
            replay.replayed_epoch, replay.epoch_at_crash,
            "recovery must come back on the epoch the cluster reached"
        );
        // The survivors' journals carry the ring change itself.
        let ring_changes = report
            .nodes
            .iter()
            .flat_map(|node| {
                node.journal
                    .decode(DecodeMode::Recover)
                    .expect("node journals decode")
                    .records
            })
            .filter(|record| matches!(record, JournalRecord::RingChange { .. }))
            .count();
        assert!(ring_changes > 0);
        assert_eq!(report.outcomes.len(), trace.len(), "never a silent drop");
    }

    #[test]
    fn restart_of_a_live_node_and_recrash_of_a_dead_one_change_no_traffic_run() {
        let world = world(24, 12);
        let cost = probe_cost(&world);
        let (config, trace) = traffic_world(&world, cost);
        let clean = run_traffic(&world, &config, &trace, &[]);
        let victim = NodeId(1);
        let third = trace[trace.len() / 3].at_tick;
        let half = trace[trace.len() / 2].at_tick;
        let restart_live = run_traffic(
            &world,
            &config,
            &trace,
            &[NodeEvent::NodeRestart {
                node: victim,
                at_tick: half,
            }],
        );
        assert_eq!(restart_live, clean, "a live node's restart is no event");
        let crash = |at_tick: u64| NodeEvent::NodeCrash {
            node: victim,
            at_tick,
            torn_keep: Some(3),
        };
        let once = run_traffic(&world, &config, &trace, &[crash(third)]);
        let twice = run_traffic(&world, &config, &trace, &[crash(third), crash(half)]);
        assert_eq!(twice, once, "a dead node's crash is no event");
        assert_eq!(once.epoch_replays.len(), 1);
    }

    #[test]
    fn crash_after_the_last_arrival_still_records_its_epoch_replay() {
        let world = world(24, 12);
        let cost = probe_cost(&world);
        let (config, trace) = traffic_world(&world, cost);
        let clean = run_traffic(&world, &config, &trace, &[]);
        assert!(clean.final_epoch > RingEpoch::BOOT, "the run must promote");
        let victim = NodeId(1);
        let at_tick = trace.last().unwrap().at_tick + 1;
        let late = run_traffic(
            &world,
            &config,
            &trace,
            &[NodeEvent::NodeCrash {
                node: victim,
                at_tick,
                torn_keep: None,
            }],
        );
        assert_eq!(late.outcomes, clean.outcomes);
        assert_eq!(late.shards, clean.shards);
        assert_eq!(late.rebalance_audits, clean.rebalance_audits);
        assert_eq!(late.final_epoch, clean.final_epoch);
        let node = &late.nodes[victim.0];
        assert_eq!(
            (node.crashes, node.restarts, node.alive_at_end),
            (1, 0, false)
        );
        assert_eq!(node.journal, clean.nodes[victim.0].journal);
        assert_eq!(
            late.epoch_replays,
            vec![EpochReplay {
                node: victim,
                at_tick,
                epoch_at_crash: clean.final_epoch,
                replayed_epoch: clean.final_epoch,
            }]
        );
    }

    #[test]
    #[should_panic(expected = "arrival 0 is on shard 4, but the engine has 4 shards")]
    fn out_of_range_arrival_shard_is_rejected() {
        let world = world(8, 5);
        let config = ClusterTrafficConfig::default();
        let arrival = Arrival {
            at_tick: 0,
            item: ItemId(0),
            shard: config.shards,
            extra_cost_ticks: 0,
        };
        let _ = run_traffic(&world, &config, &[arrival], &[]);
    }

    #[test]
    #[should_panic(expected = "names node-3, outside the membership of 3 nodes")]
    fn traffic_engine_rejects_a_node_outside_the_membership() {
        let world = world(8, 5);
        let config = ClusterTrafficConfig::default();
        let _ = run_traffic(
            &world,
            &config,
            &[],
            &[NodeEvent::Partition {
                groups: vec![vec![NodeId(1), NodeId(config.nodes)]],
                at_tick: 1,
                heal_at: u64::MAX,
            }],
        );
    }
}
