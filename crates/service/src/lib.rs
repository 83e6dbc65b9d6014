//! Resilient concurrent query serving for `LCA-KP` — the workspace's
//! answer to "what does Algorithm 2 look like as a production service?"
//!
//! The paper's LCA is stateless per query, which makes it trivially
//! shardable: this crate serves batches of point queries over a worker
//! pool while staying **deterministic** (same inputs ⇒ byte-identical
//! responses, regardless of thread scheduling) and **fault-tolerant**
//! (every response is explicit — answered at a recorded
//! degradation-ladder tier, or rejected with a typed load-shed reason).
//!
//! The resilience toolkit, one module each:
//!
//! * [`clock`] — virtual time: all deadlines, cool-downs, and backoff
//!   waits are ticks on a [`VirtualClock`]; wall-clock time never enters
//!   (lint rule `D006`).
//! * [`deadline`] — per-query deadlines via an oracle decorator that
//!   charges modelled access latency and refuses past-deadline accesses.
//! * [`backoff`] — query-level retry with exponential, seed-jittered
//!   waits.
//! * [`breaker`] — a per-worker three-state circuit breaker gating the
//!   expensive full-rule path.
//! * [`admission`] — bounded queues and budget-aware pre-dispatch
//!   shedding.
//! * [`journal`] — the write-ahead journal and snapshot encoding behind
//!   deterministic crash–recovery.
//! * [`service`] — [`serve_batch`], the runtime itself (including the
//!   crash/recover worker loop).
//! * [`chaos`] — the deterministic chaos harness of experiment E14,
//!   extended with worker crash/restart events for E15.
//! * [`ring`] — the consistent-hash ring placing replicated shards on
//!   simulated cluster nodes.
//! * [`cluster`] — [`serve_cluster`], the simulated multi-node runtime:
//!   replica failover via journal shipping, partition tolerance, and
//!   node-level fault events (experiment E16); and
//!   [`serve_cluster_traffic`], the one arrival-driven serving engine
//!   behind both E17 and E18.
//! * [`traffic`] — seed-derived open-loop arrival processes, and
//!   [`run_open_loop`]: the arrival-driven engine on a dedicated
//!   topology, one node per shard (experiment E17).
//! * [`slo`] — virtual-time latency percentiles, availability SLOs, and
//!   the windowed load signal the adaptive controller reacts to.
//! * [`rebalance`] — the admission-coupled ring-rebalance controller
//!   promoting replicas for hot shards under epoch-versioned ring
//!   updates (experiment E18).
//!
//! See `docs/robustness.md` for the design rationale and the
//! E14/E15/E16/E17/E18 acceptance criteria.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod admission;
pub mod backoff;
pub mod breaker;
pub mod chaos;
pub mod clock;
pub mod cluster;
pub mod deadline;
pub mod journal;
pub mod rebalance;
pub mod ring;
pub mod service;
pub mod slo;
pub mod traffic;

pub use admission::{
    AdaptiveAdmission, AdmissionConfig, AdmissionDecision, AdmissionDiscipline, AdmissionState,
    ShedReason,
};
pub use backoff::BackoffPolicy;
pub use breaker::{
    BreakerConfig, BreakerEvent, BreakerSnapshot, BreakerState, CircuitBreaker, TransitionCause,
};
pub use chaos::{
    run_scenario, run_smoke, seed_to_u64, smoke_parts, ChaosPlan, ChaosRun, ChaosScenario,
    SmokeParts, WorkerEvent,
};
pub use clock::{TickClock, VirtualClock};
pub use cluster::{
    replay_shard_traffic, serve_cluster, serve_cluster_traffic, serve_shard_standalone,
    ClusterConfig, ClusterReport, ClusterTrafficConfig, ClusterTrafficReport, EpochReplay,
    NodeEvent, NodeLoadTrace, NodeTrace, NodeTransition, RoutedOutcome, RoutingDiscipline,
    ShardOwnership, ShardTrace, ShedAudit,
};
pub use deadline::{CostModel, DeadlineOracle, LatencyWindow};
pub use journal::{
    decode, DecodeMode, DecodedJournal, Journal, JournalRecord, Recovered, RecoveryError,
    WorkerSnapshot,
};
pub use rebalance::{
    RebalanceAudit, RebalanceConfig, RebalanceController, RebalanceDecision, RebalanceDiscipline,
};
pub use ring::{NodeId, ReplicaSet, Ring, RingEpoch, RingView, RouteError};
pub use service::{
    serve_batch, Answered, BatchReport, CrashDirective, CrashReport, Disposition, FallbackTrigger,
    FaultSchedule, QueryOutcome, RecoveryDiscipline, ServiceConfig, WorkerTrace,
};
pub use slo::{LatencyHistogram, LoadSignal, SignalWindow, SloReport};
pub use traffic::{
    generate_trace, run_open_loop, Arrival, OpenLoopConfig, TrafficConfig, TrafficDisposition,
    TrafficOutcome, TrafficShape,
};
