//! `lcakp-sim` — a VOPR-style deterministic simulator for the
//! `lcakp-service` serving runtime (experiments E15–E18).
//!
//! The simulator's claim mirrors Theorem 4.1's consistency guarantee
//! pushed through the serving runtime: with a shared seed, a worker
//! that crashes, tears its in-flight journal write, and recovers must
//! serve answers **byte-identical** to a worker that never died. Each
//! simulated case derives a randomized fault schedule — crashes,
//! restarts, corruption bursts, latency spikes, budget squeezes — from
//! `(root, case)`, runs the full service twice (the faulted run and
//! its crash-free twin), and checks safety *and* liveness invariants
//! against the twin and the write-ahead journals. A violating schedule
//! is automatically shrunk (drop-event / halve-magnitude passes) to a
//! locally minimal repro printed as a replayable seed + event list.
//!
//! One module per concern:
//!
//! * [`driver`] — the skeleton every experiment shares: the
//!   [`Scenario`] trait (schedule, twin-and-faulted run, stats), the
//!   generic [`CaseResult`] / [`SimReport`], the range driver
//!   [`run_range`], the planted-bug [`hunt`], and the one canonical JSON
//!   renderer [`render_json`] the `--smoke` goldens pin;
//! * `world` — the world every scenario builds on (instance, LCA,
//!   seeds, breaker) and, for the traffic scenarios, the calibrated
//!   deadline, admission controller, and arrival-trace mapping;
//! * [`schedule`] — [`SimEvent`] and seed-derived schedule generation;
//! * [`invariants`] — the [`Violation`] taxonomy and [`check_run`];
//! * [`shrink`] — greedy schedule shrinking to a minimal repro;
//! * [`calibrate`] — the per-query service-cost probe the traffic
//!   scenarios express their schedules in;
//! * [`harness`] — E15: worker crashes, restarts, corruption bursts,
//!   latency spikes, and budget squeezes against the worker pool;
//! * [`cluster`] — E16: node crashes, restarts, and partitions against
//!   the simulated multi-node cluster, plus the replica byte-identity
//!   check;
//! * [`slo`] — E17: open-loop traffic schedules against the adaptive
//!   admission controller, with admission-honesty, hysteresis, and
//!   liveness invariants checked against an admission-free twin;
//! * [`rebalance`] — E18: traffic-and-fault schedules against the
//!   admission-coupled ring-rebalance controller, with
//!   rebalance-honesty, anti-ping-pong, epoch-monotonicity, and
//!   migration byte-identity invariants, relief measured against a
//!   frozen-ring twin.
//!
//! See `docs/robustness.md` ("Crash–recovery & simulation" and
//! "Cluster failover & partitions") for the journal format, the
//! invariant list, and how to replay a repro.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod calibrate;
pub mod cluster;
pub mod driver;
pub mod harness;
pub mod invariants;
pub mod rebalance;
pub mod schedule;
pub mod shrink;
pub mod slo;
mod world;

pub use calibrate::calibrate_cost;
pub use cluster::{
    run_cluster_smoke, ClusterCaseStats, ClusterSimConfig, ClusterWorld, E16_SMOKE_CASES,
};
pub use driver::{
    hunt, render_json, run_range, CaseResult, JsonFields, Repro, Scenario, SimReport,
};
pub use harness::{run_smoke, CaseStats, SimConfig, SimWorld, SMOKE_CASES};
pub use invariants::{check_cluster_run, check_rebalance_run, check_run, check_slo_run, Violation};
pub use rebalance::{
    run_rebalance_smoke, RebalanceCaseStats, RebalanceSimConfig, RebalanceWorld, E18_SMOKE_CASES,
};
pub use schedule::{
    generate_cluster_schedule, generate_rebalance_schedule, generate_schedule,
    generate_slo_schedule, SimEvent,
};
pub use shrink::{shrink, Shrunk};
pub use slo::{
    run_slo_smoke, slo_target_permille, SloCaseStats, SloSimConfig, SloWorld, E17_SMOKE_CASES,
};
