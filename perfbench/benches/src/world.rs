//! The three workloads: what each generates from the workload seed, and
//! the timed set-up that builds it.

use crate::measure::median;
use crate::probe::{now, ns_since};
use lcakp_core::{LcaError, LcaKp, QueryScratch, RetryPolicy};
use lcakp_knapsack::iky::Epsilon;
use lcakp_knapsack::{ItemId, NormalizedInstance};
use lcakp_oracle::{InstanceOracle, Seed};
use lcakp_reproducible::SampleBudget;
use lcakp_service::{
    generate_trace, seed_to_u64, AdmissionConfig, AdmissionDiscipline, Arrival, BreakerConfig,
    ClusterTrafficConfig, NodeEvent, NodeId, RebalanceConfig, RebalanceDiscipline, ServiceConfig,
    TrafficConfig, TrafficShape,
};
use lcakp_sim::calibrate_cost;
use lcakp_workloads::{Family, WorkloadSpec};
use rand::Rng;
use rand_chacha::ChaCha12Rng;
use std::fmt;

/// The E14 sample budget: every workload runs the configuration whose
/// figures `BENCH_e14.json` records.
pub const BUDGET: SampleBudget = SampleBudget::Calibrated { factor: 0.002 };

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Heavy-item profit of the large-dominated workloads: large enough that
/// the heavy items hold more than 1 − ε of the profit, so EPS estimation
/// is skipped.
const HEAVY_PROFIT: u64 = 1 << 20;

/// Arrivals in the served trace.
pub const SERVED_ARRIVALS: usize = 8000;

/// Mean inter-arrival gap of the served trace, permille of the
/// calibrated per-query cost: 3 nodes serve at most 3 queries per cost,
/// and the hot shard draws three quarters of the load onto one node, so
/// this offers that node more than it can serve until rebalance moves
/// the hot shard.
const SERVED_GAP_PERMILLE: u64 = 700;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// SmallDominated, n = 4096: every query runs EPS estimation.
    EstimateHeavy,
    /// LargeDominated, n = 4096: a hot-shard trace on the cluster.
    ServedCluster,
    /// LargeDominated, n = 2²²: sampling from an out-of-cache oracle.
    BigN,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "estimate-heavy" => Some(Workload::EstimateHeavy),
            "served-cluster" => Some(Workload::ServedCluster),
            "big-n" => Some(Workload::BigN),
            _ => None,
        }
    }

    fn spec(self, seed: u64) -> WorkloadSpec {
        match self {
            Workload::EstimateHeavy => WorkloadSpec::new(Family::SmallDominated, 4096, seed),
            Workload::ServedCluster => WorkloadSpec::new(
                Family::LargeDominated {
                    heavy: 4,
                    heavy_profit: HEAVY_PROFIT,
                },
                4096,
                seed,
            ),
            Workload::BigN => WorkloadSpec::new(
                Family::LargeDominated {
                    heavy: 24,
                    heavy_profit: HEAVY_PROFIT,
                },
                1 << 22,
                seed,
            ),
        }
    }

    /// Queries run before the set-up clock stops, so that timing starts
    /// from steady sampling. On `big-n` the first few hundred queries
    /// run slower while the oracle's pages and TLB entries warm.
    fn warmup_queries(self) -> usize {
        match self {
            Workload::EstimateHeavy => 1,
            Workload::ServedCluster => 500,
            Workload::BigN => 400,
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Workload::EstimateHeavy => "estimate-heavy",
            Workload::ServedCluster => "served-cluster",
            Workload::BigN => "big-n",
        })
    }
}

/// Everything a run derives from its workload seed.
#[derive(Debug)]
pub struct World {
    /// The workload.
    pub workload: Workload,
    /// The generated instance.
    pub norm: NormalizedInstance,
    /// The LCA under test.
    pub lca: LcaKp,
    /// Root of every stream below.
    pub root: Seed,
    /// The shared read-only seed all queries use.
    pub shared: Seed,
}

impl World {
    /// The E14 LCA: ε = 1/6, calibrated budget 0.002, five retries.
    fn lca() -> Result<LcaKp, LcaError> {
        Ok(LcaKp::new(Epsilon::new(1, 6)?)?
            .with_budget(BUDGET)
            .with_retry_policy(RetryPolicy { max_retries: 5 }))
    }

    /// The client's sampling stream (the fresh i.i.d. channel).
    pub fn sampling_rng(&self) -> ChaCha12Rng {
        self.root.derive("perfbench/sampling", 0).rng()
    }

    /// Queried items: uniform over the instance.
    pub fn item_stream(&self) -> impl FnMut() -> ItemId {
        let mut rng = self.root.derive("perfbench/items", 0).rng();
        let n = self.norm.len();
        move || ItemId(rng.gen_range(0..n))
    }
}

/// The served-cluster scenario built on a world: cluster tuning scaled
/// to the calibrated per-query cost, the arrival trace, and the node
/// faults.
#[derive(Debug)]
pub struct Serving {
    /// Root of the per-arrival query seeds.
    pub service_root: Seed,
    /// Cluster tuning.
    pub config: ClusterTrafficConfig,
    /// The open-loop arrival trace.
    pub trace: Vec<Arrival>,
    /// One crash and one restart of node 1, mid-trace.
    pub events: Vec<NodeEvent>,
    /// Calibrated mean service ticks per query.
    pub cost: u64,
}

impl Serving {
    /// Calibrates the per-query cost on `oracle`, then builds a
    /// hot-shard trace of `arrivals` arrivals offered near capacity.
    ///
    /// # Errors
    ///
    /// Propagates calibration errors.
    pub fn build(
        world: &World,
        oracle: &InstanceOracle<'_>,
        arrivals: usize,
    ) -> Result<Serving, LcaError> {
        let service_root = world.root.derive("perfbench/serving", 0);
        let trace_root = world.root.derive("perfbench/trace", 0);
        let mut service = ServiceConfig {
            workers: 1,
            breaker: BreakerConfig {
                failure_threshold: 2,
                cooldown_ticks: 6,
                half_open_probes: 1,
            },
            ..ServiceConfig::default()
        };
        let cost = calibrate_cost(
            &world.lca,
            oracle,
            &world.shared,
            &service_root,
            &trace_root,
            &service,
            world.norm.len(),
        )?;
        // The E18 world's scaling of deadline, admission hysteresis and
        // rebalance dwell to the per-query cost.
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
            shards: 8,
            vnodes: 64,
            service,
            admission,
            discipline: Some(AdmissionDiscipline::Faithful),
            rebalance: Some(rebalance),
            routing: RebalanceDiscipline::Faithful,
        };
        let trace = generate_trace(
            &trace_root,
            &TrafficConfig {
                shape: TrafficShape::HotShard,
                arrivals,
                mean_gap_ticks: (cost * SERVED_GAP_PERMILLE / 1000).max(1),
                universe: world.norm.len(),
                shards: config.shards,
            },
        );
        let horizon = trace.last().map_or(1, |arrival| arrival.at_tick);
        let events = vec![
            NodeEvent::NodeCrash {
                node: NodeId(1),
                at_tick: horizon / 2,
                torn_keep: None,
            },
            NodeEvent::NodeRestart {
                node: NodeId(1),
                at_tick: horizon * 3 / 4,
            },
        ];
        Ok(Serving {
            service_root,
            config,
            trace,
            events,
            cost,
        })
    }
}

/// Median set-up times over the run's set-ups, seconds.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Instance generation.
    pub generate_s: f64,
    /// `InstanceOracle::new` (the alias table).
    pub oracle_s: f64,
    /// Everything before timing starts: generation, oracle, LCA,
    /// serving calibration and trace (served-cluster) and warm-up.
    pub total_s: f64,
}

/// Builds the workload's world [`SETUP_REPS`] times, timing each build,
/// and hands the last one to `body`.
///
/// # Errors
///
/// Propagates generation, calibration and warm-up errors.
pub fn with_world<T>(
    workload: Workload,
    seed: u64,
    body: impl FnOnce(&World, &InstanceOracle<'_>, Option<&Serving>, SetupTimes) -> T,
) -> Result<T, LcaError> {
    let root = Seed::from_entropy_u64(seed);
    let spec = workload.spec(seed_to_u64(&root.derive("perfbench/workload", 0)));
    let shared = root.derive("perfbench/shared", 0);
    let mut generate = Vec::with_capacity(SETUP_REPS);
    let mut build = Vec::with_capacity(SETUP_REPS);
    let mut total = Vec::with_capacity(SETUP_REPS);
    loop {
        let start = now();
        let norm = spec.generate_normalized()?;
        let generated = ns_since(start);
        let world = World {
            workload,
            norm,
            lca: World::lca()?,
            root,
            shared,
        };
        let oracle_start = now();
        let oracle = InstanceOracle::new(&world.norm);
        let built = ns_since(oracle_start);
        let serving = match workload {
            Workload::ServedCluster => Some(Serving::build(&world, &oracle, SERVED_ARRIVALS)?),
            _ => None,
        };
        warm_up(&world, &oracle)?;
        generate.push(generated as f64 / 1e9);
        build.push(built as f64 / 1e9);
        total.push(ns_since(start) as f64 / 1e9);
        if total.len() == SETUP_REPS {
            let times = SetupTimes {
                generate_s: median(&generate),
                oracle_s: median(&build),
                total_s: median(&total),
            };
            return Ok(body(&world, &oracle, serving.as_ref(), times));
        }
    }
}

/// Runs the workload's warm-up queries on their own sampling stream.
fn warm_up(world: &World, oracle: &InstanceOracle<'_>) -> Result<(), LcaError> {
    let mut rng = world.root.derive("perfbench/warmup-sampling", 0).rng();
    let mut scratch = QueryScratch::default();
    let n = world.norm.len();
    for query in 0..world.workload.warmup_queries() {
        let item = ItemId(query * 7919 % n);
        world
            .lca
            .query_with_audit_in(oracle, &mut rng, item, &world.shared, &mut scratch)?;
    }
    Ok(())
}
