//! Open-loop traffic: seed-derived arrival processes on virtual time,
//! and [`run_open_loop`], which serves a trace as independent
//! single-server shards through the adaptive admission controller
//! (experiment E17).
//!
//! The per-arrival engine is not here: it lives in [`crate::cluster`].
//! Because every LCA-KP answer is a function of the shared seed and the
//! query alone (Definition 2.4), independent shards are exactly the
//! traffic-driven cluster with each shard alone on a node of its own —
//! replication 1, no rebalancing, no node faults — so [`run_open_loop`]
//! runs that cluster and returns its [`ClusterTrafficReport`].
//!
//! # Why open-loop
//!
//! The chaos harnesses of E14–E16 are *closed-loop*: every query waits
//! for the previous one, so the offered load can never outrun the
//! server and overload is impossible by construction. Real traffic is
//! open-loop — arrivals keep coming whether or not the server keeps up
//! — and that is the regime where admission control earns its keep.
//! Because LCA-KP answers are stateless and query-order-oblivious,
//! shedding or deferring any subset of arrivals cannot compromise the
//! (1/2, 6ε) consistency guarantee, which is what makes adaptive
//! admission *provably safe* here (see `docs/robustness.md`).
//!
//! # Determinism
//!
//! A trace is a pure function of `(traffic root seed, TrafficConfig)`:
//! every gap, item choice, and burst length is drawn from a
//! domain-separated stream, so any trace — and therefore any engine
//! run over it — is replayable byte-for-byte from its seed. The engine
//! itself adds no entropy: virtual time does all the scheduling.
//!
//! # The five shapes
//!
//! * [`TrafficShape::Steady`] — Poisson-like arrivals: independent
//!   jittered gaps around a configured mean.
//! * [`TrafficShape::Diurnal`] — the same gaps modulated by a fixed
//!   integer sine table (permille), compressing and stretching the
//!   inter-arrival time through two "days" per trace.
//! * [`TrafficShape::Bursty`] — an on/off process whose burst lengths
//!   are heavy-tailed (powers of two weighted geometrically), with
//!   gaps ¼ of the mean inside a burst and several means between
//!   bursts.
//! * [`TrafficShape::HotShard`] — steady gaps, but three quarters of
//!   the arrivals target items placed on shard 0, starving the cold
//!   shards and overloading the hot one.
//! * [`TrafficShape::QueryOfDeath`] — steady traffic with a recurring
//!   pathological query: every eighth arrival is the same item carrying
//!   a `worst_case_accesses`-scale extra service cost, stalling the
//!   server it lands on.

use crate::admission::{AdmissionConfig, AdmissionDiscipline, ShedReason};
use crate::cluster::{serve_traffic, ClusterTrafficConfig, ClusterTrafficReport};
use crate::rebalance::RebalanceDiscipline;
use crate::ring::RingView;
use crate::service::{Answered, ServiceConfig};
use lcakp_core::{LcaError, LcaKp};
use lcakp_knapsack::ItemId;
use lcakp_oracle::{ItemOracle, Seed, WeightedSampler};
use rand::Rng;
use std::fmt;

/// Seed domain for arrival-process generation.
const TRAFFIC_DOMAIN: &str = "traffic/arrivals";

/// Every eighth [`TrafficShape::QueryOfDeath`] arrival is the death
/// query.
const DEATH_PERIOD: usize = 8;

/// The death query's extra service cost, in mean gaps: one pathological
/// query occupies its shard for this many average inter-arrival times.
const DEATH_COST_GAPS: u64 = 24;

/// Fixed integer sine table for the diurnal shape: gap multiplier in
/// permille over one 16-step "day" (`1000 − 600·sin(2πk/16)`, so the
/// noon rate is 2.5× the mean and the midnight rate is 0.625×).
const DIURNAL_GAP_PERMILLE: [u64; 16] = [
    1000, 770, 576, 446, 400, 446, 576, 770, 1000, 1230, 1424, 1554, 1600, 1554, 1424, 1230,
];

/// Which arrival process a trace follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use]
pub enum TrafficShape {
    /// Poisson-like: independent jittered gaps around the mean.
    Steady,
    /// Sinusoidal rate modulation over two "days" per trace.
    Diurnal,
    /// On/off bursts with heavy-tailed burst lengths.
    Bursty,
    /// Three quarters of arrivals target items on shard 0.
    HotShard,
    /// A recurring query with a pathological extra service cost.
    QueryOfDeath,
}

impl TrafficShape {
    /// Every shape, in schedule-encoding order.
    pub const ALL: [TrafficShape; 5] = [
        TrafficShape::Steady,
        TrafficShape::Diurnal,
        TrafficShape::Bursty,
        TrafficShape::HotShard,
        TrafficShape::QueryOfDeath,
    ];

    /// Stable index of the shape (its seed-domain and encoding id).
    #[must_use]
    pub fn index(self) -> u64 {
        match self {
            TrafficShape::Steady => 0,
            TrafficShape::Diurnal => 1,
            TrafficShape::Bursty => 2,
            TrafficShape::HotShard => 3,
            TrafficShape::QueryOfDeath => 4,
        }
    }
}

impl fmt::Display for TrafficShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrafficShape::Steady => write!(f, "steady"),
            TrafficShape::Diurnal => write!(f, "diurnal"),
            TrafficShape::Bursty => write!(f, "bursty"),
            TrafficShape::HotShard => write!(f, "hot-shard"),
            TrafficShape::QueryOfDeath => write!(f, "query-of-death"),
        }
    }
}

/// Parameters of one generated trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficConfig {
    /// The arrival process.
    pub shape: TrafficShape,
    /// Arrivals in the trace.
    pub arrivals: usize,
    /// Mean inter-arrival gap, in virtual ticks.
    pub mean_gap_ticks: u64,
    /// Items are drawn from `0..universe`.
    pub universe: usize,
    /// Shards the engine will run; item placement is `item mod shards`.
    pub shards: usize,
}

/// One generated arrival: when, what, where, and how much extra it
/// costs to serve (0 for everything but the query of death).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Virtual tick the query arrives at.
    pub at_tick: u64,
    /// The queried item.
    pub item: ItemId,
    /// The shard the item is placed on (`item mod shards`).
    pub shard: usize,
    /// Extra service ticks charged to the shard clock — the engine's
    /// stand-in for a pathological `worst_case_accesses`.
    pub extra_cost_ticks: u64,
}

/// Shard placement by key residue — the one routing rule shared by
/// trace generation and the closed-batch cluster's admission path, so a
/// "shard" means the same thing in both.
pub(crate) fn shard_of(key: usize, shards: usize) -> usize {
    key % shards
}

/// `base` jittered uniformly by ±25 % (and at least 1 tick).
fn jittered<R: Rng>(rng: &mut R, base: u64) -> u64 {
    (base * rng.gen_range(750u64..=1250) / 1000).max(1)
}

/// A heavy-tailed burst length: `2 << g` for geometric `g`, capped at
/// 64 arrivals — long bursts are rare but dominate when they happen.
fn burst_length<R: Rng>(rng: &mut R) -> usize {
    let geometric = rng.gen::<u32>().trailing_ones().min(5);
    2 << geometric
}

/// Generates the trace for `config`, every draw taken from the
/// domain-separated stream `root → "traffic/arrivals" / shape-index`.
/// Arrival ticks are strictly increasing.
#[must_use]
pub fn generate_trace(root: &Seed, config: &TrafficConfig) -> Vec<Arrival> {
    let mut rng = root.derive(TRAFFIC_DOMAIN, config.shape.index()).rng();
    let mean = config.mean_gap_ticks.max(1);
    let shards = config.shards.max(1);
    let mut trace = Vec::with_capacity(config.arrivals);
    let mut tick = 0u64;
    // Bursty state: arrivals left in the current burst (0 = off period).
    let mut burst_left = 0usize;
    // Diurnal period: two full "days" per trace.
    let day = (config.arrivals / 2).max(DIURNAL_GAP_PERMILLE.len());

    for i in 0..config.arrivals {
        let gap = match config.shape {
            TrafficShape::Steady | TrafficShape::HotShard | TrafficShape::QueryOfDeath => {
                jittered(&mut rng, mean)
            }
            TrafficShape::Diurnal => {
                let step = i * DIURNAL_GAP_PERMILLE.len() / day % DIURNAL_GAP_PERMILLE.len();
                jittered(&mut rng, (mean * DIURNAL_GAP_PERMILLE[step] / 1000).max(1))
            }
            TrafficShape::Bursty => {
                if burst_left == 0 {
                    burst_left = burst_length(&mut rng);
                    jittered(&mut rng, mean * 6)
                } else {
                    burst_left -= 1;
                    jittered(&mut rng, (mean / 4).max(1))
                }
            }
        };
        tick += gap;

        let (item, extra_cost_ticks) = match config.shape {
            TrafficShape::HotShard => {
                // Three in four arrivals land on a shard-0 item.
                let id = if rng.gen_range(0..4u32) < 3 {
                    rng.gen_range(0..config.universe.div_ceil(shards)) * shards
                } else {
                    rng.gen_range(0..config.universe)
                };
                (id.min(config.universe - 1), 0)
            }
            TrafficShape::QueryOfDeath if i % DEATH_PERIOD == DEATH_PERIOD - 1 => {
                (0, mean * DEATH_COST_GAPS)
            }
            _ => (rng.gen_range(0..config.universe), 0),
        };
        trace.push(Arrival {
            at_tick: tick,
            item: ItemId(item),
            shard: shard_of(item, shards),
            extra_cost_ticks,
        });
    }
    trace
}

/// Tuning of one open-loop run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenLoopConfig {
    /// The serving runtime's tuning (deadline, cost model, breaker…).
    pub service: ServiceConfig,
    /// The adaptive controller's thresholds.
    pub admission: AdmissionConfig,
    /// `Some(discipline)` runs the adaptive controller; `None` disables
    /// admission entirely — the *twin* configuration the simulator
    /// compares against (unbounded queue, nothing ever shed).
    pub discipline: Option<AdmissionDiscipline>,
    /// Independent single-server shards (each owns a clock, breaker,
    /// budget slice, signal window, and controller).
    pub shards: usize,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        OpenLoopConfig {
            service: ServiceConfig::default(),
            admission: AdmissionConfig::default(),
            discipline: Some(AdmissionDiscipline::Faithful),
            shards: 2,
        }
    }
}

/// What the engine did with one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficDisposition {
    /// Served; latency is end-to-end (queueing included), and
    /// `deadline_met` judges that end-to-end latency against the SLO
    /// deadline — stricter than the in-service
    /// [`Answered::deadline_met`], which starts counting at dispatch.
    Answered {
        /// Shard-clock tick the response was ready at.
        completion_tick: u64,
        /// `completion_tick − at_tick`: queueing plus service.
        latency_ticks: u64,
        /// Whether the end-to-end latency met the SLO deadline.
        deadline_met: bool,
        /// The served answer and its audit trail.
        answer: Answered,
    },
    /// Refused by the adaptive controller.
    Shed(ShedReason),
}

/// One arrival's fate, in trace order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficOutcome {
    /// Position in the trace.
    pub index: usize,
    /// The queried item.
    pub item: ItemId,
    /// The shard the arrival was routed to.
    pub shard: usize,
    /// The arrival tick.
    pub at_tick: u64,
    /// What the engine did with it.
    pub disposition: TrafficDisposition,
}

/// Runs one trace through independent single-server shards with (or,
/// for the twin, without) adaptive admission.
///
/// This is the cluster engine on a dedicated topology: shard `s` alone
/// on node `s` ([`NodeId`](crate::ring::NodeId)`(s)` in the report),
/// replication 1, no rebalancing, faithful routing, and no node events.
/// Per arrival, in decision order: finished completions fold into the
/// shard's signal window; the controller decides on the current
/// [`LoadSignal`](crate::slo::LoadSignal); an admitted query idles the
/// shard clock forward to its arrival (if the server was free), then
/// runs the full degradation ladder of
/// [`serve_batch`](crate::service::serve_batch)'s serving kernel under
/// the same per-index seed derivations — so an open-loop answer is
/// byte-identical to the batch answer for the same index.
///
/// # Errors
///
/// Propagates hard configuration errors ([`LcaError`]).
///
/// # Panics
///
/// Panics if an arrival's `shard` is not below the engine's shard
/// count, `config.shards` (at least 1); build the trace with the same
/// count.
pub fn run_open_loop<O>(
    lca: &LcaKp,
    oracle: &O,
    shared_seed: &Seed,
    service_root: &Seed,
    arrivals: &[Arrival],
    config: &OpenLoopConfig,
) -> Result<ClusterTrafficReport, LcaError>
where
    O: ItemOracle + WeightedSampler,
{
    let shards = config.shards.max(1);
    let dedicated = ClusterTrafficConfig {
        nodes: shards,
        replication: 1,
        shards,
        vnodes: 1,
        service: config.service.clone(),
        admission: config.admission,
        discipline: config.discipline,
        rebalance: None,
        routing: RebalanceDiscipline::Faithful,
    };
    serve_traffic(
        lca,
        oracle,
        shared_seed,
        service_root,
        arrivals,
        &dedicated,
        RingView::dedicated(shards),
        shards,
        &[],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::{NodeId, RingEpoch};
    use lcakp_knapsack::iky::Epsilon;
    use lcakp_oracle::InstanceOracle;
    use lcakp_reproducible::SampleBudget;
    use lcakp_workloads::{Family, WorkloadSpec};

    fn traffic_config(shape: TrafficShape) -> TrafficConfig {
        TrafficConfig {
            shape,
            arrivals: 200,
            mean_gap_ticks: 64,
            universe: 24,
            shards: 2,
        }
    }

    #[test]
    fn shape_displays_are_stable() {
        assert_eq!(TrafficShape::Steady.to_string(), "steady");
        assert_eq!(TrafficShape::Diurnal.to_string(), "diurnal");
        assert_eq!(TrafficShape::Bursty.to_string(), "bursty");
        assert_eq!(TrafficShape::HotShard.to_string(), "hot-shard");
        assert_eq!(TrafficShape::QueryOfDeath.to_string(), "query-of-death");
    }

    #[test]
    fn traces_are_seed_deterministic_and_monotone() {
        let root = Seed::from_entropy_u64(17);
        for shape in TrafficShape::ALL {
            let config = traffic_config(shape);
            let first = generate_trace(&root, &config);
            let second = generate_trace(&root, &config);
            assert_eq!(first, second, "{shape} trace not replayable");
            assert_eq!(first.len(), config.arrivals);
            for pair in first.windows(2) {
                assert!(
                    pair[0].at_tick < pair[1].at_tick,
                    "{shape} ticks not increasing"
                );
            }
            for arrival in &first {
                assert!(arrival.item.0 < config.universe);
                assert_eq!(arrival.shard, arrival.item.0 % config.shards);
            }
        }
    }

    #[test]
    fn hot_shard_traces_skew_to_shard_zero() {
        let root = Seed::from_entropy_u64(18);
        let trace = generate_trace(&root, &traffic_config(TrafficShape::HotShard));
        let hot = trace.iter().filter(|a| a.shard == 0).count();
        assert!(
            hot * 10 >= trace.len() * 7,
            "only {hot}/{} arrivals on the hot shard",
            trace.len()
        );
    }

    #[test]
    fn query_of_death_recurs_with_extra_cost() {
        let root = Seed::from_entropy_u64(19);
        let config = traffic_config(TrafficShape::QueryOfDeath);
        let trace = generate_trace(&root, &config);
        let deaths: Vec<&Arrival> = trace.iter().filter(|a| a.extra_cost_ticks > 0).collect();
        assert_eq!(deaths.len(), config.arrivals / DEATH_PERIOD);
        for death in deaths {
            assert_eq!(death.item, ItemId(0));
            assert_eq!(
                death.extra_cost_ticks,
                config.mean_gap_ticks * DEATH_COST_GAPS
            );
        }
    }

    fn quick_lca() -> LcaKp {
        LcaKp::new(Epsilon::new(1, 3).unwrap())
            .unwrap()
            .with_budget(SampleBudget::Calibrated { factor: 0.01 })
    }

    #[test]
    fn open_loop_run_is_deterministic_and_accounts_every_arrival() {
        let norm = WorkloadSpec::new(Family::SmallDominated, 24, 5)
            .generate_normalized()
            .unwrap();
        let oracle = InstanceOracle::new(&norm);
        let lca = quick_lca();
        let root = Seed::from_entropy_u64(20);
        let trace = generate_trace(&root, &traffic_config(TrafficShape::Bursty));
        let config = OpenLoopConfig::default();
        let shared = Seed::from_entropy_u64(1);
        let service_root = Seed::from_entropy_u64(2);
        let first = run_open_loop(&lca, &oracle, &shared, &service_root, &trace, &config).unwrap();
        let second = run_open_loop(&lca, &oracle, &shared, &service_root, &trace, &config).unwrap();
        assert_eq!(first, second);
        assert_eq!(first.outcomes.len(), trace.len());
        assert_eq!(
            first.slo.answered + first.slo.shed,
            first.slo.offered,
            "every arrival must be answered or explicitly shed"
        );
        // The dedicated topology: every arrival lands on its shard's own
        // node, and nothing ever moves.
        for routed in &first.outcomes {
            assert_eq!(routed.node, Some(NodeId(routed.outcome.shard)));
        }
        assert_eq!(first.final_epoch, RingEpoch::BOOT);
        assert!(first.rebalance_audits.is_empty());
        assert!(first.shed_audits.is_empty());
        assert!(first.epoch_replays.is_empty());
    }

    #[test]
    fn twin_run_sheds_nothing() {
        let norm = WorkloadSpec::new(Family::SmallDominated, 24, 5)
            .generate_normalized()
            .unwrap();
        let oracle = InstanceOracle::new(&norm);
        let lca = quick_lca();
        let root = Seed::from_entropy_u64(21);
        let trace = generate_trace(&root, &traffic_config(TrafficShape::Steady));
        let config = OpenLoopConfig {
            discipline: None,
            ..OpenLoopConfig::default()
        };
        let report = run_open_loop(
            &lca,
            &oracle,
            &Seed::from_entropy_u64(1),
            &Seed::from_entropy_u64(2),
            &trace,
            &config,
        )
        .unwrap();
        assert_eq!(report.slo.shed, 0);
        assert_eq!(report.overload_sheds(), 0);
        assert!(report.transitions.is_empty());
    }
}
