//! The world every simulator builds on.
//!
//! All four simulators (E15–E18) run the same instance family and the
//! same LCA against a service tuned the same way; they differ only in
//! the label prefix their seeds derive under (`sim/`, `sim/cluster-`,
//! `sim/slo-`, `sim/rebalance-`), which keeps their random streams
//! independent. [`WorldBase`] is that shared part. The three
//! simulators on the arrival engine (E16–E18) additionally share
//! [`TrafficWorld`]: the calibrated per-query service cost, the SLO
//! deadline and admission controller scaled to it, the schedule →
//! arrival-trace mapping, and the replica byte-identity check.
//!
//! Callers derive the seeds themselves, from literal labels, so
//! `lcakp-lint` can check every label for workspace-uniqueness.

use crate::calibrate::calibrate_cost;
use crate::invariants::Violation;
use crate::schedule::SimEvent;
use lcakp_core::{LcaError, LcaKp};
use lcakp_knapsack::iky::Epsilon;
use lcakp_knapsack::{ItemId, NormalizedInstance};
use lcakp_oracle::{InstanceOracle, Seed};
use lcakp_reproducible::SampleBudget;
use lcakp_service::{
    generate_trace, replay_shard_traffic, seed_to_u64, AdmissionConfig, Answered, Arrival,
    BreakerConfig, ClusterTrafficReport, ServiceConfig, TrafficConfig, TrafficDisposition,
};
use lcakp_workloads::{Family, WorkloadSpec};

/// The breaker every simulated service runs: tight enough that a
/// corruption burst trips it, short enough that it recovers within a
/// case.
pub(crate) const BREAKER: BreakerConfig = BreakerConfig {
    failure_threshold: 2,
    cooldown_ticks: 6,
    half_open_probes: 1,
};

/// The instance, the LCA, and the seeds one simulation runs against.
#[derive(Debug)]
pub(crate) struct WorldBase {
    pub(crate) norm: NormalizedInstance,
    pub(crate) lca: LcaKp,
    pub(crate) shared_seed: Seed,
    pub(crate) service_root: Seed,
}

impl WorldBase {
    /// Builds a small dominated instance of `n` items and an ε = 1/3
    /// LCA from the simulator's `[workload, shared, serving]` seeds.
    pub(crate) fn build(n: usize, seeds: [Seed; 3]) -> Result<WorldBase, LcaError> {
        let [workload, shared_seed, service_root] = seeds;
        let norm = WorkloadSpec::new(Family::SmallDominated, n, seed_to_u64(&workload))
            .generate_normalized()
            .map_err(LcaError::from)?;
        let lca =
            LcaKp::new(Epsilon::new(1, 3)?)?.with_budget(SampleBudget::Calibrated { factor: 0.01 });
        Ok(WorldBase {
            norm,
            lca,
            shared_seed,
            service_root,
        })
    }

    /// The batch that queries every item once.
    pub(crate) fn batch(&self) -> Vec<ItemId> {
        (0..self.norm.len()).map(ItemId).collect()
    }
}

/// The calibrated world of the traffic simulators (E16–E18).
/// Everything here depends only on the seeds and the shape knobs — the
/// schedule is the entire difference between two cases.
#[derive(Debug)]
pub(crate) struct TrafficWorld {
    pub(crate) base: WorldBase,
    trace_root: Seed,
    /// Single-worker service with the SLO deadline set.
    pub(crate) service: ServiceConfig,
    pub(crate) admission: AdmissionConfig,
    shards: usize,
    arrivals: usize,
    /// Measured mean service ticks per query (the unit every schedule
    /// gap is permille of).
    pub(crate) cost: u64,
}

impl TrafficWorld {
    /// Calibrates the per-query service cost by timing a back-to-back
    /// probe run, then scales the SLO deadline and the admission
    /// hysteresis window to it.
    pub(crate) fn build(
        base: WorldBase,
        trace_root: Seed,
        shards: usize,
        arrivals: usize,
    ) -> Result<TrafficWorld, LcaError> {
        let mut service = ServiceConfig {
            workers: 1,
            breaker: BREAKER,
            ..ServiceConfig::default()
        };
        let cost = calibrate_cost(
            &base.lca,
            &InstanceOracle::new(&base.norm),
            &base.shared_seed,
            &base.service_root,
            &trace_root,
            &service,
            base.norm.len(),
        )?;

        // An end-to-end deadline of 8 service costs: unqueued queries
        // meet it easily; a queue of ~7 starts missing.
        service.deadline_ticks = cost * 8;
        let admission = AdmissionConfig {
            enter_queue_depth: 6,
            exit_queue_depth: 2,
            enter_miss_permille: 250,
            exit_miss_permille: 60,
            // The hysteresis window in trace terms: ~8 mean arrivals at
            // capacity. The faithful controller dwells this long
            // between flips; the planted bug ignores it.
            hysteresis_ticks: cost * 8,
            shed_permille: 400,
            queue_depth_normal: 12,
            queue_depth_overloaded: 4,
        };
        Ok(TrafficWorld {
            base,
            trace_root,
            service,
            admission,
            shards,
            arrivals,
            cost,
        })
    }

    /// Maps a schedule onto its arrival trace: the traffic event picks
    /// the shape and scales the mean gap by the calibrated cost; each
    /// overload surge then compresses the gaps inside its window. An
    /// event list with no traffic event maps to the empty trace.
    pub(crate) fn build_trace(&self, events: &[SimEvent]) -> Vec<Arrival> {
        let Some((shape, gap_permille)) = events.iter().find_map(|event| match event {
            SimEvent::Traffic {
                shape,
                gap_permille,
            } => Some((*shape, *gap_permille)),
            _ => None,
        }) else {
            return Vec::new();
        };
        let mut trace = generate_trace(
            &self.trace_root,
            &TrafficConfig {
                shape,
                arrivals: self.arrivals,
                mean_gap_ticks: (self.cost * u64::from(gap_permille) / 1000).max(1),
                universe: self.base.norm.len(),
                shards: self.shards,
            },
        );
        for event in events {
            if let SimEvent::OverloadSurge {
                start_permille,
                len_permille,
                gap_div,
            } = event
            {
                apply_surge(&mut trace, *start_permille, *len_permille, *gap_div);
            }
        }
        trace
    }

    /// Replays every shard's full subsequence of `trace` standalone: what
    /// each shard admits when nothing is shed. A world whose trace is
    /// fixed computes this once and hands it to every case's
    /// [`replica_mismatches`](Self::replica_mismatches).
    pub(crate) fn fault_free_replays(&self, trace: &[Arrival]) -> Vec<ShardReplay> {
        (0..self.shards)
            .map(|shard| {
                let admitted: Vec<(usize, Arrival)> = trace
                    .iter()
                    .copied()
                    .enumerate()
                    .filter(|(_, arrival)| arrival.shard == shard)
                    .collect();
                let answers = self.replay(&admitted, shard);
                ShardReplay { admitted, answers }
            })
            .collect()
    }

    /// One shard's admitted arrivals replayed on a fresh standalone core,
    /// or `None` when the replay cannot even run.
    fn replay(
        &self,
        admitted: &[(usize, Arrival)],
        shard: usize,
    ) -> Option<Vec<(usize, Answered)>> {
        let base = &self.base;
        replay_shard_traffic(
            &base.lca,
            &InstanceOracle::new(&base.norm),
            &base.shared_seed,
            &base.service_root,
            admitted,
            shard,
            &self.service,
        )
        .ok()
    }

    /// Replica byte-identity: every shard's admitted subsequence of
    /// `trace` is replayed standalone — what any replica computes from
    /// the shared seeds alone — and every answer `report` acknowledged
    /// must match it byte-for-byte, however often the shard failed over
    /// or migrated. A shard whose admitted arrivals equal its entry in
    /// `cached` (replays of the same trace, possibly empty) reuses that
    /// replay instead of running its own. Reports each shard's first
    /// diverging answer.
    pub(crate) fn replica_mismatches(
        &self,
        report: &ClusterTrafficReport,
        trace: &[Arrival],
        cached: &[ShardReplay],
    ) -> Vec<Violation> {
        let mut violations = Vec::new();
        for shard in 0..self.shards {
            let answered = report.outcomes.iter().filter_map(|routed| {
                let outcome = &routed.outcome;
                match outcome.disposition {
                    TrafficDisposition::Answered { answer, .. } if outcome.shard == shard => {
                        Some((outcome.index, answer))
                    }
                    _ => None,
                }
            });
            let admitted: Vec<(usize, Arrival)> = answered
                .clone()
                .map(|(index, _)| (index, trace[index]))
                .collect();
            let fresh;
            let replayed = match cached.get(shard) {
                Some(hit) if hit.admitted == admitted => &hit.answers,
                _ => {
                    fresh = self.replay(&admitted, shard);
                    &fresh
                }
            };
            // A replay that cannot even run is a world bug, not a
            // byte-identity violation of this schedule.
            let Some(replayed) = replayed else {
                continue;
            };
            if let Some((index, _)) = answered
                .zip(replayed)
                .find(|(served, replayed)| served != *replayed)
                .map(|(served, _)| served)
            {
                violations.push(Violation::ReplicaAnswerMismatch { shard, index });
            }
        }
        violations
    }
}

/// One shard's admitted arrivals and their standalone replay (`None`
/// when the replay could not run).
#[derive(Debug)]
pub(crate) struct ShardReplay {
    admitted: Vec<(usize, Arrival)>,
    answers: Option<Vec<(usize, Answered)>>,
}

/// Compresses the gaps of every arrival whose (pre-surge) tick falls in
/// the window `[start, start+len)` — both permille of the trace horizon
/// — by `gap_div`, then rebuilds the cumulative ticks so they stay
/// strictly increasing.
fn apply_surge(trace: &mut [Arrival], start_permille: u32, len_permille: u32, gap_div: u32) {
    let div = u64::from(gap_div.max(1));
    let horizon = trace.last().map_or(0, |arrival| arrival.at_tick);
    let start = horizon * u64::from(start_permille) / 1000;
    let end = start + horizon * u64::from(len_permille) / 1000;
    let mut previous_original = 0u64;
    let mut previous_new = 0u64;
    for arrival in trace.iter_mut() {
        let mut gap = arrival.at_tick - previous_original;
        if arrival.at_tick >= start && arrival.at_tick < end {
            gap /= div;
        }
        previous_original = arrival.at_tick;
        previous_new += gap.max(1);
        arrival.at_tick = previous_new;
    }
}
