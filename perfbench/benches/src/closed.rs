//! The closed loop: one client calling `query_with_audit_in` back to
//! back with one reused `QueryScratch`, plus the consistency audit and
//! the full-scan baseline.

use crate::measure::Permille;
use crate::probe::{now, ns_since};
use crate::world::World;
use lcakp_core::{FullScanLca, KnapsackLca, LcaAnswer, LcaError, QueryAudit, QueryScratch};
use lcakp_knapsack::solvers::fractional::fractional_upper_bound;
use lcakp_knapsack::ItemId;
use lcakp_oracle::{ItemOracle, WeightedSampler};
use rand_chacha::ChaCha12Rng;

/// Correctness gates: every failed check is kept (up to a cap) and fails
/// the run.
#[derive(Debug, Default)]
pub struct Gates {
    failures: Vec<String>,
    failed: u64,
}

impl Gates {
    /// Records a check; `what` is only formatted when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(what());
            }
        }
    }

    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.failed == 0
    }

    /// The first failures, for the report.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// One client: its sampling stream and its reused scratch.
#[derive(Debug)]
pub struct Client {
    /// The client's sampling stream (the fresh i.i.d. channel).
    pub rng: ChaCha12Rng,
    /// The client's reused sampling workspace.
    pub scratch: QueryScratch,
}

impl Client {
    /// A client drawing from `rng`.
    pub fn new(rng: ChaCha12Rng) -> Self {
        Client {
            rng,
            scratch: QueryScratch::default(),
        }
    }

    /// One timed query: the result and its wall time in ns.
    pub fn query<O>(
        &mut self,
        world: &World,
        oracle: &O,
        item: ItemId,
    ) -> (Result<(LcaAnswer, QueryAudit), LcaError>, u64)
    where
        O: ItemOracle + WeightedSampler,
    {
        let start = now();
        let result = world.lca.query_with_audit_in(
            oracle,
            &mut self.rng,
            item,
            &world.shared,
            &mut self.scratch,
        );
        (result, ns_since(start))
    }
}

/// What a run of queries produced.
#[derive(Debug, Default)]
pub struct QueryLog {
    /// Wall time of each answered query, µs.
    pub latencies_us: Vec<f64>,
    /// Queries issued.
    pub attempted: u64,
    /// Queries that errored or degraded below the full tier.
    pub failed: u64,
    /// Counted oracle accesses of each answered query.
    pub accesses: Vec<u64>,
    /// Each answered query's item and verdict.
    pub answers: Vec<(ItemId, bool)>,
}

impl QueryLog {
    /// A log with room for `queries` answers, so that it never
    /// reallocates: a reallocation's copy would make the peak RSS depend
    /// on how many queries fit in the run.
    pub fn with_capacity(queries: usize) -> Self {
        QueryLog {
            latencies_us: Vec::with_capacity(queries),
            accesses: Vec::with_capacity(queries),
            answers: Vec::with_capacity(queries),
            ..QueryLog::default()
        }
    }

    /// Records one query's outcome, gating its accesses on the LCA's
    /// certified worst case.
    pub fn record(
        &mut self,
        world: &World,
        item: ItemId,
        result: &Result<(LcaAnswer, QueryAudit), LcaError>,
        ns: u64,
        gates: &mut Gates,
    ) {
        self.attempted += 1;
        let Ok((answer, audit)) = result else {
            self.failed += 1;
            return;
        };
        let cap = world.lca.worst_case_accesses();
        gates.check(audit.budget_consumed <= cap, || {
            format!(
                "query of {item} used {} accesses > worst case {cap}",
                audit.budget_consumed
            )
        });
        if audit.degraded.is_some() {
            self.failed += 1;
            return;
        }
        self.latencies_us.push(ns as f64 / 1e3);
        self.accesses.push(audit.budget_consumed);
        self.answers.push((item, answer.include));
    }

    /// Queries answered at the full tier.
    pub fn answered(&self) -> u64 {
        self.answers.len() as u64
    }
}

/// Wall time of one throughput batch, ns: long enough to hold many
/// queries of every workload, short enough for a median over many.
const BATCH_NS: u64 = 1_000_000_000;

/// Runs the closed loop on `oracle` until `seconds` have passed and at
/// least `min_queries` were issued. Returns the log and the answered
/// queries per second of each consecutive one-second batch, so that a
/// stall shifts one batch rather than the whole run's rate.
pub fn run_loop<O>(
    world: &World,
    oracle: &O,
    client: &mut Client,
    items: &mut impl FnMut() -> ItemId,
    seconds: f64,
    min_queries: u64,
    gates: &mut Gates,
) -> (QueryLog, Vec<f64>)
where
    O: ItemOracle + WeightedSampler,
{
    let mut log = QueryLog::default();
    let mut rates = Vec::new();
    let start = now();
    let mut batch_start = start;
    let mut batch_answered = log.answered();
    loop {
        let elapsed = ns_since(start) as f64 / 1e9;
        if elapsed >= seconds && log.attempted >= min_queries {
            if rates.is_empty() {
                rates.push(log.answered() as f64 / elapsed);
            }
            return (log, rates);
        }
        let item = items();
        let (result, ns) = client.query(world, oracle, item);
        log.record(world, item, &result, ns, gates);
        let batch_ns = ns_since(batch_start);
        if batch_ns >= BATCH_NS {
            rates.push((log.answered() - batch_answered) as f64 / (batch_ns as f64 / 1e9));
            batch_start = now();
            batch_answered = log.answered();
        }
    }
}

/// The paper's consistency and value, measured against one independent
/// rule built under the same shared seed.
#[derive(Debug, Clone, Copy)]
pub struct Audit {
    /// Answers equal to the independent rule's, of answers given.
    pub consistency: Permille,
    /// The materialized selection's value, of the fractional optimum.
    pub value: Permille,
}

/// Builds an independent rule with `build_rule` on its own sampling
/// stream, materializes it, gates its feasibility, and compares every
/// answer against it.
///
/// # Errors
///
/// Propagates `build_rule` errors.
pub fn audit<O>(
    world: &World,
    oracle: &O,
    answers: &[(ItemId, bool)],
    gates: &mut Gates,
) -> Result<Audit, LcaError>
where
    O: ItemOracle + WeightedSampler,
{
    let mut rng = world.root.derive("perfbench/audit-sampling", 0).rng();
    let rule = world.lca.build_rule(oracle, &mut rng, &world.shared)?;
    let selection = rule.materialize(&world.norm);
    let instance = world.norm.as_instance();
    let weight = selection.weight(instance);
    gates.check(weight <= instance.capacity(), || {
        format!(
            "materialized selection weighs {weight} > capacity {}",
            instance.capacity()
        )
    });
    let agree = answers
        .iter()
        .filter(|&&(item, include)| selection.contains(item) == include)
        .count();
    Ok(Audit {
        consistency: Permille {
            part: agree as u64,
            base: answers.len() as u64,
        },
        value: Permille {
            part: selection.value(instance),
            base: fractional_upper_bound(instance),
        },
    })
}

/// Median wall time of `FullScanLca::query` on the same instance, µs:
/// at least one query, more while under half a second.
///
/// # Errors
///
/// Propagates oracle errors.
pub fn fullscan_us<O>(world: &World, oracle: &O) -> Result<f64, LcaError>
where
    O: ItemOracle + WeightedSampler,
{
    let mut rng = world.root.derive("perfbench/fullscan-sampling", 0).rng();
    let mut items = world.item_stream();
    let mut times = Vec::new();
    let start = now();
    while times.len() < 5 && (times.is_empty() || ns_since(start) < 500_000_000) {
        let item = items();
        let query_start = now();
        FullScanLca::new().query(oracle, &mut rng, item, &world.shared)?;
        times.push(ns_since(query_start) as f64 / 1e3);
    }
    Ok(crate::measure::median(&times))
}
