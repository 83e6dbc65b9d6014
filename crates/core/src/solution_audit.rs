//! Approximation auditing: assemble an LCA's answers into a full
//! solution and measure it against the exact optimum — the machinery
//! behind experiment E5 (Theorem 4.1's `(1/2, 6ε)` guarantee) — plus the
//! per-query audit trail of the fault-degradation ladder (experiment
//! E13).

use crate::lca::KnapsackLca;
use crate::lca_kp::LcaKp;
use crate::LcaError;
use lcakp_knapsack::iky::Epsilon;
use lcakp_knapsack::{solvers, ItemId, NormalizedInstance, Selection};
use lcakp_oracle::{InstanceOracle, ItemOracle, OracleError, Seed, WeightedSampler};
use rand::Rng;
use std::fmt;

/// Why a query abandoned the sampled rule and fell back to the trivial
/// always-no answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DegradationReason {
    /// Transient oracle failures persisted past the retry policy.
    RetriesExhausted,
    /// The oracle reported detected corruption; re-reading the same
    /// damaged cell cannot help.
    CorruptionDetected,
    /// The oracle's hard access budget ran out mid-query.
    BudgetExhausted {
        /// Accesses spent when the refusal fired.
        spent: u64,
        /// The cap that was hit.
        cap: u64,
    },
    /// The query's deadline passed on the serving layer's virtual clock
    /// before the rule construction finished.
    DeadlineExceeded,
}

impl DegradationReason {
    /// Classifies an oracle failure; `None` for failures that must stay
    /// hard errors (an out-of-range id is a caller bug, not a fault).
    pub fn from_oracle(error: OracleError) -> Option<Self> {
        match error {
            OracleError::Transient { .. } => Some(DegradationReason::RetriesExhausted),
            OracleError::Corrupted { .. } => Some(DegradationReason::CorruptionDetected),
            OracleError::BudgetExhausted { spent, cap } => {
                Some(DegradationReason::BudgetExhausted { spent, cap })
            }
            OracleError::DeadlineExceeded { .. } => Some(DegradationReason::DeadlineExceeded),
            OracleError::OutOfRange { .. } => None,
            _ => None,
        }
    }

    /// Whether the serving layer may hope a later re-attempt of the whole
    /// query succeeds: true only for exhausted transient retries. Budget
    /// and deadline exhaustion are final for the query, and corruption
    /// re-reads the same damaged cell.
    pub fn is_reattemptable(&self) -> bool {
        matches!(self, DegradationReason::RetriesExhausted)
    }
}

impl fmt::Display for DegradationReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradationReason::RetriesExhausted => write!(f, "retries-exhausted"),
            DegradationReason::CorruptionDetected => write!(f, "corruption-detected"),
            DegradationReason::BudgetExhausted { spent, cap } => {
                write!(f, "budget-exhausted(spent={spent}, cap={cap})")
            }
            DegradationReason::DeadlineExceeded => write!(f, "deadline-exceeded"),
        }
    }
}

/// Which rung of the graceful-degradation ladder produced a response.
///
/// The ladder, from best to worst: the full `LCA-KP` sampled rule, a
/// cached rule reused across queries (one point query per answer, no
/// re-sampling — the "cached quantile" fast path), and the trivial
/// always-no rule (zero oracle accesses, consistent with ∅). A serving
/// layer records the tier on every response so availability numbers can
/// be decomposed by answer quality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[non_exhaustive]
pub enum ResponseTier {
    /// The full per-query `LCA-KP` rule construction (Theorem 4.1's
    /// `(1/2, 6ε)` guarantee applies).
    Full,
    /// A cached [`SolutionRule`](crate::SolutionRule) decided the answer
    /// with a single point query — still a feasible `(1/2, 6ε)` rule,
    /// but built from the cache stream rather than this query's own.
    CachedRule,
    /// The trivial always-no rule: feasible, consistent with ∅, no
    /// guarantee beyond that.
    Trivial,
}

impl fmt::Display for ResponseTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResponseTier::Full => write!(f, "full"),
            ResponseTier::CachedRule => write!(f, "cached-rule"),
            ResponseTier::Trivial => write!(f, "trivial"),
        }
    }
}

/// Per-query audit record produced by [`LcaKp::query_with_audit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryAudit {
    /// `Some(reason)` iff the query degraded to the trivial fallback.
    pub degraded: Option<DegradationReason>,
    /// Transient-fault retries spent during the query.
    pub retries_used: u64,
    /// Counted oracle accesses (queries + samples) the query consumed.
    pub budget_consumed: u64,
}

/// Aggregate of [`QueryAudit`]s over an assembled run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DegradationStats {
    /// Queries issued.
    pub queries: u64,
    /// Queries that fell back to the trivial rule.
    pub degraded_queries: u64,
    /// Degradations caused by exhausted retries.
    pub retries_exhausted: u64,
    /// Degradations caused by detected corruption.
    pub corruption_detected: u64,
    /// Degradations caused by an exhausted access budget.
    pub budget_exhausted: u64,
    /// Degradations caused by a missed deadline.
    pub deadline_exceeded: u64,
    /// Total transient-fault retries spent.
    pub retries_used: u64,
    /// Total counted oracle accesses consumed.
    pub budget_consumed: u64,
}

impl DegradationStats {
    /// Folds one per-query audit into the aggregate.
    pub fn absorb(&mut self, audit: &QueryAudit) {
        self.queries += 1;
        self.retries_used += audit.retries_used;
        self.budget_consumed += audit.budget_consumed;
        if let Some(reason) = audit.degraded {
            self.degraded_queries += 1;
            match reason {
                DegradationReason::RetriesExhausted => self.retries_exhausted += 1,
                DegradationReason::CorruptionDetected => self.corruption_detected += 1,
                DegradationReason::BudgetExhausted { .. } => self.budget_exhausted += 1,
                DegradationReason::DeadlineExceeded => self.deadline_exceeded += 1,
            }
        }
    }

    /// Fraction of queries that degraded (0.0 for an empty run).
    pub fn degradation_frequency(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.degraded_queries as f64 / self.queries as f64
        }
    }
}

impl fmt::Display for DegradationStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} degraded (retry={} corrupt={} budget={} deadline={}), {} retries, {} accesses",
            self.degraded_queries,
            self.queries,
            self.retries_exhausted,
            self.corruption_detected,
            self.budget_exhausted,
            self.deadline_exceeded,
            self.retries_used,
            self.budget_consumed
        )
    }
}

/// Assembles a solution by independent audited per-item queries against
/// an arbitrary (possibly fault-injecting or budgeted) oracle, keeping
/// the degradation trail.
///
/// Degraded queries contribute the trivial "no" answer — the selection
/// stays feasible whatever the fault pattern, it just loses value.
///
/// # Errors
///
/// Propagates hard errors (invalid ids, impossible sample budgets);
/// oracle faults degrade instead of erroring.
pub fn assemble_audited<O, R>(
    lca: &LcaKp,
    oracle: &O,
    rng: &mut R,
    seed: &Seed,
) -> Result<(Selection, DegradationStats), LcaError>
where
    O: ItemOracle + WeightedSampler,
    R: Rng + ?Sized,
{
    let mut stats = DegradationStats::default();
    let mut selection = Selection::new(oracle.len());
    for index in 0..oracle.len() {
        let (answer, audit) = lca.query_with_audit(oracle, rng, ItemId(index), seed)?;
        stats.absorb(&audit);
        if answer.include {
            selection.insert(ItemId(index));
        }
    }
    Ok((selection, stats))
}

/// An assembled solution measured against the exact optimum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxAudit {
    /// Value of the assembled solution (raw units).
    pub value: u64,
    /// Exact optimum (raw units).
    pub optimum: u64,
    /// Whether the assembled solution fits the capacity.
    pub feasible: bool,
    /// `value / optimum` (1.0 when the optimum is 0).
    pub ratio: f64,
    /// Normalized additive slack `(OPT/2 − value)/P`, clamped at 0 —
    /// the quantity Theorem 4.1 bounds by 6ε.
    pub half_slack: f64,
}

impl ApproxAudit {
    /// Whether the audit satisfies the `(1/2, 6ε)` bound of Theorem 4.1:
    /// `value ≥ OPT/2 − 6ε` in normalized units, and feasibility.
    pub fn satisfies_theorem(&self, eps: Epsilon) -> bool {
        self.feasible && self.half_slack <= 6.0 * eps.as_f64() + 1e-9
    }
}

impl fmt::Display for ApproxAudit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "value={} optimum={} feasible={} ratio={:.4} half_slack={:.4}",
            self.value, self.optimum, self.feasible, self.ratio, self.half_slack
        )
    }
}

/// Measures a selection against a known optimum.
pub fn audit_selection(
    norm: &NormalizedInstance,
    selection: &Selection,
    optimum: u64,
) -> ApproxAudit {
    let instance = norm.as_instance();
    let value = selection.value(instance);
    let feasible = selection.is_feasible(instance);
    let total = norm.total_profit() as f64;
    let half_slack = ((optimum as f64 / 2.0 - value as f64) / total).max(0.0);
    ApproxAudit {
        value,
        optimum,
        feasible,
        ratio: if optimum == 0 {
            1.0
        } else {
            value as f64 / optimum as f64
        },
        half_slack,
    }
}

/// Computes the exact optimum with the cheapest exact solver that
/// accepts the instance (weight DP, then profit DP, then branch and
/// bound).
///
/// # Errors
///
/// Propagates the last solver's error if every solver refuses.
pub fn exact_optimum(norm: &NormalizedInstance) -> Result<u64, LcaError> {
    let instance = norm.as_instance();
    if let Ok(outcome) = solvers::dp_by_weight(instance) {
        return Ok(outcome.value);
    }
    if let Ok(outcome) = solvers::dp_by_profit(instance) {
        return Ok(outcome.value);
    }
    Ok(solvers::branch_and_bound(instance)?.value)
}

/// Assembles a solution by independent per-item LCA queries (the honest
/// usage) and audits it against the exact optimum.
///
/// # Errors
///
/// Propagates query and solver errors.
pub fn assemble_and_audit<L, R>(
    lca: &L,
    norm: &NormalizedInstance,
    rng: &mut R,
    seed: &Seed,
) -> Result<ApproxAudit, LcaError>
where
    L: KnapsackLca,
    R: Rng + ?Sized,
{
    let oracle = InstanceOracle::new(norm);
    let selection = lca.assemble(&oracle, rng, seed)?;
    let optimum = exact_optimum(norm)?;
    Ok(audit_selection(norm, &selection, optimum))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trivial::{EmptyLca, FullScanLca};
    use lcakp_knapsack::Instance;

    fn fixture() -> NormalizedInstance {
        NormalizedInstance::new(Instance::from_pairs([(10, 5), (7, 3), (2, 2), (1, 1)], 6).unwrap())
            .unwrap()
    }

    #[test]
    fn audit_of_exact_solution_has_ratio_one() {
        let norm = fixture();
        let outcome = solvers::dp_by_weight(norm.as_instance()).unwrap();
        let audit = audit_selection(&norm, &outcome.selection, outcome.value);
        assert_eq!(audit.ratio, 1.0);
        assert!(audit.feasible);
        assert_eq!(audit.half_slack, 0.0);
    }

    #[test]
    fn empty_lca_fails_the_theorem_bound_at_small_eps() {
        let norm = fixture();
        let mut rng = Seed::from_entropy_u64(1).rng();
        let audit = assemble_and_audit(
            &EmptyLca::new(),
            &norm,
            &mut rng,
            &Seed::from_entropy_u64(2),
        )
        .unwrap();
        assert_eq!(audit.value, 0);
        // OPT = 11; half-slack = 5.5/20 = 0.275 > 6ε at ε = 1/100.
        let eps = Epsilon::new(1, 100).unwrap();
        assert!(!audit.satisfies_theorem(eps));
    }

    #[test]
    fn full_scan_satisfies_half_approximation() {
        let norm = fixture();
        let mut rng = Seed::from_entropy_u64(1).rng();
        let audit = assemble_and_audit(
            &FullScanLca::new(),
            &norm,
            &mut rng,
            &Seed::from_entropy_u64(2),
        )
        .unwrap();
        assert!(audit.feasible);
        assert!(audit.ratio >= 0.5);
        assert!(audit.satisfies_theorem(Epsilon::new(1, 100).unwrap()));
    }

    #[test]
    fn exact_optimum_falls_back_across_solvers() {
        let norm = fixture();
        // OPT = item 0 (10) + item 3 (1) at weight 6.
        assert_eq!(exact_optimum(&norm).unwrap(), 11);
    }

    #[test]
    fn zero_optimum_ratio_is_one() {
        let norm =
            NormalizedInstance::new(Instance::from_pairs([(1, 10), (1, 10)], 5).unwrap()).unwrap();
        let selection = Selection::new(2);
        let audit = audit_selection(&norm, &selection, 0);
        assert_eq!(audit.ratio, 1.0);
    }
}
