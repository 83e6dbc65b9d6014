//! `LCA-KP` — Algorithm 2 of the paper (Theorem 4.1).

use crate::convert_greedy::convert_greedy;
use crate::lca::{KnapsackLca, LcaAnswer, SolutionRule};
use crate::solution_audit::{DegradationReason, QueryAudit};
use crate::trivial::degraded_answer;
use crate::LcaError;
use lcakp_knapsack::iky::{EpsSequence, Epsilon, TildeInstance};
use lcakp_knapsack::{Item, ItemId};
use lcakp_oracle::{ItemOracle, Seed, WeightedSampler};
use lcakp_reproducible::{naive_quantile, Domain, QuantileScratch, ReproParams, SampleBudget};
use rand::Rng;
use std::fmt;

/// Which quantile algorithm supplies the EPS thresholds — the design
/// choice the paper motivates in Section 4.1 and this workspace ablates
/// in experiment E11.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantileEngine {
    /// The reproducible quantile of Algorithm 1 (the paper's choice).
    Reproducible,
    /// The raw empirical quantile — *breaks consistency*; ablation only.
    Naive,
}

/// The (τ, ρ, β) parameterization handed to the reproducible quantiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReproProfile {
    /// The paper's parameters: τ = ε²/5, ρ = ε²/18, β = ρ/2 (Algorithm 2
    /// line 5). With `SampleBudget::Theoretical` this reproduces the
    /// `(1/ε)^{O(log* n)}` bound verbatim — and astronomically many
    /// samples at practical ε.
    Paper,
    /// Relaxed parameters for runnable experiments (`DESIGN.md` §3):
    /// the accuracy stays at the paper's τ = ε²/5 — the feasibility
    /// argument of Lemma 4.7 genuinely needs the ε² there — but ρ and β
    /// are explicit instead of the paper's ε²-scaled values. The
    /// consistency actually achieved is *measured* by experiment E6
    /// rather than guaranteed.
    Relaxed {
        /// Reproducibility target per quantile call.
        rho: f64,
        /// Failure probability per quantile call.
        beta: f64,
    },
}

/// Reusable per-worker sampling workspace for [`LcaKp`] queries.
///
/// Algorithm 2 buffers two sample sets per query: the distinct large
/// items of R (line 2) and the efficiency keys of Q (line 7). The EPS
/// thresholds (lines 9–10) then run up to ⌈1/ε⌉ rQuantiles over those
/// keys, which share one sort and the buffers of a [`QuantileScratch`].
/// A serving loop can hand the same scratch to every query: the buffers
/// keep their high-water capacity, and a threshold skips its shuffle when
/// its map's key (shared seed, key count) repeats — on every query after
/// the first when no sampled item is large, almost never when some are.
/// A fresh (empty) scratch gives byte-identical answers: the buffers are
/// cleared at each use, and a map whose key differs is rebuilt.
#[derive(Debug, Default)]
pub struct QueryScratch {
    /// Distinct large items sampled from R (Algorithm 2 lines 1–3).
    large: Vec<(ItemId, Item)>,
    /// Small-item efficiency keys sampled from Q (lines 6–8).
    efficiencies: Vec<u128>,
    /// The sorted keys and rQuantile's working buffers (lines 9–10).
    quantiles: QuantileScratch,
}

/// How `LCA-KP` reacts to transient oracle faults: each failing access
/// is retried up to `max_retries` times (immediately — the fault model
/// is per-access, so there is nothing to back off from, and determinism
/// matters more than pacing). Non-transient failures are never retried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries allowed per individual oracle access.
    pub max_retries: u32,
}

impl RetryPolicy {
    /// No retries: the first transient fault already degrades the query.
    pub fn none() -> Self {
        RetryPolicy { max_retries: 0 }
    }
}

impl Default for RetryPolicy {
    /// Three retries per access — enough that a per-access fault rate of
    /// 10% leaves a per-access failure probability of 10⁻⁴.
    fn default() -> Self {
        RetryPolicy { max_retries: 3 }
    }
}

/// The paper's `LCA-KP` (Algorithm 2): a stateless LCA answering
/// according to a feasible `(1/2, 6ε)`-approximate Knapsack solution,
/// given weighted sampling access.
///
/// ```
/// use lcakp_core::{KnapsackLca, LcaKp};
/// use lcakp_knapsack::iky::Epsilon;
/// use lcakp_knapsack::{Instance, ItemId, NormalizedInstance};
/// use lcakp_oracle::{InstanceOracle, Seed};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let norm = NormalizedInstance::new(Instance::from_pairs(
///     (1..=100u64).map(|i| (1 + i % 7, 1 + i % 5)),
///     40,
/// )?)?;
/// let oracle = InstanceOracle::new(&norm);
/// let lca = LcaKp::new(Epsilon::new(1, 4)?)?;
/// let seed = Seed::from_entropy_u64(7);
/// let mut rng = Seed::from_entropy_u64(99).rng();
/// let answer = lca.query(&oracle, &mut rng, ItemId(3), &seed)?;
/// println!("item 3: {answer}");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LcaKp {
    eps: Epsilon,
    budget: SampleBudget,
    engine: QuantileEngine,
    profile: ReproProfile,
    max_samples_per_query: u64,
    retry: RetryPolicy,
}

impl LcaKp {
    /// Creates an `LCA-KP` with the default runnable configuration:
    /// reproducible quantiles, relaxed profile (ρ = 0.1, β = 0.05),
    /// calibrated budget with factor 0.05.
    ///
    /// # Errors
    ///
    /// Returns [`LcaError::Knapsack`] if ε is invalid (propagated from
    /// [`Epsilon`] use; `eps` itself is already validated).
    pub fn new(eps: Epsilon) -> Result<Self, LcaError> {
        Ok(LcaKp {
            eps,
            budget: SampleBudget::Calibrated { factor: 0.05 },
            engine: QuantileEngine::Reproducible,
            profile: ReproProfile::Relaxed {
                rho: 0.1,
                beta: 0.05,
            },
            max_samples_per_query: 20_000_000,
            retry: RetryPolicy::default(),
        })
    }

    /// The paper's exact parameterization (Algorithm 2 line 5) with the
    /// theoretical sample-complexity formulas. **Warning**: at practical
    /// ε this demands astronomically many samples and every query will
    /// return [`LcaError::SampleBudgetTooLarge`]; it exists so that
    /// experiment E4 can *report* the theoretical curve.
    pub fn with_paper_parameters(eps: Epsilon) -> Self {
        LcaKp {
            eps,
            budget: SampleBudget::Theoretical,
            engine: QuantileEngine::Reproducible,
            profile: ReproProfile::Paper,
            max_samples_per_query: 20_000_000,
            retry: RetryPolicy::default(),
        }
    }

    /// Overrides the sample-budget policy.
    pub fn with_budget(mut self, budget: SampleBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Overrides the quantile engine (ablation hook).
    pub fn with_engine(mut self, engine: QuantileEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Overrides the reproducibility profile.
    pub fn with_profile(mut self, profile: ReproProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Overrides the per-query sample safety cap.
    pub fn with_max_samples_per_query(mut self, cap: u64) -> Self {
        self.max_samples_per_query = cap;
        self
    }

    /// Overrides the transient-fault retry policy.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The retry policy in effect.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// The configured ε.
    pub fn eps(&self) -> Epsilon {
        self.eps
    }

    /// The (τ, ρ, β) triple in effect.
    pub fn repro_params(&self) -> ReproParams {
        let eps = self.eps.as_f64();
        match self.profile {
            ReproProfile::Paper => {
                let rho = eps * eps / 18.0;
                ReproParams {
                    rho,
                    tau: eps * eps / 5.0,
                    beta: rho / 2.0,
                    domain_bits: 64,
                }
            }
            ReproProfile::Relaxed { rho, beta } => ReproParams {
                rho,
                tau: eps * eps / 5.0,
                beta,
                domain_bits: 64,
            },
        }
    }

    /// Coupon-collection sample count `m` (Algorithm 2 line 1 /
    /// Lemma 4.2 amplified to failure probability ε/3): the base
    /// `⌈6δ⁻¹(ln δ⁻¹ + 1)⌉` at δ = ε², repeated `⌈log₆(3/ε)⌉` times.
    pub fn coupon_samples(&self) -> u64 {
        let eps = self.eps.as_f64();
        let delta = eps * eps;
        let base = (6.0 / delta) * ((1.0 / delta).ln() + 1.0);
        let repeats = ((3.0 / eps).ln() / 6f64.ln()).ceil().max(1.0);
        (base * repeats).ceil() as u64
    }

    /// Upper bound on the counted oracle accesses one query can consume:
    /// coupon samples, plus the worst-case EPS-estimation samples (the
    /// residual fraction is at least ε whenever estimation runs at all),
    /// plus the final point query — all multiplied by `1 + max_retries`
    /// since every transient retry re-charges the access on decorated
    /// oracles.
    ///
    /// A serving layer compares this against a budget's `remaining()` to
    /// load-shed *before* dispatching a query that could only die
    /// mid-flight.
    pub fn worst_case_accesses(&self) -> u64 {
        let per_attempt = self
            .coupon_samples()
            .saturating_add(self.eps_estimation_samples_cap())
            .saturating_add(1);
        per_attempt.saturating_mul(1 + u64::from(self.retry.max_retries))
    }

    /// Worst-case number of weighted samples one EPS estimation draws:
    /// `⌈1.5·n_rq/ε⌉`, since the residual fraction passed to
    /// `estimate_eps` is at least ε whenever estimation runs at all.
    /// This is the runtime value the `eps-estimation-samples` symbol in
    /// the lint's probe-budget certificate is bound to when the
    /// certificate is cross-checked against counting oracles.
    pub fn eps_estimation_samples_cap(&self) -> u64 {
        let params = self.repro_params();
        let n_rq = self.budget.rquantile_samples(&params);
        ((1.5 * n_rq as f64) / self.eps.as_f64()).ceil() as u64
    }

    /// Builds the per-query [`SolutionRule`] (Algorithm 2 lines 1–19).
    /// Exposed so that experiments can inspect the rule itself; `query`
    /// is `build_rule` + [`SolutionRule::decide`].
    ///
    /// # Errors
    ///
    /// Returns [`LcaError::SampleBudgetTooLarge`] when the configuration
    /// requires more samples per query than the safety cap.
    pub fn build_rule<O, R>(
        &self,
        oracle: &O,
        rng: &mut R,
        seed: &Seed,
    ) -> Result<SolutionRule, LcaError>
    where
        O: ItemOracle + WeightedSampler,
        R: Rng + ?Sized,
    {
        let mut scratch = QueryScratch::default();
        self.build_rule_in(oracle, rng, seed, &mut scratch)
    }

    /// [`build_rule`](Self::build_rule) with the sampling workspace in a
    /// caller-owned [`QueryScratch`], so a serving loop reuses the same
    /// buffers query after query instead of allocating per query.
    ///
    /// # Errors
    ///
    /// Returns [`LcaError::SampleBudgetTooLarge`] when the configuration
    /// requires more samples per query than the safety cap.
    pub fn build_rule_in<O, R>(
        &self,
        oracle: &O,
        rng: &mut R,
        seed: &Seed,
        scratch: &mut QueryScratch,
    ) -> Result<SolutionRule, LcaError>
    where
        O: ItemOracle + WeightedSampler,
        R: Rng + ?Sized,
    {
        let mut retries = 0u64;
        self.build_rule_counted(oracle, rng, seed, &mut retries, scratch)
    }

    /// Draws `count` weighted samples into `deliver` through the oracle's
    /// batch call, with bounded retry of transient faults: every sample
    /// slot gets `1 + max_retries` attempts, and an exhausted slot
    /// surfaces as [`LcaError::Oracle`].
    ///
    /// The `try_sample_weighted` calls are those of a per-slot retry
    /// loop: a failed batch reports how many samples it delivered, the
    /// next batch starts at the failed slot, and the attempt count
    /// carries over only while that slot is still the one failing.
    fn sample_many_with_retry<O, R, F>(
        &self,
        oracle: &O,
        rng: &mut R,
        count: u64,
        retries: &mut u64,
        mut deliver: F,
    ) -> Result<(), LcaError>
    where
        O: WeightedSampler,
        R: Rng + ?Sized,
        F: FnMut(ItemId, Item),
    {
        #[cfg(test)]
        if per_slot_reference::enabled() {
            return per_slot_reference::sample_each(self, oracle, rng, count, retries, deliver);
        }
        let mut remaining = count;
        let mut attempts = 0u32;
        // lcakp-lint: loop-bound(batch-count * retry-attempts) reason="every iteration but the last spends one retry, and each of the count slots admits at most max_retries of them"
        while remaining > 0 {
            // lcakp-lint: probe-total(batch-count * retry-attempts) reason="amortized over the loop: each slot is drawn at most 1 + max_retries times across all batches, so the batches together make at most count * retry-attempts single draws"
            let outcome = oracle.try_sample_weighted_many(rng, remaining, &mut deliver);
            let Err((delivered, error)) = outcome else {
                return Ok(());
            };
            remaining -= delivered;
            if delivered > 0 {
                attempts = 0;
            }
            if !error.is_retryable() || attempts >= self.retry.max_retries {
                return Err(LcaError::Oracle(error));
            }
            attempts += 1;
            *retries += 1;
        }
        Ok(())
    }

    /// One point query of item `id` with bounded retry of transient
    /// faults: at most `1 + max_retries` `try_query` calls under the
    /// configured [`RetryPolicy`], each retry counted into `retries`.
    /// The rule's own final point query and the service's cached-rule
    /// tier both go through it.
    ///
    /// # Errors
    ///
    /// [`LcaError::Oracle`] with the last fault once it is not
    /// retryable or the retries are spent.
    // lcakp-lint: probe-budget(retry-attempts) reason="one counted try_query per loop iteration, and the retry loop below is bounded by retry-attempts = 1 + max_retries"
    pub fn query_with_retry<O>(
        &self,
        oracle: &O,
        id: ItemId,
        retries: &mut u64,
    ) -> Result<Item, LcaError>
    where
        O: ItemOracle,
    {
        let mut attempts = 0u32;
        // lcakp-lint: loop-bound(retry-attempts) reason="every non-returning iteration increments attempts, and the retryable guard admits at most max_retries of them, so the body runs at most 1 + max_retries times"
        loop {
            match oracle.try_query(id) {
                Ok(item) => return Ok(item),
                Err(error) if error.is_retryable() && attempts < self.retry.max_retries => {
                    attempts += 1;
                    *retries += 1;
                }
                Err(error) => return Err(LcaError::Oracle(error)),
            }
        }
    }

    /// [`build_rule`](Self::build_rule) with the retry counter threaded
    /// through, so audited queries can report retries spent.
    fn build_rule_counted<O, R>(
        &self,
        oracle: &O,
        rng: &mut R,
        seed: &Seed,
        retries: &mut u64,
        scratch: &mut QueryScratch,
    ) -> Result<SolutionRule, LcaError>
    where
        O: ItemOracle + WeightedSampler,
        R: Rng + ?Sized,
    {
        let norms = oracle.norms();
        let small = SmallItemFilter::new(self.eps, norms.total_profit);
        let total_profit = norms.total_profit as u128;

        // ---- Line 1–3: sample R, keep distinct large items. ----
        let m = self.coupon_samples();
        if m > self.max_samples_per_query {
            return Err(LcaError::SampleBudgetTooLarge {
                needed: m,
                cap: self.max_samples_per_query,
            });
        }
        scratch.large.clear();
        // lcakp-lint: batch-count(coupon-samples) reason="m = coupon_samples() exactly; the symbolic name keeps the certificate readable across call sites"
        self.sample_many_with_retry(oracle, rng, m, retries, |id, item| {
            if !small.is_small(item.profit) {
                scratch.large.push((id, item));
            }
        })?;
        scratch.large.sort_by_key(|&(id, _)| id);
        scratch.large.dedup_by_key(|&mut (id, _)| id);
        let large = &scratch.large;
        let large_profit: u128 = large.iter().map(|&(_, item)| item.profit as u128).sum();

        // ---- Lines 4–17: estimate the EPS when enough profit mass sits
        // outside the large items. 1 − p(L(Ĩ)) ≥ ε ⇔ (P − S)·den ≥ num·P.
        let residual = total_profit - large_profit;
        let seq = if residual * self.eps.den() as u128 >= self.eps.num() as u128 * total_profit {
            self.estimate_eps(
                oracle,
                rng,
                seed,
                residual as f64 / total_profit as f64,
                retries,
                scratch,
            )?
        } else {
            EpsSequence::empty()
        };

        // ---- Line 18: construct Ĩ. ----
        let large = &scratch.large;
        let tilde = TildeInstance::build(norms, oracle.capacity(), self.eps, large, &seq);

        // ---- Line 19: CONVERT-GREEDY. ----
        let out = convert_greedy(&tilde, &seq);
        Ok(SolutionRule {
            eps: self.eps,
            capacity: oracle.capacity(),
            // lcakp-lint: allow(D011) reason="the selected-large set is the rule's output and is bounded by the ε-sized tilde instance, not by n"
            large_selected: out.large_selected.into_iter().collect(),
            e_small: out.e_small,
            singleton: out.singleton,
        })
    }

    /// Lines 5–15: sample Q, estimate the quantile thresholds, apply the
    /// `t' = t − 1` adjustment. The reproducible engine sorts the keys
    /// once and serves all t thresholds from that sort.
    fn estimate_eps<O, R>(
        &self,
        oracle: &O,
        rng: &mut R,
        seed: &Seed,
        residual_fraction: f64,
        retries: &mut u64,
        scratch: &mut QueryScratch,
    ) -> Result<EpsSequence, LcaError>
    where
        O: ItemOracle + WeightedSampler,
        R: Rng + ?Sized,
    {
        let eps = self.eps.as_f64();
        let q = (eps + eps * eps / 2.0) / residual_fraction;
        let t = (1.0 / q).floor() as usize;
        if t == 0 {
            return Ok(EpsSequence::empty());
        }
        let params = self.repro_params();
        let n_rq = self.budget.rquantile_samples(&params);
        let a = ((1.5 * n_rq as f64) / residual_fraction).ceil() as u64;
        if a > self.max_samples_per_query {
            return Err(LcaError::SampleBudgetTooLarge {
                needed: a,
                cap: self.max_samples_per_query,
            });
        }

        // Sample Q, drop large items, keep efficiency keys (line 6–8).
        let norms = oracle.norms();
        let small = SmallItemFilter::new(self.eps, norms.total_profit);
        scratch.efficiencies.clear();
        scratch.efficiencies.reserve(a as usize);
        // lcakp-lint: batch-count(eps-estimation-samples) reason="a = eps_estimation_samples_cap() at most; the symbolic name keeps the certificate readable across call sites"
        self.sample_many_with_retry(oracle, rng, a, retries, |id, item| {
            if small.is_small(item.profit) {
                scratch
                    .efficiencies
                    .push(norms.tie_broken_efficiency_key(id, item) as u128);
            }
        })?;
        if scratch.efficiencies.is_empty() {
            // Degenerate: no small/garbage mass was seen; proceed with no
            // thresholds (the paper's failure event, probability ≤ ε/3).
            return Ok(EpsSequence::empty());
        }

        // Lines 9–10: ẽ_k = rQuantile(E, 1 − kq), made non-increasing.
        let domain = Domain::new(64).map_err(LcaError::from)?;
        let mut sorted = match self.engine {
            QuantileEngine::Reproducible => {
                Some(scratch.quantiles.sort(&scratch.efficiencies, domain)?)
            }
            QuantileEngine::Naive => None,
        };
        // lcakp-lint: allow(D011) reason="the t ≤ ⌈1/ε⌉ threshold keys are the query's output: EpsSequence must own them, so they cannot live in the scratch"
        let mut keys: Vec<u64> = Vec::with_capacity(t);
        let mut previous = u64::MAX;
        // lcakp-lint: loop-bound(eps-thresholds) reason="one rQuantile per EPS threshold: t ≤ ⌈1/ε⌉ by construction (Algorithm 2 line 9)"
        for k in 1..=t {
            let p = (1.0 - k as f64 * q).max(0.0);
            let value = match sorted.as_mut() {
                Some(sorted) => sorted.rquantile(
                    p,
                    params.tau.min(0.5),
                    &seed.derive("lca-kp/rquantile", k as u64),
                )?,
                None => naive_quantile(&scratch.efficiencies, p),
            };
            // Saturating u128 → u64 without unwrap: quantiles above the
            // key domain clamp to the maximum key.
            let key = (value.min(u128::from(u64::MAX)) as u64).min(previous);
            // lcakp-lint: allow(D011) reason="appends one of the t ≤ ⌈1/ε⌉ owned threshold keys"
            keys.push(key);
            previous = key;
        }

        // Lines 11–14: drop ẽ_t if it fell below ε² (exact comparison:
        // key/2³² < ε² ⇔ key·den² < num²·2³²).
        let mut seq = EpsSequence::new(keys).map_err(LcaError::from)?;
        if let Some(&last) = seq.keys().last() {
            let num = self.eps.num() as u128;
            let den = self.eps.den() as u128;
            if (last as u128) * den * den < num * num * (1u128 << 32) {
                seq.truncate_last();
            }
        }
        Ok(seq)
    }
}

impl LcaKp {
    /// [`KnapsackLca::query`] with the degradation ladder's audit trail.
    ///
    /// The ladder, in order:
    ///
    /// 1. every oracle access retries transient faults up to the
    ///    [`RetryPolicy`];
    /// 2. a persistent failure (retries exhausted, detected corruption,
    ///    or an exhausted access budget) abandons the sampled rule and
    ///    answers from the trivial always-no rule of
    ///    [`EmptyLca`](crate::EmptyLca) — feasible and trivially
    ///    consistent — tagged
    ///    [`DegradedFallback`](crate::DecisionReason::DegradedFallback)
    ///    with the [`DegradationReason`] recorded in the audit.
    ///
    /// Non-oracle errors (out-of-range ids, impossible sample budgets)
    /// stay hard errors: they are configuration bugs, not faults.
    ///
    /// # Errors
    ///
    /// Returns [`LcaError::ItemOutOfRange`] /
    /// [`LcaError::SampleBudgetTooLarge`] as [`KnapsackLca::query`] does;
    /// oracle faults degrade instead of erroring.
    // lcakp-lint: probe-budget(retry-attempts * (coupon-samples + eps-estimation-samples + 1)) reason="matches worst_case_accesses(): per attempt, coupon_samples() weighted samples + eps_estimation_samples_cap() estimation samples + one final point query, re-charged across 1 + max_retries attempts"
    pub fn query_with_audit<O, R>(
        &self,
        oracle: &O,
        rng: &mut R,
        item: ItemId,
        seed: &Seed,
    ) -> Result<(LcaAnswer, QueryAudit), LcaError>
    where
        O: ItemOracle + WeightedSampler,
        R: Rng + ?Sized,
    {
        let mut scratch = QueryScratch::default();
        self.query_with_audit_in(oracle, rng, item, seed, &mut scratch)
    }

    /// [`query_with_audit`](Self::query_with_audit) with the sampling
    /// workspace in a caller-owned [`QueryScratch`]: the serving runtime
    /// hands each worker's scratch to every query it serves, so steady
    /// state allocates nothing per query. Answers are byte-identical to
    /// the scratch-free variant.
    ///
    /// # Errors
    ///
    /// As [`query_with_audit`](Self::query_with_audit).
    // lcakp-lint: probe-budget(retry-attempts * (coupon-samples + eps-estimation-samples + 1)) reason="matches worst_case_accesses(): per attempt, coupon_samples() weighted samples + eps_estimation_samples_cap() estimation samples + one final point query, re-charged across 1 + max_retries attempts"
    pub fn query_with_audit_in<O, R>(
        &self,
        oracle: &O,
        rng: &mut R,
        item: ItemId,
        seed: &Seed,
        scratch: &mut QueryScratch,
    ) -> Result<(LcaAnswer, QueryAudit), LcaError>
    where
        O: ItemOracle + WeightedSampler,
        R: Rng + ?Sized,
    {
        if item.index() >= oracle.len() {
            return Err(LcaError::ItemOutOfRange {
                index: item.index(),
                len: oracle.len(),
            });
        }
        let before = oracle.stats();
        let mut retries = 0u64;
        let outcome = self
            .build_rule_counted(oracle, rng, seed, &mut retries, scratch)
            .and_then(|rule| {
                let queried = self.query_with_retry(oracle, item, &mut retries)?;
                Ok(rule.decide(oracle.norms(), item, queried))
            });
        let budget_consumed = oracle.stats().since(before).total();
        match outcome {
            Ok(answer) => Ok((
                answer,
                QueryAudit {
                    degraded: None,
                    retries_used: retries,
                    budget_consumed,
                },
            )),
            Err(LcaError::Oracle(error)) => match DegradationReason::from_oracle(error) {
                Some(reason) => Ok((
                    degraded_answer(),
                    QueryAudit {
                        degraded: Some(reason),
                        retries_used: retries,
                        budget_consumed,
                    },
                )),
                // Not a fault (e.g. out-of-range id from the oracle):
                // surface it.
                None => Err(LcaError::Oracle(error)),
            },
            Err(other) => Err(other),
        }
    }
}

impl KnapsackLca for LcaKp {
    // lcakp-lint: probe-budget(retry-attempts * (coupon-samples + eps-estimation-samples + 1)) reason="matches worst_case_accesses(): per attempt, coupon_samples() weighted samples + eps_estimation_samples_cap() estimation samples + one final point query, re-charged across 1 + max_retries attempts"
    fn query<O, R>(
        &self,
        oracle: &O,
        rng: &mut R,
        item: ItemId,
        seed: &Seed,
    ) -> Result<LcaAnswer, LcaError>
    where
        O: ItemOracle + WeightedSampler,
        R: Rng + ?Sized,
    {
        self.query_with_audit(oracle, rng, item, seed)
            .map(|(answer, _)| answer)
    }
}

impl fmt::Display for LcaKp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LCA-KP(ε={}, engine={:?}, profile={:?}, budget={:?})",
            self.eps, self.engine, self.profile, self.budget
        )
    }
}

impl QueryScratch {
    /// How many rQuantile arrival-group maps this scratch has built (see
    /// [`QuantileScratch::map_builds`]). Under one shared seed a
    /// threshold reuses its map only when the query kept as many
    /// efficiency keys as the last query that reached it.
    pub fn quantile_map_builds(&self) -> u64 {
        self.quantiles.map_builds()
    }
}

/// Algorithm 2's small-item test `p/P ≤ ε²` (lines 2 and 7) for one
/// query's total profit `P`, as one exact `u128` cross-multiplication:
/// `p · den² ≤ num² · P` for ε = `num/den`.
///
/// Neither side overflows. `p, P < 2⁶⁴` and `num ≤ den ≤
/// Epsilon::MAX_DEN < 2¹⁶`, so `den², num² < 2³²` and both products are
/// below `2⁹⁶ < 2¹²⁸`. Both sides are exact integers, so the test agrees
/// with `Rat`'s 256-bit comparison of `p/P` and `num²/den²` on every
/// input.
#[derive(Debug, Clone, Copy)]
struct SmallItemFilter {
    /// `den²`.
    den_sq: u128,
    /// `num² · P`.
    bound: u128,
}

impl SmallItemFilter {
    fn new(eps: Epsilon, total_profit: u64) -> Self {
        let (num, den) = (u128::from(eps.num()), u128::from(eps.den()));
        SmallItemFilter {
            den_sq: den * den,
            bound: num * num * u128::from(total_profit),
        }
    }

    /// Whether an item of profit `profit` is small: `profit/P ≤ ε²`.
    fn is_small(self, profit: u64) -> bool {
        u128::from(profit) * self.den_sq <= self.bound
    }
}

/// The per-slot retry loop that drew LCA-KP's samples before the batch
/// call, kept as the reference the batched path is tested against: a
/// test turns it on for its own thread and runs the same queries both
/// ways.
#[cfg(test)]
mod per_slot_reference {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        static ENABLED: Cell<bool> = const { Cell::new(false) };
    }

    pub(super) fn enabled() -> bool {
        ENABLED.with(Cell::get)
    }

    /// Runs `body` with every `sample_many_with_retry` on this thread
    /// replaced by the per-slot loop.
    pub(super) fn run<T>(body: impl FnOnce() -> T) -> T {
        ENABLED.with(|flag| flag.set(true));
        let out = body();
        ENABLED.with(|flag| flag.set(false));
        out
    }

    /// One weighted sample with bounded retry of transient faults.
    fn sample_with_retry<O, R>(
        lca: &LcaKp,
        oracle: &O,
        rng: &mut R,
        retries: &mut u64,
    ) -> Result<(ItemId, Item), LcaError>
    where
        O: WeightedSampler,
        R: Rng + ?Sized,
    {
        let mut attempts = 0u32;
        loop {
            match oracle.try_sample_weighted(rng) {
                Ok(sample) => return Ok(sample),
                Err(error) if error.is_retryable() && attempts < lca.retry.max_retries => {
                    attempts += 1;
                    *retries += 1;
                }
                Err(error) => return Err(LcaError::Oracle(error)),
            }
        }
    }

    pub(super) fn sample_each<O, R, F>(
        lca: &LcaKp,
        oracle: &O,
        rng: &mut R,
        count: u64,
        retries: &mut u64,
        mut deliver: F,
    ) -> Result<(), LcaError>
    where
        O: WeightedSampler,
        R: Rng + ?Sized,
        F: FnMut(ItemId, Item),
    {
        for _ in 0..count {
            let (id, item) = sample_with_retry(lca, oracle, rng, retries)?;
            deliver(id, item);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcakp_knapsack::{Instance, NormalizedInstance, Selection};
    use lcakp_oracle::InstanceOracle;
    use lcakp_workloads::{Family, WorkloadSpec};

    fn quick_lca(eps: Epsilon) -> LcaKp {
        // Small budgets so unit tests stay fast; statistical quality is
        // covered by the integration tests and experiments.
        LcaKp::new(eps)
            .unwrap()
            .with_budget(SampleBudget::Calibrated { factor: 0.01 })
    }

    #[test]
    fn paper_parameters_are_derived_correctly() {
        let eps = Epsilon::new(1, 10).unwrap();
        let lca = LcaKp::with_paper_parameters(eps);
        let params = lca.repro_params();
        assert!((params.tau - 0.002).abs() < 1e-12); // ε²/5 at ε = 0.1
        assert!((params.rho - 0.01 / 18.0).abs() < 1e-12); // ε²/18
        assert!((params.beta - params.rho / 2.0).abs() < 1e-15);
    }

    #[test]
    fn theoretical_budget_errors_gracefully() {
        let eps = Epsilon::new(1, 10).unwrap();
        let lca = LcaKp::with_paper_parameters(eps);
        // All-small instance: the EPS-estimation path (the expensive one)
        // must run, and the theoretical budget at ε = 1/10 is astronomic.
        let norm = NormalizedInstance::new(
            Instance::from_pairs(std::iter::repeat_n((1u64, 1u64), 200), 50).unwrap(),
        )
        .unwrap();
        let oracle = InstanceOracle::new(&norm);
        let mut rng = Seed::from_entropy_u64(0).rng();
        let seed = Seed::from_entropy_u64(1);
        let result = lca.query(&oracle, &mut rng, ItemId(0), &seed);
        assert!(matches!(result, Err(LcaError::SampleBudgetTooLarge { .. })));
    }

    #[test]
    fn coupon_samples_grow_with_one_over_eps() {
        let small = quick_lca(Epsilon::new(1, 2).unwrap()).coupon_samples();
        let large = quick_lca(Epsilon::new(1, 8).unwrap()).coupon_samples();
        assert!(large > small);
    }

    #[test]
    fn query_answers_and_is_stateless() {
        let eps = Epsilon::new(1, 3).unwrap();
        let lca = quick_lca(eps);
        let spec = WorkloadSpec::new(
            Family::LargeDominated {
                heavy: 3,
                heavy_profit: 5_000,
            },
            200,
            5,
        );
        let norm = spec.generate_normalized().unwrap();
        let oracle = InstanceOracle::new(&norm);
        let seed = Seed::from_entropy_u64(11);
        let mut rng = Seed::from_entropy_u64(12).rng();
        for index in [0usize, 1, 50, 199] {
            let answer = lca.query(&oracle, &mut rng, ItemId(index), &seed).unwrap();
            let _ = answer.include;
        }
    }

    #[test]
    fn rule_is_identical_for_identical_randomness() {
        let eps = Epsilon::new(1, 3).unwrap();
        let lca = quick_lca(eps);
        let spec = WorkloadSpec::new(Family::SmallDominated, 300, 6);
        let norm = spec.generate_normalized().unwrap();
        let oracle = InstanceOracle::new(&norm);
        let seed = Seed::from_entropy_u64(21);
        // Same sampling stream AND same seed → byte-identical rule.
        let rule_a = lca
            .build_rule(&oracle, &mut Seed::from_entropy_u64(5).rng(), &seed)
            .unwrap();
        let rule_b = lca
            .build_rule(&oracle, &mut Seed::from_entropy_u64(5).rng(), &seed)
            .unwrap();
        assert_eq!(rule_a, rule_b);
    }

    #[test]
    fn assembled_solution_is_feasible() {
        let eps = Epsilon::new(1, 3).unwrap();
        let lca = quick_lca(eps);
        for spec in [
            WorkloadSpec::new(Family::SmallDominated, 150, 1),
            WorkloadSpec::new(
                Family::LargeDominated {
                    heavy: 4,
                    heavy_profit: 4_000,
                },
                150,
                2,
            ),
            WorkloadSpec::new(
                Family::GarbageMix {
                    garbage_percent: 20,
                },
                150,
                3,
            ),
        ] {
            let norm = spec.generate_normalized().unwrap();
            let oracle = InstanceOracle::new(&norm);
            let seed = Seed::from_entropy_u64(31);
            let mut rng = Seed::from_entropy_u64(32).rng();
            // Materialize from one rule (MAPPING-GREEDY): feasibility is
            // Lemma 4.7.
            let rule = lca.build_rule(&oracle, &mut rng, &seed).unwrap();
            let selection: Selection = rule.materialize(&norm);
            assert!(
                selection.is_feasible(norm.as_instance()),
                "{spec}: rule {rule} produced infeasible selection"
            );
        }
    }

    #[test]
    fn garbage_items_are_rejected() {
        let eps = Epsilon::new(1, 5).unwrap();
        let lca = quick_lca(eps);
        let spec = WorkloadSpec::new(
            Family::GarbageMix {
                garbage_percent: 30,
            },
            400,
            9,
        );
        let norm = spec.generate_normalized().unwrap();
        let oracle = InstanceOracle::new(&norm);
        let seed = Seed::from_entropy_u64(41);
        let mut rng = Seed::from_entropy_u64(42).rng();
        let partition = lcakp_knapsack::iky::Partition::compute(&norm, eps);
        assert!(!partition.garbage().is_empty());
        for &id in partition.garbage().iter().take(5) {
            let answer = lca.query(&oracle, &mut rng, id, &seed).unwrap();
            assert!(!answer.include, "garbage item {id} was included");
        }
    }

    #[test]
    fn out_of_range_query_errors() {
        let eps = Epsilon::new(1, 3).unwrap();
        let lca = quick_lca(eps);
        let norm =
            NormalizedInstance::new(Instance::from_pairs([(5, 1), (3, 1)], 1).unwrap()).unwrap();
        let oracle = InstanceOracle::new(&norm);
        let mut rng = Seed::from_entropy_u64(1).rng();
        assert!(lca
            .query(&oracle, &mut rng, ItemId(2), &Seed::from_entropy_u64(0))
            .is_err());
    }

    #[test]
    fn display_mentions_engine() {
        let lca = quick_lca(Epsilon::new(1, 4).unwrap());
        assert!(lca.to_string().contains("Reproducible"));
    }

    #[test]
    fn query_degrades_to_trivial_rule_under_budget_exhaustion() {
        use crate::lca::DecisionReason;
        use crate::solution_audit::DegradationReason;
        use lcakp_oracle::BudgetedOracle;

        let eps = Epsilon::new(1, 3).unwrap();
        let lca = quick_lca(eps);
        let spec = WorkloadSpec::new(Family::SmallDominated, 200, 4);
        let norm = spec.generate_normalized().unwrap();
        let inner = InstanceOracle::new(&norm);
        // A cap of 10 is far below the coupon-sampling budget, so the
        // rule construction must hit the wall and degrade.
        let oracle = BudgetedOracle::new(&inner, 10);
        let seed = Seed::from_entropy_u64(51);
        let mut rng = Seed::from_entropy_u64(52).rng();
        let (answer, audit) = lca
            .query_with_audit(&oracle, &mut rng, ItemId(0), &seed)
            .unwrap();
        assert!(!answer.include, "degraded answer must be the trivial no");
        assert_eq!(answer.reason, DecisionReason::DegradedFallback);
        assert_eq!(
            audit.degraded,
            Some(DegradationReason::BudgetExhausted { spent: 10, cap: 10 })
        );
        assert_eq!(audit.budget_consumed, 10, "exactly the cap was spent");

        // The infallible trait path degrades identically instead of
        // panicking or erroring.
        let answer = lca.query(&oracle, &mut rng, ItemId(0), &seed).unwrap();
        assert_eq!(answer.reason, DecisionReason::DegradedFallback);
    }

    #[test]
    fn transient_faults_are_retried_and_answers_match_fault_free() {
        use lcakp_oracle::{FaultPlan, FaultyOracle};

        let eps = Epsilon::new(1, 3).unwrap();
        let lca = quick_lca(eps).with_retry_policy(RetryPolicy { max_retries: 8 });
        let spec = WorkloadSpec::new(Family::SmallDominated, 200, 4);
        let norm = spec.generate_normalized().unwrap();
        let seed = Seed::from_entropy_u64(61);

        let clean = InstanceOracle::new(&norm);
        let (clean_answer, clean_audit) = lca
            .query_with_audit(
                &clean,
                &mut Seed::from_entropy_u64(62).rng(),
                ItemId(5),
                &seed,
            )
            .unwrap();

        // Retrying a transient fault repeats the access without touching
        // the caller's RNG stream, so the answer is unchanged.
        let inner = InstanceOracle::new(&norm);
        let faulty = FaultyOracle::new(
            &inner,
            FaultPlan::transient(0.05),
            Seed::from_entropy_u64(63),
        );
        let (answer, audit) = lca
            .query_with_audit(
                &faulty,
                &mut Seed::from_entropy_u64(62).rng(),
                ItemId(5),
                &seed,
            )
            .unwrap();
        assert_eq!(
            audit.degraded, None,
            "5% transients with 8 retries never persist"
        );
        assert!(audit.retries_used > 0, "faults must actually have fired");
        assert_eq!(answer, clean_answer);
        assert_eq!(clean_audit.retries_used, 0);
    }

    #[test]
    fn retry_policy_none_degrades_on_first_transient() {
        use crate::lca::DecisionReason;
        use crate::solution_audit::DegradationReason;
        use lcakp_oracle::{FaultPlan, FaultyOracle};

        let eps = Epsilon::new(1, 3).unwrap();
        let lca = quick_lca(eps).with_retry_policy(RetryPolicy::none());
        let spec = WorkloadSpec::new(Family::SmallDominated, 200, 4);
        let norm = spec.generate_normalized().unwrap();
        let inner = InstanceOracle::new(&norm);
        let faulty = FaultyOracle::new(
            &inner,
            FaultPlan::transient(0.5),
            Seed::from_entropy_u64(71),
        );
        let seed = Seed::from_entropy_u64(72);
        let mut rng = Seed::from_entropy_u64(73).rng();
        let (answer, audit) = lca
            .query_with_audit(&faulty, &mut rng, ItemId(0), &seed)
            .unwrap();
        assert_eq!(answer.reason, DecisionReason::DegradedFallback);
        assert_eq!(audit.degraded, Some(DegradationReason::RetriesExhausted));
        assert_eq!(audit.retries_used, 0);
    }

    /// One audited query per item through `oracle`, plus where the
    /// caller's RNG ended up and what the oracle counted.
    fn audited_run<O>(
        lca: &LcaKp,
        oracle: &O,
        items: &[usize],
    ) -> (
        Vec<(LcaAnswer, QueryAudit)>,
        u64,
        lcakp_oracle::AccessSnapshot,
    )
    where
        O: ItemOracle + WeightedSampler,
    {
        let seed = Seed::from_entropy_u64(81);
        let mut rng = Seed::from_entropy_u64(82).rng();
        let mut scratch = QueryScratch::default();
        let answers = items
            .iter()
            .map(|&index| {
                lca.query_with_audit_in(oracle, &mut rng, ItemId(index), &seed, &mut scratch)
                    .unwrap()
            })
            .collect();
        (answers, rng.gen::<u64>(), oracle.stats())
    }

    fn small_and_large_instances() -> Vec<NormalizedInstance> {
        [
            WorkloadSpec::new(Family::SmallDominated, 240, 7),
            WorkloadSpec::new(
                Family::LargeDominated {
                    heavy: 3,
                    heavy_profit: 6_000,
                },
                240,
                8,
            ),
        ]
        .iter()
        .map(|spec| spec.generate_normalized().unwrap())
        .collect()
    }

    #[test]
    fn batched_sampling_matches_the_per_slot_loop_under_transient_faults() {
        use lcakp_oracle::{FaultPlan, FaultyOracle};

        let items = [0usize, 17, 101, 239];
        for norm in small_and_large_instances() {
            // Rate 0.3 with 2 retries exhausts some slots (degraded
            // queries); rate 0.05 with 3 retries recovers every one.
            for (rate, max_retries) in [(0.05, 3), (0.3, 2), (0.3, 0)] {
                let lca = quick_lca(Epsilon::new(1, 3).unwrap())
                    .with_retry_policy(RetryPolicy { max_retries });
                let run = |reference: bool| {
                    let inner = InstanceOracle::new(&norm);
                    let faulty = FaultyOracle::new(
                        &inner,
                        FaultPlan::transient(rate),
                        Seed::from_entropy_u64(83),
                    );
                    let out = if reference {
                        per_slot_reference::run(|| audited_run(&lca, &faulty, &items))
                    } else {
                        audited_run(&lca, &faulty, &items)
                    };
                    (out, faulty.fault_report())
                };
                let (batched, batched_faults) = run(false);
                let (reference, reference_faults) = run(true);
                assert_eq!(batched, reference, "rate {rate}, {max_retries} retries");
                assert_eq!(batched_faults, reference_faults);
                assert!(batched_faults.transient_faults > 0, "faults must fire");
                if max_retries == 0 {
                    assert!(batched.0.iter().all(|(_, audit)| audit.degraded.is_some()));
                }
            }
        }
    }

    #[test]
    fn batched_sampling_matches_the_per_slot_loop_when_the_budget_runs_out() {
        use lcakp_oracle::BudgetedOracle;

        let lca = quick_lca(Epsilon::new(1, 3).unwrap());
        let m = lca.coupon_samples();
        let items = [3usize, 40, 200];
        for norm in small_and_large_instances() {
            // Caps inside coupon sampling, at its end, inside the
            // estimation, and past a whole query.
            for cap in [0, 10, m, m + 1, m + 500, 3 * m + 7, 50 * m] {
                let run = |reference: bool| {
                    let inner = InstanceOracle::new(&norm);
                    let budgeted = BudgetedOracle::new(&inner, cap);
                    if reference {
                        per_slot_reference::run(|| audited_run(&lca, &budgeted, &items))
                    } else {
                        audited_run(&lca, &budgeted, &items)
                    }
                };
                assert_eq!(run(false), run(true), "cap {cap}");
            }
        }
    }

    #[test]
    fn batched_instance_oracle_matches_the_per_slot_loop() {
        // The bare oracle takes the two-phase override; the reference
        // draws one `try_sample_weighted` at a time.
        let lca = quick_lca(Epsilon::new(1, 4).unwrap());
        for norm in small_and_large_instances() {
            let items = [1usize, 77, 150];
            let batched = audited_run(&lca, &InstanceOracle::new(&norm), &items);
            let reference =
                per_slot_reference::run(|| audited_run(&lca, &InstanceOracle::new(&norm), &items));
            assert_eq!(batched, reference);
            assert!(batched.0.iter().all(|(_, audit)| audit.degraded.is_none()));
        }
    }

    /// The `u128` small-item test agrees with `Rat`'s exact comparison
    /// at the boundary `profit · den² = num² · P` and one either side of
    /// it, and at `u64::MAX` profits and totals.
    #[test]
    fn small_item_filter_matches_rat_at_the_boundary() {
        use lcakp_knapsack::Rat;
        let max = Epsilon::MAX_DEN;
        for (num, den) in [
            (1, 1),
            (1, 4),
            (1, 6),
            (3, 7),
            (1, max),
            (max - 1, max),
            (max, max),
        ] {
            let eps = Epsilon::new(num, den).unwrap();
            let agrees = |profit: u64, total: u64| {
                let filter = SmallItemFilter::new(eps, total);
                let exact = Rat::new(u128::from(profit), u128::from(total)) <= eps.squared();
                assert_eq!(
                    filter.is_small(profit),
                    exact,
                    "ε = {eps}, p = {profit}, P = {total}"
                );
            };
            // P = den² · m puts the boundary at the integer profit num² · m.
            for m in [1u64, 5, 1 << 20, u64::MAX / (den * den)] {
                let total = den * den * m;
                let boundary = num * num * m;
                for profit in [boundary - 1, boundary, boundary.saturating_add(1)] {
                    agrees(profit, total);
                }
            }
            // The largest totals and profits, around ⌊num² · P / den²⌋.
            for total in [u64::MAX, u64::MAX - 1] {
                let floor = u128::from(num * num) * u128::from(total) / u128::from(den * den);
                let floor = u64::try_from(floor).unwrap();
                for profit in [
                    floor.saturating_sub(1),
                    floor,
                    floor.saturating_add(1),
                    u64::MAX,
                    0,
                ] {
                    agrees(profit, total);
                }
            }
        }
    }
}
