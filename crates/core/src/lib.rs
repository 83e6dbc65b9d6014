//! Local Computation Algorithms for Knapsack — the algorithmic
//! contribution of Canonne–Li–Umboh (PODC 2025), Section 4.
//!
//! The centrepiece is [`LcaKp`] (the paper's Algorithm 2): a *stateless*
//! query algorithm which, given
//!
//! * weighted-sampling and point-query access to a Knapsack instance
//!   ([`lcakp_oracle`]), and
//! * a shared read-only random seed,
//!
//! answers "is item `i` in the solution?" so that — with probability
//! `1 − ε` over the seed — *all* answers, across any number of queries
//! and any number of independent algorithm instances, are consistent with
//! one feasible `(1/2, 6ε)`-approximate solution (Theorem 4.1).
//!
//! Per query, `LCA-KP`:
//!
//! 1. samples `m = O(ε⁻⁴ log ε⁻¹)` items by profit to collect every
//!    *large* item (coupon collection, Lemma 4.2);
//! 2. estimates an equally partitioning sequence of efficiency thresholds
//!    over the *small* items via **reproducible quantiles**
//!    ([`lcakp_reproducible`]) — the step that makes independent runs
//!    agree;
//! 3. builds the reduced instance Ĩ ([`lcakp_knapsack::iky`]) and runs
//!    [`convert_greedy`] (Algorithm 3), the modified-greedy
//!    1/2-approximation in threshold form;
//! 4. answers the query from the resulting [`SolutionRule`]: large items
//!    by membership in the greedy prefix, small items by comparing their
//!    exact efficiency to the cut-off threshold, garbage items by "no"
//!    (Algorithm 2 lines 20–24 / Algorithm 4).
//!
//! Steps 1–3 up to Ĩ (lines 1–18) are written once, as `LCA-KP`'s stages
//! with the EPS schedule (`q`, `t`, `p_k`, the count `a`); the small-item
//! test is [`lcakp_knapsack::iky::SmallItemFilter`].
//!
//! The crate also provides the trivial baseline LCAs ([`EmptyLca`],
//! [`FullScanLca`]), a multi-run / multi-thread [`consistency`] auditor
//! (Definitions 2.3–2.4), full-solution assembly and approximation audits
//! ([`solution_audit`]), and the IKY12 constant-time *value*
//! approximation ([`iky_value`]) the algorithm descends from: lines 1–18
//! on the same stages with empirical quantiles, plus an exact solve of Ĩ.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod consistency;
mod convert_greedy;
mod error;
pub mod iky_value;
mod lca;
mod lca_kp;
pub mod solution_audit;
mod trivial;

pub use consistency::ConsistencyReport;
pub use convert_greedy::{convert_greedy, ConvertGreedyOutput};
pub use error::LcaError;
pub use lca::{DecisionReason, KnapsackLca, LcaAnswer, SolutionRule};
pub use lca_kp::{LcaKp, QuantileEngine, QueryScratch, ReproProfile, RetryPolicy};
pub use solution_audit::{DegradationReason, DegradationStats, QueryAudit, ResponseTier};
pub use trivial::{degraded_answer, EmptyLca, FullScanLca};
