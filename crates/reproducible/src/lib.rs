//! Reproducible statistics, after Impagliazzo, Lei, Pitassi and Sorrell
//! ("Reproducibility in Learning", STOC 2022) — the consistency engine of
//! the paper's `LCA-KP` algorithm.
//!
//! A randomized algorithm `A` with sample access to a distribution `D` is
//! **ρ-reproducible** (Definition 2.5 of the paper) if two runs on
//! *independent fresh samples* but the *same internal randomness* return
//! the identical output with probability at least `1 − ρ`. The paper uses
//! a reproducible approximate median ([ILPS22, Theorem 4.2]) generalized
//! to arbitrary quantiles (its Algorithm 1 / Theorem 4.5) to make the
//! sampling-based efficiency thresholds of `LCA-KP` consistent across
//! queries.
//!
//! # What is implemented
//!
//! * [`rmedian`] — a reproducible τ-approximate median over a finite
//!   ordered domain `[0, 2^d)`. The implementation is the *shifted-grid*
//!   construction described in `DESIGN.md` §3: the output is snapped to a
//!   randomly offset grid whose scale is itself selected by a recursive
//!   reproducible-median call over the exponentially smaller domain of
//!   bit-scales `[0, d]` — the `2^d → d` compression that gives the
//!   `log* |X|` recursion depth of [ILPS22]. A gap-descent refinement
//!   (with a shared random threshold) guarantees the τ-accuracy contract
//!   even near heavy atoms.
//! * [`rquantile`] — Algorithm 1 of the paper: reduce the `p`-quantile to
//!   a median by padding the sample with `(1−p)·n` copies of `−∞` and
//!   `p·n` copies of `+∞` over an extended domain.
//! * [`QuantileScratch`] / [`SampleKeys`] / [`SortedSample`] — write a
//!   sample's keys into reusable buffers, sort them once there, as
//!   `(value, position)` records, and serve many quantiles and medians
//!   over that sort; the padding is rank arithmetic, the shuffle a
//!   memoized arrival-group map over positions, never a padded copy, and
//!   a call's group medians one walk up the sorted records.
//! * [`naive_quantile`] — the non-reproducible empirical quantile, kept as
//!   the ablation baseline (experiment E11: the paper's Section 4.1
//!   observes that using it directly "will lead to inconsistent answers").
//! * [`SampleBudget`] — the paper's sample-complexity formulas
//!   (Theorem 2.7, Theorem 4.5) as executable code, plus the calibrated
//!   policy used for runnable experiments (`DESIGN.md` §3).
//! * [`harness`] — estimators for reproducibility rates and accuracy,
//!   used by tests and experiment E7.
//!
//! # The two randomness channels
//!
//! Every function here takes the sample (fresh i.i.d. channel) and a
//! [`Seed`] (shared channel) separately; reproducibility statements are
//! always "same seed, fresh samples".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
#[cfg(test)]
mod differential;
mod domain;
mod error;
pub mod harness;
mod naive;
mod rmedian;
mod rquantile;
mod scratch;

pub use budget::{ReproParams, SampleBudget};
pub use domain::{log_star, log_star_of_bits, Domain};
pub use error::ReproducibleError;
pub use lcakp_oracle::Seed;
pub use naive::naive_quantile;
pub use rmedian::{rmedian, RMedianConfig};
pub use rquantile::{rquantile, RQuantileConfig};
pub use scratch::{QuantileScratch, SampleKeys, SortedSample};
