//! The Ito–Kiyoshima–Yoshida (TAMC 2012) machinery the paper builds on
//! (Section 4 preliminaries):
//!
//! * [`partition`] — the large / small / garbage item partition at
//!   parameter ε, and [`SmallItemFilter`], the one exact small-item test;
//! * [`eps_seq`] — equally partitioning sequences (Definition 4.3), their
//!   offline construction and their verification;
//! * [`itilde`] — the reduced instance Ĩ built from the large items and an
//!   EPS (step 3 of the Ĩ-construction algorithm), together with an exact
//!   solver for it (used to validate Lemma 4.4).
//!
//! The *sampling-driven* estimation of the EPS (and the reproducible
//! version used by the LCA) lives in `lcakp-core`, which owns the access
//! models; this module is purely deterministic.

pub mod eps_seq;
pub mod itilde;
pub mod partition;

pub use crate::rat::Epsilon;
pub use eps_seq::{exact_eps, verify_eps, BucketMass, EpsSequence, EpsVerification};
pub use itilde::{tilde_optimum, TildeInstance, TildeItem, TildeOrigin, MU_SHIFT};
pub use partition::{classify_item, ItemClass, Partition, SmallItemFilter};
