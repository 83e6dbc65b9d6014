//! Exact and approximate Knapsack solvers.
//!
//! Exact solvers are ground truth for every experiment; they are
//! cross-checked against each other in tests. Approximation algorithms are
//! the classical ones the paper builds on (Section 1.2): the greedy
//! algorithm for Fractional Knapsack, the modified greedy 1/2-approximation
//! of [WS11, Exercise 3.1], and the profit-rounding FPTAS of [WS11,
//! Section 3.2].
//!
//! | Solver | Kind | Working-set budget |
//! |---|---|---|
//! | [`dp_by_weight`] | exact | `n · (K + 1)` cells |
//! | [`dp_by_profit`] | exact | `n · (P + 1)` cells |
//! | [`branch_and_bound`] | exact | pruned DFS, node cap |
//! | [`meet_in_the_middle`] | exact | `2^(n/2)` subsets, `n ≤ 40` |
//! | [`brute_force`] | exact | `2^n` subsets, `n ≤ 25` |
//! | [`greedy_prefix`] | heuristic | expected `n` |
//! | [`modified_greedy`] | 1/2-approx | expected `n` |
//! | [`fptas`] | (1−ε)-approx | `n³/ε` cells |
//! | [`fractional::fractional_optimum`] | LP relaxation | expected `n` |

mod bb;
mod brute;
mod dp;
mod fptas;
pub mod fractional;
mod greedy;
mod mitm;

pub use bb::branch_and_bound;
pub use brute::brute_force;
pub use dp::{dp_by_profit, dp_by_weight};
pub use fptas::{fptas, fptas_ratio};
pub use greedy::{
    cmp_efficiency_desc, efficiency_order, greedy_prefix, greedy_skip, modified_greedy, GreedyRun,
};
pub use mitm::meet_in_the_middle;
