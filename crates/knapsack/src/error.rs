use std::error::Error;
use std::fmt;

/// Errors produced when constructing instances or running solvers.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum KnapsackError {
    /// The instance has no items.
    EmptyInstance,
    /// An item's profit or weight exceeds [`crate::MAX_UNIT`], or the item
    /// count exceeds [`crate::MAX_ITEMS`]; the exact fixed-point arithmetic
    /// used for efficiency comparisons would overflow.
    UnitTooLarge {
        /// Index of the offending item.
        index: usize,
    },
    /// The instance has more than [`crate::MAX_ITEMS`] items.
    TooManyItems {
        /// Number of items supplied.
        count: usize,
    },
    /// The total profit of the instance is zero, so profit-proportional
    /// sampling and profit normalization are undefined.
    ZeroTotalProfit,
    /// The total weight of the instance is zero, so weight normalization is
    /// undefined.
    ZeroTotalWeight,
    /// A solver's budget was exceeded. What the budget counts depends on
    /// the solver: table cells for the dynamic programs (`n · (K + 1)` for
    /// the weight-indexed one), items for brute force and meet in the
    /// middle, and search nodes for branch and bound and `tilde_optimum`.
    SolverBudgetExceeded {
        /// Name of the solver that refused to run or stopped.
        solver: &'static str,
        /// The count that exceeded the solver's budget.
        size: u128,
        /// The solver's budget, in the same unit.
        max: u128,
    },
    /// An approximation parameter was outside its valid range (e.g. ε = 0).
    InvalidEpsilon {
        /// Stringified offending value.
        value: String,
    },
}

impl fmt::Display for KnapsackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KnapsackError::EmptyInstance => write!(f, "instance has no items"),
            KnapsackError::UnitTooLarge { index } => write!(
                f,
                "item {index} has profit or weight above the fixed-point limit"
            ),
            KnapsackError::TooManyItems { count } => {
                write!(f, "instance has {count} items, above the supported maximum")
            }
            KnapsackError::ZeroTotalProfit => write!(f, "total profit is zero"),
            KnapsackError::ZeroTotalWeight => write!(f, "total weight is zero"),
            KnapsackError::SolverBudgetExceeded { solver, size, max } => write!(
                f,
                "{solver} exceeded its budget: {size} against a limit of {max}"
            ),
            KnapsackError::InvalidEpsilon { value } => {
                write!(f, "approximation parameter {value} is outside (0, 1]")
            }
        }
    }
}

impl Error for KnapsackError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errors = [
            KnapsackError::EmptyInstance,
            KnapsackError::UnitTooLarge { index: 3 },
            KnapsackError::TooManyItems { count: 10 },
            KnapsackError::ZeroTotalProfit,
            KnapsackError::ZeroTotalWeight,
            KnapsackError::SolverBudgetExceeded {
                solver: "dp_by_weight",
                size: 100,
                max: 10,
            },
            KnapsackError::InvalidEpsilon {
                value: "0".to_owned(),
            },
        ];
        for err in errors {
            let text = err.to_string();
            assert!(!text.is_empty());
            assert!(text.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn budget_message_names_no_unit() {
        // The count is cells, items or search nodes depending on the solver.
        let err = KnapsackError::SolverBudgetExceeded {
            solver: "branch_and_bound",
            size: 10_000_001,
            max: 10_000_000,
        };
        assert_eq!(
            err.to_string(),
            "branch_and_bound exceeded its budget: 10000001 against a limit of 10000000"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<KnapsackError>();
    }
}
