//! `lcakp-lint` — the workspace invariant checker.
//!
//! Every guarantee this reproduction makes — `1 − ε` consistency
//! (Theorem 4.1), replayable fault plans, reproducible quantiles — rests
//! on invariants `rustc` cannot see: all randomness must derive from the
//! domain-separated shared [`Seed`](https://docs.rs), iteration order in
//! seeded paths must be deterministic, and every oracle access in the
//! LCA hot path must go through the metered, fallible `try_*` API. This
//! crate enforces those invariants as token-level lints with stable rule
//! ids (`D001`–`D005`), `file:line:col` diagnostics, JSON output and an
//! in-source allow mechanism:
//!
//! ```text
//! // lcakp-lint: allow(D005) reason="the single experiment root seed"
//! ```
//!
//! See `docs/lints.md` for the rule catalogue and the paper-level
//! invariant each rule protects. By design the crate has no dependency
//! but the std-only `lcakp-canon` leaf, which lays out every JSON report
//! it writes, and has its own minimal Rust lexer (no `syn`): it must
//! never be broken by the crates it checks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod budget;
pub mod callgraph;
pub mod cfg;
pub mod context;
pub mod dataflow;
pub mod engine;
pub mod fix;
pub mod graph;
pub mod lexer;
pub mod rules;
pub mod sarif;

pub use budget::{
    analyze, is_batch_probe_name, is_probe_name, render_budget_json, BudgetAnalysis, FnCost,
    RootBudget, BATCH_COUNT_SYMBOL, BATCH_PROBE_INTRINSICS, PROBE_INTRINSICS,
};
pub use callgraph::{
    build_callgraph, render_callgraph_json, CallEdge, CallGraph, CallKind, Cycle, FnDef,
    HOT_PATH_CRATES,
};
pub use cfg::{enclosing_loops, extract_loops, LoopKind, LoopSite};
pub use context::{crate_name_for, AllowEntry, ConstStr, FileCtx};
pub use dataflow::{
    int_consts, line_annotation, loop_trip_bound, parse_bound, Bound, Term, BATCH_COUNT_DIRECTIVE,
    LOOP_BOUND_DIRECTIVE, PROBE_TOTAL_DIRECTIVE,
};
pub use engine::{
    lint_ctx, lint_file, lint_workspace, render_json, render_text, walk_all_sources,
    walk_production_sources, Diagnostic, EngineError, Workspace,
};
pub use fix::{apply_edits, fix_workspace, plan_fixes, render_fix_diff, Edit, FileFix, FixReport};
pub use graph::{build_graph, render_graph_json, DeriveSite, LabelSource, RngSite, SeedGraph};
pub use lexer::{tokenize, tokenize_with_comments, Comment, LexError, Token, TokenKind};
pub use rules::{
    all_rules, label_conforms, label_suggestions, rule_by_id, Check, Finding, RuleSpec, Severity,
};
pub use sarif::{render_sarif, SARIF_SCHEMA};
