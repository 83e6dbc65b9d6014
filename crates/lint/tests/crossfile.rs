//! Cross-file (workspace) rule tests over the mini-workspace fixture:
//! D007 duplicate-domain-label, D008 label-convention, D009 stale-allow,
//! the seed-derivation graph golden, and SARIF rendering of the lot.
//!
//! The mini-workspace lives in `tests/fixtures/mini_ws/` — three files
//! that together trigger one diagnostic of each cross-file rule while an
//! allow-with-reason suppresses an intentional re-derivation.
//!
//! The hot-path rules (D011–D013) run over a second fixture workspace,
//! `tests/fixtures/hot_ws/` — builtin and directive-declared roots, an
//! exempt `&mut`-parameter append, an allowed allocation, a bounded and
//! an unbounded recursion cycle, and a hot-but-out-of-scope crate.

use lcakp_lint::{
    plan_fixes, render_budget_json, render_callgraph_json, render_graph_json, render_json,
    render_sarif, FileCtx, LabelSource, Workspace,
};
use std::collections::BTreeSet;
use std::path::Path;

/// Builds the fixture mini-workspace with explicit paths and crate
/// names (path-based attribution would file everything under `lint`).
fn mini_ws() -> Workspace {
    let files = [
        (
            "crates/alpha/src/lib.rs",
            "alpha",
            include_str!("fixtures/mini_ws/alpha_lib.rs"),
        ),
        (
            "crates/beta/src/main.rs",
            "beta",
            include_str!("fixtures/mini_ws/beta_main.rs"),
        ),
        (
            "crates/gamma/src/lib.rs",
            "gamma",
            include_str!("fixtures/mini_ws/gamma_lib.rs"),
        ),
    ];
    let ctxs: Vec<FileCtx> = files
        .iter()
        .map(|(path, krate, src)| FileCtx::from_source(*path, *krate, src).unwrap())
        .collect();
    Workspace::from_ctxs(ctxs)
}

/// Builds the hot-path fixture workspace: two hot-path reporting crates
/// (`core`, `service`) and one crate that is reachable but out of
/// reporting scope (`zeta`).
fn hot_ws() -> Workspace {
    let files = [
        (
            "crates/core/src/hot.rs",
            "core",
            include_str!("fixtures/hot_ws/core_hot.rs"),
        ),
        (
            "crates/service/src/pump.rs",
            "service",
            include_str!("fixtures/hot_ws/service_pump.rs"),
        ),
        (
            "crates/zeta/src/lib.rs",
            "zeta",
            include_str!("fixtures/hot_ws/zeta_outside.rs"),
        ),
    ];
    let ctxs: Vec<FileCtx> = files
        .iter()
        .map(|(path, krate, src)| FileCtx::from_source(*path, *krate, src).unwrap())
        .collect();
    Workspace::from_ctxs(ctxs)
}

/// Builds the probe-budget fixture workspace: `LcaKp::query*` roots
/// with declared budgets (satisfied, exceeded, missing), an annotated
/// and a const-derived bounded loop, an unbounded probe loop, and
/// reviewed (allowed) D011/D014 sites.
fn budget_ws() -> Workspace {
    let files = [
        (
            "crates/core/src/query.rs",
            "core",
            include_str!("fixtures/budget_ws/core_query.rs"),
        ),
        (
            "crates/service/src/core.rs",
            "service",
            include_str!("fixtures/budget_ws/service_core.rs"),
        ),
    ];
    let ctxs: Vec<FileCtx> = files
        .iter()
        .map(|(path, krate, src)| FileCtx::from_source(*path, *krate, src).unwrap())
        .collect();
    Workspace::from_ctxs(ctxs)
}

/// Builds the batch-sampling fixture workspace: a batch intrinsic, a
/// retry wrapper with an amortized `probe-total`, roots binding its
/// `batch-count` (or forgetting to), a loop-anchored total, and a
/// batch call with no total at all.
fn batch_ws() -> Workspace {
    let ctxs = vec![FileCtx::from_source(
        "crates/core/src/batch.rs",
        "core",
        include_str!("fixtures/batch_ws/core_batch.rs"),
    )
    .unwrap()];
    Workspace::from_ctxs(ctxs)
}

/// Compares `rendered` byte for byte with the committed golden `name`
/// under `tests/golden/`, or rewrites that golden when
/// `LCAKP_LINT_REGEN_GOLDEN` is set.
fn assert_golden(name: &str, rendered: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("LCAKP_LINT_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, rendered).expect("golden writes");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|error| panic!("golden {} unreadable: {error}", path.display()));
    assert_eq!(rendered, golden, "{name} drifted from the committed golden");
}

fn rendered(ws: &Workspace) -> Vec<String> {
    ws.diagnostics().iter().map(ToString::to_string).collect()
}

#[test]
fn hot_ws_diagnostics_snapshot() {
    let got = rendered(&hot_ws());
    assert_eq!(
        got,
        vec![
            "crates/core/src/hot.rs:13:24: [D011] `Vec::new()` allocates unboundedly in hot-path \
             fn `helper_alloc` (hot via `LcaKp::query_fast`); reuse a per-worker scratch buffer, \
             bound it with with_capacity(CONST), or allow with a reason",
            "crates/core/src/hot.rs:14:9: [D011] `push` may grow an unbounded buffer in hot-path \
             fn `helper_alloc` (hot via `LcaKp::query_fast`); reuse a per-worker scratch buffer, \
             bound it with with_capacity(CONST), or allow with a reason",
            "crates/core/src/hot.rs:24:13: [D011] `String::from` allocates in hot-path fn `leaky` \
             (hot via `custom_entry`); reuse a per-worker scratch buffer, bound it with \
             with_capacity(CONST), or allow with a reason",
            "crates/service/src/pump.rs:15:9: [D012] stdio writes acquire a process-global lock \
             in hot-path fn `WorkerCore::drain` (hot via `WorkerCore::serve_step`); move it off \
             the query path or allow with a reason",
            "crates/service/src/pump.rs:28:1: [D013] recursion cycle in hot path without a \
             declared depth bound: `spin_a` -> `spin_b`; annotate one member with `lcakp-lint: \
             recursion-bound(<bound>) reason=\"…\"`",
        ],
        "{got:#?}"
    );
}

#[test]
fn hot_ws_suppressions_and_scope() {
    let got = rendered(&hot_ws());
    // The allow-with-reason vec!, the &mut-parameter push, the
    // const-capacity with_capacity, and the bounded recursion are all
    // silent; so is the hot-but-out-of-scope zeta crate and the cold
    // (unreachable) allocator.
    assert!(!got.iter().any(|d| d.contains("append_frame")), "{got:#?}");
    assert!(
        !got.iter().any(|d| d.contains("bounded_shrink")),
        "{got:#?}"
    );
    assert!(!got.iter().any(|d| d.contains("cold_helper")), "{got:#?}");
    assert!(!got.iter().any(|d| d.contains("zeta")), "{got:#?}");
    assert!(!got.iter().any(|d| d.contains("vec!")), "{got:#?}");
}

#[test]
fn hot_ws_callgraph_marks_roots_and_reachability() {
    let ws = hot_ws();
    let graph = ws.callgraph();
    let by_name = |name: &str| {
        graph
            .fns
            .iter()
            .position(|def| def.display() == name)
            .unwrap_or_else(|| panic!("fn `{name}` not in the call graph"))
    };
    // Builtin roots: LcaKp::query*, WorkerCore::serve_step, try_query —
    // plus the directive-declared custom_entry.
    for root in [
        "LcaKp::query_fast",
        "WorkerCore::serve_step",
        "try_query",
        "custom_entry",
    ] {
        let idx = by_name(root);
        assert!(graph.fns[idx].root, "`{root}` should be a root");
        assert!(graph.hot[idx], "`{root}` should be hot");
    }
    // Reachability crosses files and impls; cold code stays cold.
    assert!(graph.hot[by_name("helper_alloc")]);
    assert!(graph.hot[by_name("WorkerCore::drain")]);
    assert!(graph.hot[by_name("spin_b")]);
    assert!(!graph.hot[by_name("cold_helper")]);
    assert!(!graph.fns[by_name("helper_alloc")].root);
    // The bounded cycle carries its declared bound; the unbounded one
    // does not.
    let bounds: Vec<Option<&str>> = graph.cycles.iter().map(|c| c.bound.as_deref()).collect();
    assert!(bounds.contains(&Some("log* n")), "{bounds:?}");
    assert!(bounds.contains(&None), "{bounds:?}");
}

#[test]
fn callgraph_json_matches_golden_and_is_deterministic() {
    let first = render_callgraph_json(hot_ws().callgraph());
    let second = render_callgraph_json(hot_ws().callgraph());
    assert_eq!(first, second, "call-graph emission must be byte-identical");
    // Regenerate with:
    //   LCAKP_LINT_REGEN_GOLDEN=1 cargo test -p lcakp-lint --test crossfile
    if std::env::var_os("LCAKP_LINT_REGEN_GOLDEN").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/hot_ws_callgraph.json"
        );
        std::fs::write(path, &first).expect("golden writes");
        return;
    }
    let golden = include_str!("golden/hot_ws_callgraph.json");
    assert_eq!(
        first, golden,
        "call graph drifted from the committed golden"
    );
}

#[test]
fn budget_ws_diagnostics_snapshot() {
    let got = rendered(&budget_ws());
    assert_eq!(
        got,
        vec![
            "crates/core/src/query.rs:42:9: [D015] certified worst-case probe bound `3` of \
             hot-path root `LcaKp::query_overdrawn` exceeds its declared probe-budget `2`",
            "crates/core/src/query.rs:46:9: [D015] hot-path root `LcaKp::query_unbounded` makes \
             oracle accesses (certified bound `unbounded`) but declares no budget; annotate with \
             `lcakp-lint: probe-budget(<expr>) reason=\"…\"` matching the runtime cap",
            "crates/core/src/query.rs:48:9: [D014] `while` loop with oracle or allocation cost \
             in hot-path fn `LcaKp::query_unbounded` (hot via `LcaKp::query_unbounded`) has no \
             derivable trip bound; use a constant range or annotate with `lcakp-lint: \
             loop-bound(<expr>) reason=\"…\"`",
            "crates/core/src/query.rs:49:29: [D016] oracle access `try_query` in hot-path fn \
             `LcaKp::query_unbounded` (hot via `LcaKp::query_unbounded`) has unbounded \
             multiplicity — it escapes every summarized probe bound; bound the enclosing loops \
             (loop-bound/recursion-bound) or move it off the hot path",
        ],
        "{got:#?}"
    );
}

#[test]
fn budget_ws_reviewed_sites_stay_silent() {
    let got = rendered(&budget_ws());
    // The allowed drain loop and its allocations are silent, the used
    // allows are not stale, and the loop-bound / probe-budget
    // directives are never themselves mistaken for (stale) allows.
    assert!(!got.iter().any(|d| d.contains("drain")), "{got:#?}");
    assert!(!got.iter().any(|d| d.contains("[D009]")), "{got:#?}");
    assert!(
        !got.iter()
            .any(|d| d.contains("query_annotated") || d.contains("query_const_batch")),
        "{got:#?}"
    );
}

#[test]
fn budget_ws_certificate_matches_golden_and_is_deterministic() {
    let first = render_budget_json(budget_ws().budget());
    let second = render_budget_json(budget_ws().budget());
    assert_eq!(first, second, "budget emission must be byte-identical");
    // Regenerate with:
    //   LCAKP_LINT_REGEN_GOLDEN=1 cargo test -p lcakp-lint --test crossfile
    if std::env::var_os("LCAKP_LINT_REGEN_GOLDEN").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/budget_ws_certificate.json"
        );
        std::fs::write(path, &first).expect("golden writes");
        return;
    }
    let golden = include_str!("golden/budget_ws_certificate.json");
    assert_eq!(
        first, golden,
        "budget certificate drifted from the committed golden"
    );
}

#[test]
fn budget_ws_certificate_verdicts() {
    let ws = budget_ws();
    let analysis = ws.budget();
    let by_root = |name: &str| {
        analysis
            .roots
            .iter()
            .find(|r| r.root == name)
            .unwrap_or_else(|| panic!("root `{name}` missing from the certificate"))
    };
    assert!(by_root("LcaKp::query_annotated").within);
    assert!(by_root("LcaKp::query_const_batch").within);
    assert!(!by_root("LcaKp::query_overdrawn").within);
    assert!(!by_root("LcaKp::query_unbounded").within);
    assert!(by_root("LcaKp::query_unbounded").probes.is_unbounded());
    assert!(by_root("Oracle::try_query").within);
    assert_eq!(
        by_root("Oracle::try_query")
            .declared
            .as_ref()
            .map(|b| b.render()),
        Some("1".to_string()),
        "intrinsics carry the implicit unit budget"
    );
    assert!(by_root("WorkerCore::serve_step").within);
    assert_eq!(
        by_root("WorkerCore::serve_step").probes.render(),
        "probe-rounds + 1",
        "imprecise cross-file call composes with the precise local helper"
    );
}

#[test]
fn directive_anchoring_spans_qualifiers_attributes_and_where_clauses() {
    let src = r#"
// lcakp-lint: hot-path-root reason="const fn root under test"
#[inline]
pub const fn fancy_entry() -> u64 {
    7
}

// lcakp-lint: recursion-bound(log* n) reason="where-clause fn under test"
#[inline(always)]
#[must_use]
pub fn generic_step<T>(x: T) -> u64
where
    T: Into<u64>,
{
    x.into()
}

// lcakp-lint: probe-budget(5) reason="multi-attribute pub(crate) anchor under test"
#[allow(dead_code)]
#[inline]
pub(crate) fn query_probe() -> u64 {
    5
}
"#;
    let ctx = FileCtx::from_source("crates/core/src/anchor.rs", "core", src).unwrap();
    let ws = Workspace::from_ctxs(vec![ctx]);
    let graph = ws.callgraph();
    let by_name = |name: &str| {
        graph
            .fns
            .iter()
            .find(|def| def.name == name)
            .unwrap_or_else(|| panic!("fn `{name}` not in the call graph"))
    };
    assert!(
        by_name("fancy_entry").root,
        "hot-path-root must anchor across #[inline] + pub const quals"
    );
    assert_eq!(
        by_name("generic_step").recursion_bound.as_deref(),
        Some("log* n"),
        "recursion-bound must anchor across stacked attributes on a where-clause fn"
    );
    assert_eq!(
        by_name("query_probe").probe_budget.as_deref(),
        Some("5"),
        "probe-budget must anchor across attributes on a pub(crate) fn"
    );
    assert!(
        by_name("generic_step").body.is_some(),
        "where-clause fns must still get a body range"
    );
}

#[test]
fn changed_files_mode_reports_only_listed_files() {
    let ws = mini_ws();
    let listed: BTreeSet<String> = ["crates/beta/src/main.rs".to_string()].into();
    let got: Vec<String> = ws
        .diagnostics_for(&listed)
        .iter()
        .map(ToString::to_string)
        .collect();
    // Only beta's diagnostics are reported — but the D007 there is a
    // *cross-file* collision with alpha, proving the full workspace was
    // still analysed.
    assert_eq!(got.len(), 2, "{got:#?}");
    assert!(
        got.iter().all(|d| d.starts_with("crates/beta/")),
        "{got:#?}"
    );
    assert!(
        got.iter()
            .any(|d| d.contains("[D007]") && d.contains("crates/alpha/src/lib.rs:8")),
        "{got:#?}"
    );
}

#[test]
fn mini_ws_diagnostics_snapshot() {
    let got = rendered(&mini_ws());
    assert_eq!(
        got,
        vec![
            "crates/alpha/src/lib.rs:9:19: [D008] domain label \"Alpha Faults\" (via const \
             `FAULT_DOMAIN`) does not follow the component/purpose lowercase-kebab convention; \
             suggested canonical label: \"alpha/alpha-faults\"",
            "crates/alpha/src/lib.rs:10:5: [D009] stale allow: `allow(D001)` but D001 no longer \
             fires at this site; remove the directive — suppressions that outlive their finding \
             hide future regressions",
            "crates/beta/src/main.rs:6:19: [D007] domain label \"alpha/query\" is also derived at \
             crates/alpha/src/lib.rs:8; a duplicated label correlates two 'independent' random \
             streams and voids the consistency analysis — rename one site, or allow(D007) with \
             the re-derivation reason",
            "crates/beta/src/main.rs:7:19: [D008] domain label \"plain\" does not follow the \
             component/purpose lowercase-kebab convention; suggested canonical label: \
             \"beta/plain\"",
        ],
        "{got:#?}"
    );
}

#[test]
fn allowed_rederivation_is_suppressed_and_not_stale() {
    let diagnostics = rendered(&mini_ws());
    // gamma re-derives alpha/query under an allow(D007) with reason: no
    // D007 there, and the allow is *used*, so no D009 either.
    assert!(
        !diagnostics.iter().any(|d| d.contains("gamma")),
        "{diagnostics:#?}"
    );
}

#[test]
fn graph_classifies_every_site() {
    let ws = mini_ws();
    assert_eq!(ws.graph.derives.len(), 5);
    assert_eq!(ws.graph.rngs.len(), 1);
    let const_site = ws
        .graph
        .derives
        .iter()
        .find(|site| matches!(site.label, LabelSource::Const { .. }))
        .expect("const-routed site");
    assert_eq!(const_site.label.value(), Some("Alpha Faults"));
    assert!(!const_site.index_constant, "index is the variable `k`");
}

#[test]
fn graph_json_matches_golden_and_is_deterministic() {
    let first = render_graph_json(&mini_ws().graph);
    let second = render_graph_json(&mini_ws().graph);
    assert_eq!(first, second, "graph emission must be byte-identical");
    // Regenerate with:
    //   LCAKP_LINT_REGEN_GOLDEN=1 cargo test -p lcakp-lint --test crossfile
    if std::env::var_os("LCAKP_LINT_REGEN_GOLDEN").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/mini_ws_graph.json"
        );
        std::fs::write(path, &first).expect("golden writes");
        return;
    }
    let golden = include_str!("golden/mini_ws_graph.json");
    assert_eq!(first, golden, "graph drifted from the committed golden");
}

#[test]
fn sarif_over_mini_ws_has_the_2_1_0_shape() {
    let ws = mini_ws();
    let sarif = render_sarif(&ws.diagnostics());
    assert!(sarif.contains("\"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\""));
    assert!(sarif.contains("\"version\": \"2.1.0\""));
    assert!(sarif.contains("\"ruleId\": \"D007\""));
    assert!(sarif.contains("\"uri\": \"crates/beta/src/main.rs\""));
    // D007/D008 are errors, D009 a warning — levels must differ.
    assert!(sarif.contains("\"level\": \"error\""));
    assert!(sarif.contains("\"level\": \"warning\""));
    assert_eq!(sarif, render_sarif(&ws.diagnostics()), "deterministic");
}

#[test]
fn planned_fixes_cover_d008_and_d009_but_not_const_labels() {
    let ws = mini_ws();
    let fixes = plan_fixes(&ws);
    let rules: Vec<(&str, &str)> = fixes
        .iter()
        .flat_map(|fix| {
            fix.edits
                .iter()
                .map(move |edit| (fix.path.to_str().unwrap(), edit.rule))
        })
        .collect();
    assert_eq!(
        rules,
        vec![
            // The const-routed D008 in alpha is *not* auto-fixed; the
            // stale allow is removed; beta's bare label is renamed.
            ("crates/alpha/src/lib.rs", "D009"),
            ("crates/beta/src/main.rs", "D008"),
        ],
        "{fixes:#?}"
    );
}

#[test]
fn batch_ws_diagnostics_snapshot() {
    let got = rendered(&batch_ws());
    assert_eq!(
        got,
        vec![
            "crates/core/src/batch.rs:45:33: [D016] batch oracle access \
             `try_sample_weighted_many` in hot-path fn `LcaKp::draw_unannotated` (hot via \
             `LcaKp::query_unannotated`) has no probe total — one call draws many samples, so a \
             per-call charge would under-count it; annotate the call or its loop with \
             `lcakp-lint: probe-total(<expr>) reason=\"…\"`",
            "crates/core/src/batch.rs:58:9: [D015] certified worst-case probe bound \
             `batch-count * retry-attempts` of hot-path root `LcaKp::query_unbound` exceeds \
             its declared probe-budget `coupon-samples * retry-attempts`",
            "crates/core/src/batch.rs:79:9: [D015] certified worst-case probe bound \
             `unbounded` of hot-path root `LcaKp::query_unannotated` exceeds its declared \
             probe-budget `coupon-samples`",
        ],
        "{got:#?}"
    );
}

#[test]
fn batch_ws_certificate_matches_golden() {
    let first = render_budget_json(batch_ws().budget());
    assert_eq!(first, render_budget_json(batch_ws().budget()));
    // Regenerate with:
    //   LCAKP_LINT_REGEN_GOLDEN=1 cargo test -p lcakp-lint --test crossfile
    if std::env::var_os("LCAKP_LINT_REGEN_GOLDEN").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/batch_ws_certificate.json"
        );
        std::fs::write(path, &first).expect("golden writes");
        return;
    }
    let golden = include_str!("golden/batch_ws_certificate.json");
    assert_eq!(first, golden, "batch certificate drifted from the golden");
}

#[test]
fn batch_calls_are_charged_their_amortized_totals() {
    let ws = batch_ws();
    let analysis = ws.budget();
    let probes = |name: &str| {
        let root = analysis
            .roots
            .iter()
            .find(|r| r.root == name)
            .unwrap_or_else(|| panic!("root `{name}` missing from the certificate"));
        (root.probes.render(), root.within)
    };
    // The batch intrinsic certifies its count; the unit one its 1.
    assert_eq!(
        probes("Oracle::try_sample_weighted_many"),
        ("batch-count".to_string(), true)
    );
    assert_eq!(
        probes("Oracle::try_sample_weighted"),
        ("1".to_string(), true)
    );
    // The wrapper's amortized total, with batch-count bound at the call
    // — not loop trips × count, and not the per-call 1 that silently
    // under-counted before batches were modelled.
    assert_eq!(
        probes("LcaKp::query_batched"),
        ("coupon-samples * retry-attempts + 1".to_string(), true)
    );
    assert_eq!(
        probes("LcaKp::query_unbound"),
        ("batch-count * retry-attempts".to_string(), false)
    );
    assert_eq!(probes("LcaKp::query_direct"), ("16".to_string(), true));
    assert_eq!(
        probes("LcaKp::query_loop_total"),
        ("rounds".to_string(), true)
    );
    assert_eq!(
        probes("LcaKp::query_unannotated"),
        ("unbounded".to_string(), false)
    );
}

/// The findings JSON and the SARIF report of every fixture workspace,
/// and of no findings at all, are pinned byte for byte. Regenerate with:
///   LCAKP_LINT_REGEN_GOLDEN=1 cargo test -p lcakp-lint --test crossfile
#[test]
fn findings_json_and_sarif_match_goldens() {
    let workspaces = [
        ("mini_ws", mini_ws().diagnostics()),
        ("hot_ws", hot_ws().diagnostics()),
        ("budget_ws", budget_ws().diagnostics()),
        ("batch_ws", batch_ws().diagnostics()),
        ("empty", Vec::new()),
    ];
    for (name, diagnostics) in &workspaces {
        assert_golden(&format!("{name}_findings.json"), &render_json(diagnostics));
        assert_golden(&format!("{name}.sarif"), &render_sarif(diagnostics));
    }
}
