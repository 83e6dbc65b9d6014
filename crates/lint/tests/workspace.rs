//! Workspace-level integration tests: the lexer must tokenize every
//! `.rs` file in the tree (including vendored and test code), and the
//! production tree must be lint-clean — the same bar the CI `lint` job
//! enforces via `cargo run -p lcakp-lint -- check`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use lcakp_lint::{
    label_conforms, lint_workspace, render_budget_json, render_callgraph_json, render_graph_json,
    render_json, tokenize, walk_all_sources, Workspace,
};

fn workspace_root() -> PathBuf {
    // crates/lint → crates → workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("lint crate lives two levels below the workspace root")
        .to_path_buf()
}

/// The lexer smoke test: every source file in the repository — vendored
/// crates, test code, fixtures, everything — must tokenize without error.
/// This is the broadest input corpus available offline and catches lexer
/// regressions (raw strings, nested comments, odd numeric literals) long
/// before they would misparse a production file.
#[test]
fn lexer_tokenizes_every_source_file() {
    let root = workspace_root();
    let files = walk_all_sources(&root);
    assert!(
        files.len() > 100,
        "walk looks broken: only {} files found under {}",
        files.len(),
        root.display()
    );
    let mut tokens_total = 0usize;
    for path in &files {
        let src = std::fs::read_to_string(path)
            .unwrap_or_else(|error| panic!("{}: unreadable: {error}", path.display()));
        let tokens = tokenize(&src)
            .unwrap_or_else(|error| panic!("{}: failed to lex: {error:?}", path.display()));
        tokens_total += tokens.len();
    }
    assert!(tokens_total > 10_000, "suspiciously few tokens lexed");
}

/// The production tree stays lint-clean. A regression here means someone
/// reintroduced ambient entropy, a hash collection in a seeded crate, a
/// panicking oracle call, floats in the exact crate, or a literal seed.
#[test]
fn workspace_is_lint_clean() {
    let root = workspace_root();
    let diagnostics = lint_workspace(&root).expect("workspace lints");
    assert!(
        diagnostics.is_empty(),
        "workspace has lint findings:\n{}",
        lcakp_lint::render_text(&diagnostics)
    );
}

/// The seed-derivation graph over the real repository: emission is
/// byte-identical across independent builds (the `--emit-graph`
/// determinism contract), and the graph is non-trivial — the seeded
/// crates really do route their randomness through `derive`.
#[test]
fn seed_graph_emission_is_deterministic() {
    let root = workspace_root();
    let first = Workspace::from_root(&root).expect("workspace builds");
    let second = Workspace::from_root(&root).expect("workspace rebuilds");
    assert_eq!(
        render_graph_json(&first.graph),
        render_graph_json(&second.graph),
        "graph emission must be byte-identical across runs"
    );
    assert!(
        first.graph.derives.len() >= 20,
        "suspiciously few derive sites: {}",
        first.graph.derives.len()
    );
    assert!(!first.graph.rngs.is_empty());
}

/// The hot-path call graph over the real repository: emission is
/// byte-identical across independent builds (the `--emit-callgraph`
/// determinism contract), the serving entry points are rooted, and the
/// two known log*-recursions carry their declared bounds.
#[test]
fn callgraph_emission_is_deterministic_and_rooted() {
    let root = workspace_root();
    let first = Workspace::from_root(&root).expect("workspace builds");
    let second = Workspace::from_root(&root).expect("workspace rebuilds");
    let json = render_callgraph_json(first.callgraph());
    assert_eq!(
        json,
        render_callgraph_json(second.callgraph()),
        "call-graph emission must be byte-identical across runs"
    );
    let graph = first.callgraph();
    assert!(
        graph.fns.len() > 200,
        "suspiciously few fns: {}",
        graph.fns.len()
    );
    let roots: Vec<String> = graph
        .fns
        .iter()
        .filter(|def| def.root)
        .map(|def| def.display())
        .collect();
    for expected in [
        "LcaKp::query_with_audit_in",
        "WorkerCore::serve_step",
        "Cluster::route",
    ] {
        assert!(
            roots.iter().any(|r| r == expected),
            "`{expected}` missing from roots: {roots:#?}"
        );
    }
    // Every hot-path recursion cycle declares a bound (the D013 bar),
    // and the paper's log* recursions are among them.
    for cycle in &graph.cycles {
        let in_scope = cycle
            .members
            .iter()
            .any(|&i| lcakp_lint::HOT_PATH_CRATES.contains(&graph.fns[i].crate_name.as_str()));
        assert!(
            !in_scope || cycle.bound.is_some(),
            "unbounded hot cycle: {:?}",
            cycle
                .members
                .iter()
                .map(|&i| graph.fns[i].display())
                .collect::<Vec<_>>()
        );
    }
    assert!(
        graph
            .cycles
            .iter()
            .any(|c| c.bound.as_deref().is_some_and(|b| b.contains("log*"))),
        "the rMedian/log* recursion bounds disappeared"
    );
}

/// The probe-budget certificate over the real repository: emission is
/// byte-identical across independent builds (the `--emit-budget`
/// determinism contract, which the CI `lint-budget` job diffs against
/// the committed golden), every serving entry point is certified
/// within its declared budget, and the flagship `LcaKp::query` bound
/// matches `worst_case_accesses()` structurally.
#[test]
fn budget_certificate_matches_golden_and_certifies_every_root() {
    let root = workspace_root();
    let first = Workspace::from_root(&root).expect("workspace builds");
    let second = Workspace::from_root(&root).expect("workspace rebuilds");
    let json = render_budget_json(first.budget());
    assert_eq!(
        json,
        render_budget_json(second.budget()),
        "budget emission must be byte-identical across runs"
    );
    // Regenerate with:
    //   LCAKP_LINT_REGEN_GOLDEN=1 cargo test -p lcakp-lint --test workspace
    if std::env::var_os("LCAKP_LINT_REGEN_GOLDEN").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/budget_certificate.json"
        );
        std::fs::write(path, &json).expect("golden writes");
        return;
    }
    let golden = include_str!("golden/budget_certificate.json");
    assert_eq!(
        json, golden,
        "budget certificate drifted from the committed golden — \
         regenerate with LCAKP_LINT_REGEN_GOLDEN=1 if the drift is intended"
    );

    let analysis = first.budget();
    let by_root = |name: &str| {
        analysis
            .roots
            .iter()
            .find(|r| r.root == name)
            .unwrap_or_else(|| panic!("root `{name}` missing from the certificate"))
    };
    for expected in [
        "LcaKp::query",
        "LcaKp::query_with_audit",
        "LcaKp::query_with_audit_in",
        "WorkerCore::serve_step",
        "Cluster::route",
        "InstanceOracle::try_query",
        "InstanceOracle::try_sample_weighted",
        "InstanceOracle::try_sample_weighted_many",
    ] {
        assert!(
            by_root(expected).within,
            "root `{expected}` is not within its declared budget"
        );
    }
    // Every certified root is within budget — the D015 bar, restated
    // over the artifact CI ships.
    for root in &analysis.roots {
        assert!(
            root.within,
            "root `{}` escapes its budget (certified `{}`, declared {:?})",
            root.root,
            root.probes.render(),
            root.declared.as_ref().map(|b| b.render())
        );
        assert!(
            !root.probes.is_unbounded(),
            "root `{}` has an unbounded probe bound",
            root.root
        );
    }
    assert_eq!(
        by_root("LcaKp::query").probes.render(),
        "coupon-samples * retry-attempts + eps-estimation-samples * retry-attempts + \
         retry-attempts",
        "the flagship query bound must mirror worst_case_accesses()"
    );
}

/// Every statically known domain label in the production tree is unique
/// (no D007 collisions) unless the re-derivation site carries an
/// `allow(D007)` with a reason — and every label parses under the D008
/// `component/purpose` convention.
#[test]
fn workspace_labels_are_unique_and_conforming() {
    let root = workspace_root();
    let ws = Workspace::from_root(&root).expect("workspace builds");
    let mut by_label: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    for site in &ws.graph.derives {
        let Some(label) = site.label.value() else {
            continue;
        };
        assert!(
            label_conforms(label),
            "label \"{label}\" at {}:{} violates the component/purpose convention",
            site.path,
            site.line
        );
        let allowed = ws
            .ctx_for(Path::new(&site.path))
            .into_iter()
            .flat_map(|ctx| ctx.allows_covering(site.line))
            .any(|(_, entry)| entry.ids.iter().any(|id| id == "D007") && entry.has_reason());
        if !allowed {
            by_label
                .entry(label)
                .or_default()
                .push(format!("{}:{}", site.path, site.line));
        }
    }
    for (label, sites) in by_label {
        assert!(
            sites.len() == 1,
            "domain label \"{label}\" derived at multiple sites without allow(D007): {sites:?}"
        );
    }
}

/// `docs/lints.md` documents every shipped rule: each id and kebab-case
/// name printed by `--list-rules` must appear there.
#[test]
fn docs_cover_every_rule() {
    let docs = std::fs::read_to_string(workspace_root().join("docs/lints.md"))
        .expect("docs/lints.md exists");
    for rule in lcakp_lint::all_rules() {
        assert!(
            docs.contains(rule.id),
            "docs/lints.md does not mention rule {}",
            rule.id
        );
        assert!(
            docs.contains(rule.name),
            "docs/lints.md does not mention rule name {}",
            rule.name
        );
    }
}

/// JSON output is stable and well-formed for the empty and nonempty cases.
#[test]
fn json_rendering_shape() {
    let empty = render_json(&[]);
    assert_eq!(empty, "{\n  \"findings\": [],\n  \"count\": 0\n}\n");

    let diagnostic = lcakp_lint::Diagnostic {
        path: PathBuf::from("crates/core/src/x.rs"),
        finding: lcakp_lint::Finding {
            rule: "D002",
            line: 4,
            col: 25,
            message: "a \"quoted\" message".to_string(),
        },
    };
    let rendered = render_json(std::slice::from_ref(&diagnostic));
    assert_eq!(
        rendered,
        "{\n  \"findings\": [\n    {\"rule\": \"D002\", \"path\": \"crates/core/src/x.rs\", \
         \"line\": 4, \"column\": 25, \"message\": \"a \\\"quoted\\\" message\"}\n  ],\n  \
         \"count\": 1\n}\n"
    );
}
