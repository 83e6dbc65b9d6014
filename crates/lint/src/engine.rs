//! Walks files, runs rules (per-file and workspace passes), applies the
//! allow mechanism and renders diagnostics as text or JSON.

use crate::callgraph::{build_callgraph, CallGraph};
use crate::context::{crate_name_for, FileCtx};
use crate::graph::{build_graph, SeedGraph};
use crate::rules::{all_rules, Check, Finding};
use lcakp_canon::{line, object, quote, rows};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// A finding anchored to its file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub path: PathBuf,
    /// The underlying rule finding.
    pub finding: Finding,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.path.display(),
            self.finding.line,
            self.finding.col,
            self.finding.rule,
            self.finding.message
        )
    }
}

/// Engine-level failure: unreadable or unlexable input.
#[derive(Debug)]
pub struct EngineError {
    /// The file that failed.
    pub path: PathBuf,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path.display(), self.message)
    }
}

impl std::error::Error for EngineError {}

/// The result of an in-source allow lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AllowState {
    /// No allow directive applies.
    None,
    /// A well-formed `allow(rule) reason="…"` covers the finding.
    Suppressed,
    /// An allow names the rule but gives no (or an empty) reason — the
    /// finding stands, annotated.
    MissingReason,
}

/// Answers whether an allow directive covers a finding of `rule` on
/// 1-based `line`: a directive on the same line (trailing) or on the
/// preceding line. Directives come from real comment tokens, so one
/// spelled inside a string literal never suppresses anything.
pub(crate) fn allow_state(ctx: &FileCtx, line: u32, rule: &str) -> AllowState {
    let mut state = AllowState::None;
    for (_, entry) in ctx.allows_covering(line) {
        if entry.ids.iter().any(|id| id == rule) {
            if entry.has_reason() {
                return AllowState::Suppressed;
            }
            state = AllowState::MissingReason;
        }
    }
    state
}

/// Applies the allow mechanism to one finding in place: `None` when the
/// finding is suppressed, `Some` (possibly annotated) otherwise.
fn apply_allow(ctx: &FileCtx, mut finding: Finding) -> Option<Finding> {
    match allow_state(ctx, finding.line, finding.rule) {
        AllowState::Suppressed => None,
        AllowState::MissingReason => {
            finding
                .message
                .push_str(" (allow ignored: missing or empty reason=\"…\")");
            Some(finding)
        }
        AllowState::None => Some(finding),
    }
}

/// Raw per-file findings: every applicable file rule, test-line
/// filtered and deduped per (rule, line), but *before* the allow
/// mechanism — the input for both [`lint_ctx`] and the stale-allow
/// analysis (which must know what would fire absent the allows).
fn raw_file_findings(ctx: &FileCtx) -> Vec<Finding> {
    let mut findings = Vec::new();
    for rule in all_rules() {
        let Check::File(check) = rule.check else {
            continue;
        };
        if !(rule.applies)(&ctx.crate_name) {
            continue;
        }
        findings.extend(
            check(ctx)
                .into_iter()
                .filter(|finding| !ctx.is_test_line(finding.line)),
        );
    }
    // One diagnostic per (rule, line): an import and three uses on one
    // line should read as one problem.
    findings.sort_by_key(|f| (f.line, f.rule, f.col));
    findings.dedup_by_key(|f| (f.rule, f.line));
    findings
}

/// Runs every applicable *per-file* rule over one prepared file and
/// applies test-line filtering plus the allow mechanism. Cross-file
/// rules (D007–D009) need a [`Workspace`]; see
/// [`Workspace::diagnostics`].
pub fn lint_ctx(ctx: &FileCtx) -> Vec<Finding> {
    raw_file_findings(ctx)
        .into_iter()
        .filter_map(|finding| apply_allow(ctx, finding))
        .collect()
}

/// A prepared multi-file analysis unit: every production file's context
/// plus the seed-derivation graph built over them. The unit the
/// cross-file rules, the autofix engine and `--emit-graph` all share.
#[derive(Debug)]
pub struct Workspace {
    /// Prepared file contexts, sorted by path.
    pub ctxs: Vec<FileCtx>,
    /// The seed-derivation graph over those files.
    pub graph: SeedGraph,
    /// Unix-style path → index into `ctxs`.
    by_path: BTreeMap<String, usize>,
    /// Lazily built whole-workspace call graph, shared by the
    /// hot-path rules (D011–D013) and `--emit-callgraph`.
    callgraph: std::cell::OnceCell<CallGraph>,
    /// Lazily built probe/allocation budget analysis, shared by
    /// D014–D016 and `--emit-budget`.
    budget: std::cell::OnceCell<crate::budget::BudgetAnalysis>,
}

/// Renders `path` with forward slashes regardless of platform, so every
/// artifact that names a file is byte-identical everywhere.
pub(crate) fn unix_path(path: &Path) -> String {
    path.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

impl Workspace {
    /// Builds the workspace from prepared contexts.
    pub fn from_ctxs(mut ctxs: Vec<FileCtx>) -> Self {
        ctxs.sort_by(|a, b| a.path.cmp(&b.path));
        let graph = build_graph(&ctxs);
        let by_path = ctxs
            .iter()
            .enumerate()
            .map(|(index, ctx)| (unix_path(&ctx.path), index))
            .collect();
        Workspace {
            ctxs,
            graph,
            by_path,
            callgraph: std::cell::OnceCell::new(),
            budget: std::cell::OnceCell::new(),
        }
    }

    /// The whole-workspace call graph, built on first use and shared
    /// by every hot-path rule in this run.
    pub fn callgraph(&self) -> &CallGraph {
        self.callgraph.get_or_init(|| build_callgraph(&self.ctxs))
    }

    /// The probe/allocation budget analysis, built on first use and
    /// shared by D014–D016 and `--emit-budget`.
    pub fn budget(&self) -> &crate::budget::BudgetAnalysis {
        self.budget.get_or_init(|| crate::budget::analyze(self))
    }

    /// Builds the workspace by walking every production source under
    /// `root`; paths in diagnostics are workspace-relative.
    ///
    /// # Errors
    ///
    /// Returns the first [`EngineError`] (unreadable / unlexable file).
    pub fn from_root(root: &Path) -> Result<Self, EngineError> {
        let mut ctxs = Vec::new();
        for path in walk_production_sources(root) {
            let relative = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            ctxs.push(load_ctx(&path, relative)?);
        }
        Ok(Self::from_ctxs(ctxs))
    }

    /// Builds the workspace from an explicit file list (the CLI's
    /// `check path…` form); paths are kept as given.
    ///
    /// # Errors
    ///
    /// Returns the first [`EngineError`] (unreadable / unlexable file).
    pub fn from_files(paths: &[PathBuf]) -> Result<Self, EngineError> {
        let mut ctxs = Vec::new();
        for path in paths {
            ctxs.push(load_ctx(path, path.clone())?);
        }
        Ok(Self::from_ctxs(ctxs))
    }

    /// The context for a diagnostic path, if it belongs to this
    /// workspace.
    pub fn ctx_for(&self, path: &Path) -> Option<&FileCtx> {
        self.by_path.get(&unix_path(path)).map(|&i| &self.ctxs[i])
    }

    /// Runs the full multi-pass analysis: per-file rules, then the
    /// cross-file rules over the seed-derivation graph, then the allow
    /// mechanism over everything. Diagnostics are sorted by
    /// (path, line, col, rule).
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        self.diagnostics_filtered(None)
    }

    /// Changed-files mode: per-file rules run only on the listed
    /// files (unix-style workspace-relative paths) and cross-file
    /// diagnostics are filtered to them — but the cross-file rules
    /// (D007/D008/D011–D013) still analyse the whole workspace, so
    /// their verdicts match a full run.
    pub fn diagnostics_for(&self, files: &BTreeSet<String>) -> Vec<Diagnostic> {
        self.diagnostics_filtered(Some(files))
    }

    fn diagnostics_filtered(&self, files: Option<&BTreeSet<String>>) -> Vec<Diagnostic> {
        let listed = |path: &Path| files.is_none_or(|set| set.contains(&unix_path(path)));
        let mut diagnostics = Vec::new();
        for ctx in &self.ctxs {
            if !listed(&ctx.path) {
                continue;
            }
            diagnostics.extend(lint_ctx(ctx).into_iter().map(|finding| Diagnostic {
                path: ctx.path.clone(),
                finding,
            }));
        }
        for rule in all_rules() {
            let Check::Workspace(check) = rule.check else {
                continue;
            };
            for diagnostic in check(self) {
                if !listed(&diagnostic.path) {
                    continue;
                }
                let Some(ctx) = self.ctx_for(&diagnostic.path) else {
                    diagnostics.push(diagnostic);
                    continue;
                };
                if let Some(finding) = apply_allow(ctx, diagnostic.finding) {
                    diagnostics.push(Diagnostic {
                        path: diagnostic.path,
                        finding,
                    });
                }
            }
        }
        diagnostics.sort_by(|a, b| {
            (&a.path, a.finding.line, a.finding.col, a.finding.rule).cmp(&(
                &b.path,
                b.finding.line,
                b.finding.col,
                b.finding.rule,
            ))
        });
        diagnostics
    }
}

/// Reads and prepares one file, reporting it under `reported` (the
/// workspace-relative or as-given path).
fn load_ctx(path: &Path, reported: PathBuf) -> Result<FileCtx, EngineError> {
    let src = fs::read_to_string(path).map_err(|error| EngineError {
        path: reported.clone(),
        message: error.to_string(),
    })?;
    let crate_name = crate_name_for(&reported);
    FileCtx::from_source(reported.clone(), crate_name, &src).map_err(|error| EngineError {
        path: reported,
        message: error.to_string(),
    })
}

/// One allow directive with at least one stale rule id, located by
/// context and entry index so both D009 and the autofix engine can act
/// on it.
#[derive(Debug)]
pub(crate) struct StaleAllow {
    /// Index into `ws.ctxs`.
    pub ctx_index: usize,
    /// Index into that context's `allows`.
    pub entry_index: usize,
    /// The stale ids within the directive, in source order.
    pub stale_ids: Vec<String>,
}

/// The stale-allow analysis behind rule D009: every `allow(id)`
/// directive is checked against what actually fires at its site — a
/// directive whose rule produces no finding on its own or the following
/// line is suppression debt.
///
/// `allow(D009)` directives are exempt (policing them would need a
/// fixed-point); unknown rule ids are stale by definition.
pub(crate) fn stale_allows(ws: &Workspace) -> Vec<StaleAllow> {
    // (unix path, allow offset, rule id) of every directive some raw
    // (pre-allow) finding actually lands on.
    let mut used: BTreeSet<(String, usize, &'static str)> = BTreeSet::new();
    let mut mark = |ctx: &FileCtx, line: u32, rule: &str| {
        let path = unix_path(&ctx.path);
        for (_, entry) in ctx.allows_covering(line) {
            if entry.ids.iter().any(|id| id == rule) {
                // Intern through the rule table for a 'static id.
                if let Some(spec) = crate::rules::rule_by_id(rule) {
                    used.insert((path.clone(), entry.offset, spec.id));
                }
            }
        }
    };
    for ctx in &ws.ctxs {
        for finding in raw_file_findings(ctx) {
            mark(ctx, finding.line, finding.rule);
        }
    }
    for rule in all_rules() {
        let Check::Workspace(check) = rule.check else {
            continue;
        };
        if rule.id == "D009" {
            continue; // this analysis *is* D009
        }
        for diagnostic in check(ws) {
            if let Some(ctx) = ws.ctx_for(&diagnostic.path) {
                mark(ctx, diagnostic.finding.line, diagnostic.finding.rule);
            }
        }
    }
    let mut stale = Vec::new();
    for (ctx_index, ctx) in ws.ctxs.iter().enumerate() {
        let path = unix_path(&ctx.path);
        for (entry_index, entry) in ctx.allows.iter().enumerate() {
            let stale_ids: Vec<String> = entry
                .ids
                .iter()
                .filter(|id| id.as_str() != "D009")
                .filter(|id| {
                    !crate::rules::rule_by_id(id)
                        .is_some_and(|spec| used.contains(&(path.clone(), entry.offset, spec.id)))
                })
                .cloned()
                .collect();
            if !stale_ids.is_empty() {
                stale.push(StaleAllow {
                    ctx_index,
                    entry_index,
                    stale_ids,
                });
            }
        }
    }
    stale
}

/// Renders the stale-allow analysis as D009 diagnostics, one per stale
/// id within each directive.
pub(crate) fn stale_allow_diagnostics(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diagnostics = Vec::new();
    for stale in stale_allows(ws) {
        let ctx = &ws.ctxs[stale.ctx_index];
        let entry = &ctx.allows[stale.entry_index];
        for id in &stale.stale_ids {
            let why = match crate::rules::rule_by_id(id) {
                Some(_) => "no longer fires at this site",
                None => "is not a known rule",
            };
            diagnostics.push(Diagnostic {
                path: ctx.path.clone(),
                finding: Finding {
                    rule: "D009",
                    line: entry.line,
                    col: entry.col,
                    message: format!(
                        "stale allow: `allow({id})` but {id} {why}; remove the directive — \
                         suppressions that outlive their finding hide future regressions"
                    ),
                },
            });
        }
    }
    diagnostics
}

/// Lints one file from disk, attributing it to `crate_name`.
///
/// # Errors
///
/// Returns [`EngineError`] when the file cannot be read or tokenized.
pub fn lint_file(path: &Path, crate_name: &str) -> Result<Vec<Diagnostic>, EngineError> {
    let src = fs::read_to_string(path).map_err(|error| EngineError {
        path: path.to_path_buf(),
        message: error.to_string(),
    })?;
    let ctx = FileCtx::from_source(path, crate_name, &src).map_err(|error| EngineError {
        path: path.to_path_buf(),
        message: error.to_string(),
    })?;
    Ok(lint_ctx(&ctx)
        .into_iter()
        .map(|finding| Diagnostic {
            path: path.to_path_buf(),
            finding,
        })
        .collect())
}

/// Directories never descended into during a workspace walk.
///
/// `tests`, `benches` and `fixtures` hold test code, which every rule
/// exempts wholesale (D005 says "outside tests"; the others guard
/// production paths) — and the lint's own trigger fixtures live there.
const SKIPPED_DIRS: &[&str] = &[
    "target", "vendor", ".git", "tests", "benches", "fixtures", "scripts",
];

/// Collects every production `.rs` file under `root`, sorted.
pub fn walk_production_sources(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    collect(root, &mut files, true);
    files.sort();
    files
}

/// Collects every `.rs` file under `root` including test and vendored
/// code — the lexer smoke-test surface.
pub fn walk_all_sources(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    collect(root, &mut files, false);
    files.sort();
    files
}

fn collect(dir: &Path, files: &mut Vec<PathBuf>, skip_test_dirs: bool) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            let always_skipped = matches!(name.as_ref(), "target" | ".git");
            let test_dir = SKIPPED_DIRS.contains(&name.as_ref());
            if always_skipped || (skip_test_dirs && test_dir) {
                continue;
            }
            collect(&path, files, skip_test_dirs);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            files.push(path);
        }
    }
}

/// Lints the whole workspace rooted at `root`: the per-file rules plus
/// the cross-file passes (D007–D009) over the seed-derivation graph.
///
/// # Errors
///
/// Returns the first [`EngineError`] (unreadable / unlexable file).
pub fn lint_workspace(root: &Path) -> Result<Vec<Diagnostic>, EngineError> {
    Ok(Workspace::from_root(root)?.diagnostics())
}

/// Renders diagnostics as a stable machine-readable JSON document.
pub fn render_json(diagnostics: &[Diagnostic]) -> String {
    let findings = diagnostics.iter().map(|diagnostic| {
        line([
            ("rule", quote(diagnostic.finding.rule)),
            ("path", quote(&diagnostic.path.display().to_string())),
            ("line", diagnostic.finding.line.to_string()),
            ("column", diagnostic.finding.col.to_string()),
            ("message", quote(&diagnostic.finding.message)),
        ])
    });
    let mut out = object([
        ("findings", rows(findings)),
        ("count", diagnostics.len().to_string()),
    ]);
    out.push('\n');
    out
}

/// Renders diagnostics as `path:line:col: [rule] message` lines.
pub fn render_text(diagnostics: &[Diagnostic]) -> String {
    let mut out = String::new();
    for diagnostic in diagnostics {
        out.push_str(&diagnostic.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_src(crate_name: &str, src: &str) -> Vec<Finding> {
        let ctx = FileCtx::from_source("mem.rs", crate_name, src).unwrap();
        lint_ctx(&ctx)
    }

    #[test]
    fn allow_on_preceding_line_suppresses() {
        let src = "// lcakp-lint: allow(D002) reason=\"demo\"\nfn f() { let r = thread_rng(); }\n";
        assert!(lint_src("core", src).is_empty());
    }

    #[test]
    fn trailing_allow_suppresses() {
        let src = "fn f() { let r = thread_rng(); } // lcakp-lint: allow(D002) reason=\"demo\"\n";
        assert!(lint_src("core", src).is_empty());
    }

    #[test]
    fn allow_without_reason_is_ignored_and_annotated() {
        let src = "// lcakp-lint: allow(D002)\nfn f() { let r = thread_rng(); }\n";
        let findings = lint_src("core", src);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("allow ignored"));
    }

    #[test]
    fn allow_for_other_rule_does_not_suppress() {
        let src =
            "// lcakp-lint: allow(D001) reason=\"wrong rule\"\nfn f() { let r = thread_rng(); }\n";
        assert_eq!(lint_src("core", src).len(), 1);
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { let r = thread_rng(); }\n}\n";
        assert!(lint_src("core", src).is_empty());
    }

    #[test]
    fn json_shape_is_stable() {
        let diagnostics = vec![Diagnostic {
            path: PathBuf::from("a.rs"),
            finding: Finding {
                rule: "D002",
                line: 3,
                col: 7,
                message: "say \"no\"".to_string(),
            },
        }];
        let json = render_json(&diagnostics);
        assert!(json.contains("\"rule\": \"D002\""));
        assert!(json.contains("\"line\": 3"));
        assert!(json.contains("say \\\"no\\\""));
        assert!(json.contains("\"count\": 1"));
        assert!(render_json(&[]).contains("\"count\": 0"));
    }
}
