//! Whole-workspace call graph and hot-path reachability analysis.
//!
//! A token-level pass over the lexer output that records every `fn`
//! definition (free, inherent-impl, and trait-impl) and every call
//! site, resolves calls conservatively by name and impl qualifier to
//! workspace-defined functions, and computes the set of functions
//! reachable from the serving entry points ("hot path"). The result
//! powers rules D011 (no unbounded allocation in the hot path), D012
//! (no blocking in the hot path), and D013 (recursion cycles in the
//! hot path must declare a depth bound), and is persisted as
//! deterministic canonical JSON via `check --emit-callgraph`.
//!
//! Resolution is deliberately over-approximate: a call edge is added
//! to *every* workspace function the name could plausibly refer to
//! (same-file free functions are preferred, then same-crate, then the
//! whole workspace; `self.method(…)` prefers the enclosing impl).
//! Calls into `std` or vendored dependencies resolve to nothing and
//! never extend the graph, so the hot set is a superset of the truth
//! over workspace code only — sound for "nothing hot may allocate",
//! which is the direction the rules check.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::PathBuf;

use crate::context::FileCtx;
use crate::engine::{unix_path, Diagnostic, Workspace};
use crate::lexer::TokenKind;
use crate::rules::Finding;
use lcakp_canon::{line, list, object, quote, rows};

/// Crates whose hot-path findings are reported. Reachability is
/// computed over the whole workspace, but D011–D013 diagnostics are
/// scoped to the serving crates the zero-alloc guarantee covers.
pub const HOT_PATH_CRATES: &[&str] = &["core", "reproducible", "oracle", "service"];

/// In-source directive marking the next `fn` as a hot-path root.
const ROOT_DIRECTIVE: &str = "lcakp-lint: hot-path-root";
/// In-source directive declaring a recursion depth bound for the
/// next `fn` (satisfies D013 for cycles through it).
const BOUND_DIRECTIVE: &str = "lcakp-lint: recursion-bound(";
/// In-source directive declaring a hot-path root's probe budget
/// (checked against the certified bound by D015).
const PROBE_BUDGET_DIRECTIVE: &str = "lcakp-lint: probe-budget(";

/// A `fn` definition found in the workspace.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Workspace-relative path of the defining file.
    pub path: PathBuf,
    /// Crate the file belongs to (`crates/<name>/…`).
    pub crate_name: String,
    /// Function name.
    pub name: String,
    /// Enclosing impl type for methods/associated fns, `None` for
    /// free functions.
    pub qualifier: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based column of the `fn` keyword.
    pub col: u32,
    /// Index of the defining file in the workspace `ctxs`.
    pub ctx: usize,
    /// Token range of the body: indices of the opening and closing
    /// braces in the file's token stream. `None` for bodiless trait
    /// method declarations.
    pub body: Option<(usize, usize)>,
    /// Whether this fn is a hot-path root (serving entry point or
    /// `hot-path-root` directive).
    pub root: bool,
    /// Declared recursion depth bound from a `recursion-bound(…)`
    /// directive with a non-empty reason, if any.
    pub recursion_bound: Option<String>,
    /// Declared probe budget from a `probe-budget(…)` directive with
    /// a non-empty reason, if any (checked by D015 at roots).
    pub probe_budget: Option<String>,
}

impl FnDef {
    /// `Type::name` for methods, `name` for free functions.
    pub fn display(&self) -> String {
        match &self.qualifier {
            Some(q) => format!("{q}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// How a call site referred to its callee.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CallKind {
    /// `receiver.name(…)`.
    Method,
    /// `Type::name(…)`.
    Qualified,
    /// `name(…)`.
    Free,
}

impl CallKind {
    fn as_str(self) -> &'static str {
        match self {
            CallKind::Method => "method",
            CallKind::Qualified => "qualified",
            CallKind::Free => "free",
        }
    }
}

/// A resolved call edge between two workspace functions.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CallEdge {
    /// Index of the calling fn in `CallGraph::fns`.
    pub caller: usize,
    /// Index of the callee in `CallGraph::fns`.
    pub callee: usize,
    /// 1-based line of the call site.
    pub line: u32,
    /// 1-based column of the call site.
    pub col: u32,
    /// Syntactic shape of the call.
    pub kind: CallKind,
    /// Whether the resolution was precise: a free or qualified call,
    /// or a `self.method(…)` call resolved to the enclosing impl.
    /// Imprecise edges (name-based method fan-out) count for
    /// reachability but not for cycle detection, where a fan-out to
    /// every same-name impl would invent recursion.
    pub precise: bool,
}

/// A recursion cycle (non-trivial SCC or self-loop) in the hot
/// subgraph.
#[derive(Debug, Clone)]
pub struct Cycle {
    /// Member fn indices, sorted by (path, line).
    pub members: Vec<usize>,
    /// The declared depth bound, taken from the first member that
    /// carries a `recursion-bound(…)` directive.
    pub bound: Option<String>,
}

/// The whole-workspace call graph with hot-path annotations.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    /// All fn definitions, sorted by (path, line, col).
    pub fns: Vec<FnDef>,
    /// Deduplicated resolved call edges, sorted.
    pub edges: Vec<CallEdge>,
    /// Per-fn hot flag (reachable from a root).
    pub hot: Vec<bool>,
    /// For hot fns, the root index whose BFS first reached them.
    pub hot_via: Vec<Option<usize>>,
    /// Recursion cycles among hot fns.
    pub cycles: Vec<Cycle>,
}

const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "let", "in", "move", "fn", "as",
    "impl", "where", "pub", "use", "mod", "struct", "enum", "trait", "const", "static", "unsafe",
    "break", "continue", "ref", "mut", "dyn", "type",
];

pub(crate) fn is_keyword(name: &str) -> bool {
    KEYWORDS.contains(&name)
}

/// One raw (unresolved) call site, kept per caller during extraction.
pub(crate) struct RawCall {
    pub(crate) name: String,
    pub(crate) qualifier: Option<String>,
    pub(crate) kind: CallKind,
    /// Ident token immediately before the `.` for method calls, used
    /// for `self.method(…)` same-impl preference.
    pub(crate) receiver: Option<String>,
    /// Token index of the callee-name identifier.
    pub(crate) idx: usize,
    pub(crate) line: u32,
    pub(crate) col: u32,
}

/// Extracts the impl-type name from impl-header tokens
/// (`impl<…> Trait for Type<…> { …` or `impl<…> Type<…> { …`).
fn impl_type_name(ctx: &FileCtx, start: usize, open_brace: usize) -> Option<String> {
    // Find a top-level `for`; the type follows it. Otherwise the type
    // follows `impl` (after its generic parameter list).
    let mut angle = 0i32;
    let mut for_at = None;
    for i in start + 1..open_brace {
        match ctx.tokens[i].text.as_str() {
            "<" => angle += 1,
            ">" if angle > 0 && !ctx.is_punct(i - 1, "-") => angle -= 1,
            "for" if angle == 0 && ctx.tokens[i].kind == TokenKind::Ident => {
                for_at = Some(i);
                break;
            }
            _ => {}
        }
    }
    let from = match for_at {
        Some(i) => i + 1,
        None => {
            // Skip the generic parameter list directly after `impl`.
            let mut i = start + 1;
            if ctx.is_punct(i, "<") {
                let mut depth = 0i32;
                while i < open_brace {
                    match ctx.tokens[i].text.as_str() {
                        "<" => depth += 1,
                        ">" if !ctx.is_punct(i - 1, "-") => {
                            depth -= 1;
                            if depth == 0 {
                                i += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
            }
            i
        }
    };
    // The type name is the last path segment before its generic
    // arguments: walk `a::b::Name<…>` and keep the final ident.
    let mut name = None;
    let mut i = from;
    while i < open_brace {
        let tok = &ctx.tokens[i];
        match tok.kind {
            TokenKind::Ident if !is_keyword(&tok.text) => {
                name = Some(tok.text.clone());
                if !ctx.is_punct(i + 1, "::") {
                    break;
                }
                i += 2;
            }
            TokenKind::Punct if tok.text == "&" || tok.text == "::" => i += 1,
            TokenKind::Lifetime => i += 1,
            _ => break,
        }
    }
    name
}

/// Scans forward from the fn name for the body's opening brace,
/// returning `(open, close)` token indices, or `None` for a bodiless
/// trait method declaration (signature ends in `;`).
fn body_range(ctx: &FileCtx, name_idx: usize) -> Option<(usize, usize)> {
    let mut i = name_idx + 1;
    let mut paren = 0i32;
    let mut angle = 0i32;
    while let Some(tok) = ctx.tok(i) {
        match tok.text.as_str() {
            "(" | "[" => paren += 1,
            ")" | "]" => paren -= 1,
            "<" if tok.kind == TokenKind::Punct => angle += 1,
            ">" if angle > 0 && !ctx.is_punct(i - 1, "-") => angle -= 1,
            ";" if paren == 0 => return None,
            "{" if paren == 0 => {
                let open = i;
                let mut depth = 0i32;
                while let Some(tok) = ctx.tok(i) {
                    match tok.text.as_str() {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                return Some((open, i));
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
                return None;
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Walks backward from the `fn` keyword token over item qualifiers
/// (`pub`, `pub(crate)`, `const`, `unsafe`, `async`, `extern "…"`,
/// `default`) and contiguous `#[…]` attribute groups to the first
/// token of the item. Directive comments anchor to the item start, so
/// `// lcakp-lint: …` above `#[inline]\npub const fn f()` still
/// attaches to `f`.
fn item_start(ctx: &FileCtx, fn_tok: usize) -> usize {
    let mut i = fn_tok;
    while i > 0 {
        let prev = &ctx.tokens[i - 1];
        if prev.kind == TokenKind::Ident
            && matches!(
                prev.text.as_str(),
                "pub" | "const" | "unsafe" | "async" | "default"
            )
        {
            i -= 1;
            continue;
        }
        if prev.kind == TokenKind::Str && i >= 2 && ctx.is_ident(i - 2, "extern") {
            i -= 2;
            continue;
        }
        // `pub(crate)` / `pub(in path)` visibility: a paren group
        // directly preceded by `pub`.
        if prev.text == ")" {
            let Some(open) = match_back(ctx, i - 1, "(", ")") else {
                break;
            };
            if open >= 1 && ctx.is_ident(open - 1, "pub") {
                i = open - 1;
                continue;
            }
            break;
        }
        // A `#[…]` attribute group.
        if prev.text == "]" {
            let Some(open) = match_back(ctx, i - 1, "[", "]") else {
                break;
            };
            if open >= 1 && ctx.tokens[open - 1].text == "#" {
                i = open - 1;
                continue;
            }
            break;
        }
        break;
    }
    i
}

/// Scans backward from a closing delimiter at `close_idx` to its
/// matching opener, returning the opener's token index.
fn match_back(ctx: &FileCtx, close_idx: usize, open: &str, close: &str) -> Option<usize> {
    let mut depth = 0i32;
    let mut j = close_idx;
    loop {
        let text = ctx.tokens[j].text.as_str();
        if text == close {
            depth += 1;
        } else if text == open {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
        j = j.checked_sub(1)?;
    }
}

/// True when a plain comment is eligible to carry a directive.
fn plain_comment(text: &str) -> bool {
    text.starts_with("//") && !text.starts_with("///") && !text.starts_with("//!")
}

/// True when a comment on `c_line` anchors to an item whose `fn`
/// keyword is on `fn_line` with attributes/qualifiers starting on
/// `anchor_line`: trailing on either line, or directly above the
/// item's first line.
fn comment_anchors(c_line: u32, fn_line: u32, anchor_line: u32) -> bool {
    c_line == fn_line || c_line + 1 == fn_line || c_line == anchor_line || c_line + 1 == anchor_line
}

/// True when a comment whose text contains `needle` anchors to the fn
/// at `line` (item starting on `anchor_line`).
fn directive_near(ctx: &FileCtx, line: u32, anchor_line: u32, needle: &str) -> bool {
    ctx.comments.iter().any(|c| {
        comment_anchors(c.line, line, anchor_line)
            && plain_comment(&c.text)
            && c.text.contains(needle)
    })
}

/// Parses a `<directive>(<expr>) reason="…"` comment directive
/// anchored to the fn at `line`; the expression only counts when the
/// reason is non-empty.
fn directive_expr_near(
    ctx: &FileCtx,
    line: u32,
    anchor_line: u32,
    directive: &str,
) -> Option<String> {
    for c in &ctx.comments {
        if !comment_anchors(c.line, line, anchor_line) || !plain_comment(&c.text) {
            continue;
        }
        if let Some(expr) = parse_expr_directive(&c.text, directive) {
            return Some(expr);
        }
    }
    None
}

/// Extracts the `(<expr>)` payload of `<directive>(<expr>)
/// reason="…"` from a comment's text, requiring a non-empty reason.
pub(crate) fn parse_expr_directive(text: &str, directive: &str) -> Option<String> {
    let at = text.find(directive)?;
    let rest = &text[at + directive.len()..];
    // The directive ends with the opening paren, so scan for its
    // balanced close: the payload grammar itself uses parens.
    let mut depth = 1usize;
    let mut close = None;
    for (i, c) in rest.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    close = Some(i);
                    break;
                }
            }
            _ => {}
        }
    }
    let close = close?;
    let expr = rest[..close].trim();
    let tail = &rest[close + 1..];
    let has_reason = tail
        .find("reason=\"")
        .map(|r| {
            let body = &tail[r + 8..];
            body.find('"').map(|end| !body[..end].trim().is_empty())
        })
        .unwrap_or(None)
        .unwrap_or(false);
    if !expr.is_empty() && has_reason {
        Some(expr.to_string())
    } else {
        None
    }
}

/// Whether a fn definition is a serving entry point: the per-query
/// paths (`LcaKp::query*`, `WorkerCore::serve_step`, `Cluster`
/// routing, the oracle `try_*` API). Per-run drivers like
/// `serve_cluster` and recovery paths like `Cluster::salvage` are
/// not roots — they amortize across a run or a node failure, not a
/// query — but can be rooted with a `hot-path-root` directive.
fn is_builtin_root(qualifier: Option<&str>, name: &str) -> bool {
    match qualifier {
        Some("LcaKp") => name.starts_with("query"),
        Some("WorkerCore") => name == "serve_step",
        Some("Cluster") => name == "route",
        _ => crate::budget::is_probe_name(name) || crate::budget::is_batch_probe_name(name),
    }
}

/// Builds the call graph over prepared file contexts (which must be
/// sorted by path, as `Workspace::from_ctxs` guarantees).
pub fn build_callgraph(ctxs: &[FileCtx]) -> CallGraph {
    let mut fns: Vec<FnDef> = Vec::new();
    let mut bodies: Vec<(usize, usize, usize)> = Vec::new(); // (fn idx, open, close)

    // Pass 1: fn definitions, with impl-block tracking.
    for (ctx_index, ctx) in ctxs.iter().enumerate() {
        // Stack of (impl type name, brace depth at which the impl
        // block opened).
        let mut impls: Vec<(Option<String>, i32)> = Vec::new();
        let mut depth = 0i32;
        let mut i = 0usize;
        while i < ctx.tokens.len() {
            let tok = &ctx.tokens[i];
            match tok.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    while impls.last().is_some_and(|(_, d)| *d >= depth) {
                        impls.pop();
                    }
                }
                "impl" if tok.kind == TokenKind::Ident => {
                    // Find the impl block's opening brace.
                    let mut j = i + 1;
                    let mut paren = 0i32;
                    while let Some(t) = ctx.tok(j) {
                        match t.text.as_str() {
                            "(" | "[" => paren += 1,
                            ")" | "]" => paren -= 1,
                            "{" if paren == 0 => break,
                            ";" if paren == 0 => break, // e.g. `impl Trait` in a type position
                            _ => {}
                        }
                        j += 1;
                    }
                    if ctx.is_punct(j, "{") {
                        if let Some(name) = impl_type_name(ctx, i, j) {
                            impls.push((Some(name), depth));
                        }
                    }
                }
                "fn" if tok.kind == TokenKind::Ident => {
                    if let Some(name_tok) = ctx.tok(i + 1) {
                        if name_tok.kind == TokenKind::Ident && !ctx.is_test_line(tok.line) {
                            let qualifier = impls.last().and_then(|(q, _)| q.clone());
                            let body = body_range(ctx, i + 1);
                            let anchor = ctx.tokens[item_start(ctx, i)].line;
                            let root = is_builtin_root(qualifier.as_deref(), &name_tok.text)
                                || directive_near(ctx, tok.line, anchor, ROOT_DIRECTIVE);
                            let bound = directive_expr_near(ctx, tok.line, anchor, BOUND_DIRECTIVE);
                            let probe_budget =
                                directive_expr_near(ctx, tok.line, anchor, PROBE_BUDGET_DIRECTIVE);
                            let idx = fns.len();
                            fns.push(FnDef {
                                path: ctx.path.clone(),
                                crate_name: ctx.crate_name.clone(),
                                name: name_tok.text.clone(),
                                qualifier,
                                line: tok.line,
                                col: tok.col,
                                ctx: ctx_index,
                                body,
                                root,
                                recursion_bound: bound,
                                probe_budget,
                            });
                            if let Some((open, close)) = body {
                                bodies.push((idx, open, close));
                            }
                        }
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }

    // Resolution indices.
    let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut method_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut by_qual_name: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    for (idx, def) in fns.iter().enumerate() {
        match &def.qualifier {
            Some(q) => {
                method_by_name.entry(&def.name).or_default().push(idx);
                by_qual_name
                    .entry((q.as_str(), &def.name))
                    .or_default()
                    .push(idx);
            }
            None => free_by_name.entry(&def.name).or_default().push(idx),
        }
    }

    // Pass 2: call sites within each fn body, resolved to edges.
    let mut edges: BTreeSet<CallEdge> = BTreeSet::new();
    for &(fn_idx, open, close) in &bodies {
        let caller = &fns[fn_idx];
        let ctx = &ctxs[caller.ctx];
        for raw in extract_calls(ctx, open, close) {
            let (targets, precise) = resolve_call(
                &raw,
                caller,
                &fns,
                &free_by_name,
                &method_by_name,
                &by_qual_name,
            );
            for callee in targets {
                edges.insert(CallEdge {
                    caller: fn_idx,
                    callee,
                    line: raw.line,
                    col: raw.col,
                    kind: raw.kind,
                    precise,
                });
            }
        }
    }
    let edges: Vec<CallEdge> = edges.into_iter().collect();

    // Hot-path BFS from roots, tracking the first-reaching root.
    let mut hot = vec![false; fns.len()];
    let mut hot_via: Vec<Option<usize>> = vec![None; fns.len()];
    let mut out: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for edge in &edges {
        out.entry(edge.caller).or_default().push(edge.callee);
    }
    let mut queue = VecDeque::new();
    for (idx, def) in fns.iter().enumerate() {
        if def.root {
            hot[idx] = true;
            hot_via[idx] = Some(idx);
            queue.push_back(idx);
        }
    }
    while let Some(at) = queue.pop_front() {
        let root = hot_via[at];
        if let Some(next) = out.get(&at) {
            for &callee in next {
                if !hot[callee] {
                    hot[callee] = true;
                    hot_via[callee] = root;
                    queue.push_back(callee);
                }
            }
        }
    }

    let cycles = find_cycles(&fns, &edges, &hot);

    CallGraph {
        fns,
        edges,
        hot,
        hot_via,
        cycles,
    }
}

/// Extracts raw call sites from a body token range.
pub(crate) fn extract_calls(ctx: &FileCtx, open: usize, close: usize) -> Vec<RawCall> {
    let mut calls = Vec::new();
    for i in open + 1..close {
        let tok = &ctx.tokens[i];
        if tok.kind != TokenKind::Ident || is_keyword(&tok.text) {
            continue;
        }
        if ctx.is_test_line(tok.line) {
            continue;
        }
        if !ctx.is_punct(i + 1, "(") {
            continue;
        }
        let (kind, qualifier, receiver) = if ctx.is_punct(i - 1, ".") {
            let receiver = ctx
                .tok(i.wrapping_sub(2))
                .filter(|t| t.kind == TokenKind::Ident)
                .map(|t| t.text.clone());
            (CallKind::Method, None, receiver)
        } else if ctx.is_punct(i - 1, "::") {
            let qual = ctx
                .tok(i.wrapping_sub(2))
                .filter(|t| t.kind == TokenKind::Ident)
                .map(|t| t.text.clone());
            match qual {
                Some(q) => (CallKind::Qualified, Some(q), None),
                None => continue,
            }
        } else if ctx.is_ident(i.wrapping_sub(1), "fn") {
            continue; // the definition itself
        } else {
            (CallKind::Free, None, None)
        };
        calls.push(RawCall {
            name: tok.text.clone(),
            qualifier,
            kind,
            receiver,
            idx: i,
            line: tok.line,
            col: tok.col,
        });
    }
    calls
}

/// Conservative name-based resolution; see the module docs. Returns
/// the candidate fn indices and whether the resolution was precise
/// (trustworthy enough for cycle detection).
fn resolve_call(
    raw: &RawCall,
    caller: &FnDef,
    fns: &[FnDef],
    free_by_name: &BTreeMap<&str, Vec<usize>>,
    method_by_name: &BTreeMap<&str, Vec<usize>>,
    by_qual_name: &BTreeMap<(&str, &str), Vec<usize>>,
) -> (Vec<usize>, bool) {
    match raw.kind {
        CallKind::Qualified => {
            let qual = match raw.qualifier.as_deref() {
                Some("Self") => caller.qualifier.as_deref().unwrap_or("Self"),
                Some(q) => q,
                None => return (Vec::new(), true),
            };
            (
                by_qual_name
                    .get(&(qual, raw.name.as_str()))
                    .cloned()
                    .unwrap_or_default(),
                true,
            )
        }
        CallKind::Method => {
            // `self.m(…)` prefers the enclosing impl; otherwise every
            // impl method with the name is a candidate.
            if raw.receiver.as_deref() == Some("self") {
                if let Some(q) = caller.qualifier.as_deref() {
                    if let Some(exact) = by_qual_name.get(&(q, raw.name.as_str())) {
                        return (exact.clone(), true);
                    }
                }
            }
            (
                method_by_name
                    .get(raw.name.as_str())
                    .cloned()
                    .unwrap_or_default(),
                false,
            )
        }
        CallKind::Free => {
            let candidates = match free_by_name.get(raw.name.as_str()) {
                Some(c) => c,
                None => return (Vec::new(), true),
            };
            let same_file: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&i| fns[i].path == caller.path)
                .collect();
            if !same_file.is_empty() {
                return (same_file, true);
            }
            let same_crate: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&i| fns[i].crate_name == caller.crate_name)
                .collect();
            if !same_crate.is_empty() {
                return (same_crate, true);
            }
            (candidates.clone(), false)
        }
    }
}

/// Finds non-trivial SCCs and self-loops among hot fns.
fn find_cycles(fns: &[FnDef], edges: &[CallEdge], hot: &[bool]) -> Vec<Cycle> {
    // Kosaraju over the hot subgraph: deterministic because node
    // order is the (path, line) order of `fns`.
    let n = fns.len();
    let mut fwd: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut self_loop = vec![false; n];
    for e in edges {
        if e.precise && hot[e.caller] && hot[e.callee] {
            if e.caller == e.callee {
                self_loop[e.caller] = true;
            }
            fwd[e.caller].push(e.callee);
            rev[e.callee].push(e.caller);
        }
    }
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    for start in 0..n {
        if seen[start] || !hot[start] {
            continue;
        }
        // Iterative post-order DFS.
        let mut stack = vec![(start, 0usize)];
        seen[start] = true;
        while let Some(&mut (at, ref mut next)) = stack.last_mut() {
            if *next < fwd[at].len() {
                let to = fwd[at][*next];
                *next += 1;
                if !seen[to] {
                    seen[to] = true;
                    stack.push((to, 0));
                }
            } else {
                order.push(at);
                stack.pop();
            }
        }
    }
    let mut comp = vec![usize::MAX; n];
    let mut comp_count = 0usize;
    for &start in order.iter().rev() {
        if comp[start] != usize::MAX {
            continue;
        }
        let mut stack = vec![start];
        comp[start] = comp_count;
        while let Some(at) = stack.pop() {
            for &to in &rev[at] {
                if comp[to] == usize::MAX {
                    comp[to] = comp_count;
                    stack.push(to);
                }
            }
        }
        comp_count += 1;
    }
    let mut members: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (idx, &c) in comp.iter().enumerate() {
        if c != usize::MAX {
            members.entry(c).or_default().push(idx);
        }
    }
    let mut cycles: Vec<Cycle> = Vec::new();
    for (_, mut group) in members {
        if group.len() < 2 && !(group.len() == 1 && self_loop[group[0]]) {
            continue;
        }
        group.sort();
        let bound = group.iter().find_map(|&i| fns[i].recursion_bound.clone());
        cycles.push(Cycle {
            members: group,
            bound,
        });
    }
    cycles.sort_by(|a, b| a.members.cmp(&b.members));
    cycles
}

// ---------------------------------------------------------------------------
// Rule checks (D011 / D012 / D013)
// ---------------------------------------------------------------------------

/// Names whose `.clone()` is treated as a heap clone by D011.
const HEAP_HINTS: &[&str] = &[
    "vec", "buf", "bytes", "string", "text", "items", "samples", "plan", "journal", "records",
];

pub(crate) fn in_scope(def: &FnDef) -> bool {
    HOT_PATH_CRATES.contains(&def.crate_name.as_str())
}

/// Root attribution suffix for diagnostics: `` (hot via `Root::name`)``.
pub(crate) fn via(graph: &CallGraph, fn_idx: usize) -> String {
    match graph.hot_via[fn_idx] {
        Some(root) => format!(" (hot via `{}`)", graph.fns[root].display()),
        None => String::new(),
    }
}

/// Collects local bindings initialised with
/// `with_capacity(<const-resolvable bound>)` inside a body, plus
/// `&mut` parameters (reusable caller-owned buffers): pushes into
/// these are exempt from D011.
pub(crate) fn bounded_receivers(ctx: &FileCtx, def: &FnDef) -> BTreeSet<String> {
    let mut ok = BTreeSet::new();
    let Some((open, close)) = def.body else {
        return ok;
    };
    // `&mut` parameters: `name: &mut …` in the signature, whose
    // tokens sit between the `fn` keyword and the body brace.
    let mut sig = None;
    for j in (0..open).rev() {
        if ctx.is_ident(j, "fn") {
            sig = Some(j);
            break;
        }
    }
    if let Some(fn_at) = sig {
        for j in fn_at..open {
            if ctx.is_punct(j + 1, ":")
                && ctx.is_punct(j + 2, "&")
                && ctx.is_ident(j + 3, "mut")
                && ctx
                    .tok(j)
                    .is_some_and(|t| t.kind == TokenKind::Ident && !is_keyword(&t.text))
            {
                ok.insert(ctx.tokens[j].text.clone());
            }
        }
    }
    // `let [mut] name [: Ty] = …with_capacity(BOUND)…;`
    let mut i = open + 1;
    while i < close {
        if ctx.is_ident(i, "with_capacity")
            && ctx.is_punct(i + 1, "(")
            && capacity_bound_is_const(ctx, i + 1).is_some()
        {
            if let Some(name) = binding_name_before(ctx, i) {
                ok.insert(name);
            }
        }
        i += 1;
    }
    ok
}

/// If the single argument of `with_capacity(` at `open_paren` is
/// const-resolvable (an integer literal or a SCREAMING_CASE const),
/// returns its text.
fn capacity_bound_is_const(ctx: &FileCtx, open_paren: usize) -> Option<String> {
    let arg = ctx.tok(open_paren + 1)?;
    if !ctx.is_punct(open_paren + 2, ")") {
        return None;
    }
    match arg.kind {
        TokenKind::Int => Some(arg.text.clone()),
        TokenKind::Ident
            if arg
                .text
                .chars()
                .all(|c| c.is_ascii_uppercase() || c == '_' || c.is_ascii_digit()) =>
        {
            Some(arg.text.clone())
        }
        _ => None,
    }
}

/// Walks back from a `with_capacity` token through `Type::` and `=`
/// (optionally a `: Ty` annotation) to the bound variable name.
fn binding_name_before(ctx: &FileCtx, at: usize) -> Option<String> {
    let mut j = at;
    // Skip `Type::` or `Type::<T>::` path prefix.
    while j >= 2 && ctx.is_punct(j - 1, "::") {
        j -= 2;
        // Skip a turbofish or generic segment.
        while j >= 1 && (ctx.is_punct(j, ">") || ctx.is_punct(j, "<")) {
            j -= 1;
        }
    }
    if !ctx.is_punct(j - 1, "=") {
        return None;
    }
    let mut k = j - 2;
    // Skip a `: Type<…>` annotation between name and `=`.
    if ctx.is_punct(k, ">") {
        let mut depth = 0i32;
        loop {
            if ctx.is_punct(k, ">") {
                depth += 1;
            } else if ctx.is_punct(k, "<") {
                depth -= 1;
                if depth == 0 {
                    k = k.checked_sub(1)?;
                    break;
                }
            }
            k = k.checked_sub(1)?;
        }
    }
    while ctx.tok(k).is_some_and(|t| {
        t.kind == TokenKind::Ident && !ctx.is_ident(k, "mut") && !is_keyword(&t.text)
    }) && ctx.is_punct(k.checked_sub(1)?, ":")
    {
        k = k.checked_sub(2)?;
    }
    let name_tok = ctx.tok(k)?;
    if name_tok.kind == TokenKind::Ident && !is_keyword(&name_tok.text) {
        Some(name_tok.text.clone())
    } else {
        None
    }
}

/// If token `i` is a D011-style allocation site, returns a short
/// description of what allocates. Shared between D011 diagnostics and
/// the budget summarizer's transient-allocation accounting so the two
/// can never disagree about what counts as an allocation.
pub(crate) fn alloc_site_what(
    ctx: &FileCtx,
    i: usize,
    bounded: &BTreeSet<String>,
) -> Option<String> {
    let tok = &ctx.tokens[i];
    if tok.kind != TokenKind::Ident {
        return None;
    }
    match tok.text.as_str() {
        "new" if ctx.is_punct(i - 1, "::") && ctx.is_punct(i + 1, "(") => {
            match ctx.tok(i.wrapping_sub(2)).map(|t| t.text.as_str()) {
                Some(t @ ("Vec" | "String" | "Box" | "VecDeque" | "BTreeMap" | "BTreeSet")) => {
                    Some(format!("`{t}::new()` allocates unboundedly"))
                }
                _ => None,
            }
        }
        "from" if ctx.is_punct(i - 1, "::") && ctx.is_punct(i + 1, "(") => {
            match ctx.tok(i.wrapping_sub(2)).map(|t| t.text.as_str()) {
                Some("String") => Some("`String::from` allocates".to_string()),
                _ => None,
            }
        }
        "with_capacity" if ctx.is_punct(i + 1, "(") => {
            if capacity_bound_is_const(ctx, i + 1).is_none() {
                Some("`with_capacity` bound is not const-resolvable".to_string())
            } else {
                None
            }
        }
        "push" if ctx.is_punct(i - 1, ".") && ctx.is_punct(i + 1, "(") => {
            let root_recv = receiver_root(ctx, i);
            if root_recv.as_deref().is_some_and(|r| bounded.contains(r)) {
                None
            } else {
                Some("`push` may grow an unbounded buffer".to_string())
            }
        }
        "collect" if ctx.is_punct(i - 1, ".") && ctx.is_punct(i + 1, "(") => {
            Some("`collect` allocates a fresh container".to_string())
        }
        "to_vec" if ctx.is_punct(i - 1, ".") && ctx.is_punct(i + 1, "(") => {
            Some("`to_vec` copies into a fresh allocation".to_string())
        }
        "clone" if ctx.is_punct(i - 1, ".") && ctx.is_punct(i + 1, "(") => {
            let recv = ctx
                .tok(i.wrapping_sub(2))
                .filter(|t| t.kind == TokenKind::Ident)
                .map(|t| t.text.to_ascii_lowercase());
            if recv
                .as_deref()
                .is_some_and(|r| HEAP_HINTS.iter().any(|h| r.contains(h)))
            {
                Some("`clone` of a heap container copies its allocation".to_string())
            } else {
                None
            }
        }
        "format" if ctx.is_punct(i + 1, "!") => Some("`format!` allocates a String".to_string()),
        "vec" if ctx.is_punct(i + 1, "!") => Some("`vec!` allocates".to_string()),
        _ => None,
    }
}

/// D011 — no unbounded allocation in the hot path.
pub fn check_hot_alloc(ws: &Workspace) -> Vec<Diagnostic> {
    let graph = ws.callgraph();
    let mut diags = Vec::new();
    for (fn_idx, def) in graph.fns.iter().enumerate() {
        if !graph.hot[fn_idx] || !in_scope(def) {
            continue;
        }
        let Some((open, close)) = def.body else {
            continue;
        };
        let ctx = &ws.ctxs[def.ctx];
        let bounded = bounded_receivers(ctx, def);
        let suffix = via(graph, fn_idx);
        let mut seen: BTreeSet<u32> = BTreeSet::new();
        for i in open + 1..close {
            let tok = &ctx.tokens[i];
            if tok.kind != TokenKind::Ident || ctx.is_test_line(tok.line) {
                continue;
            }
            if let Some(what) = alloc_site_what(ctx, i, &bounded) {
                if seen.insert(tok.line) {
                    diags.push(Diagnostic {
                        path: def.path.clone(),
                        finding: Finding {
                            rule: "D011",
                            line: tok.line,
                            col: tok.col,
                            message: format!(
                                "{what} in hot-path fn `{}`{suffix}; reuse a per-worker scratch \
                                 buffer, bound it with with_capacity(CONST), or allow with a \
                                 reason",
                                def.display()
                            ),
                        },
                    });
                }
            }
        }
    }
    diags
}

/// The root ident of a dotted receiver chain before `.name(`:
/// `scratch.large.push(…)` → `scratch`.
fn receiver_root(ctx: &FileCtx, name_idx: usize) -> Option<String> {
    let mut j = name_idx - 1; // the `.`
    loop {
        let prev = ctx.tok(j.checked_sub(1)?)?;
        if prev.kind != TokenKind::Ident || is_keyword(&prev.text) {
            return None;
        }
        let j2 = j.checked_sub(2)?;
        if ctx.is_punct(j2, ".") {
            j = j2;
        } else {
            return Some(prev.text.clone());
        }
    }
}

/// D012 — no blocking in the hot path.
pub fn check_hot_blocking(ws: &Workspace) -> Vec<Diagnostic> {
    let graph = ws.callgraph();
    let mut diags = Vec::new();
    for (fn_idx, def) in graph.fns.iter().enumerate() {
        if !graph.hot[fn_idx] || !in_scope(def) {
            continue;
        }
        let Some((open, close)) = def.body else {
            continue;
        };
        let ctx = &ws.ctxs[def.ctx];
        let suffix = via(graph, fn_idx);
        let mut seen: BTreeSet<u32> = BTreeSet::new();
        for i in open + 1..close {
            let tok = &ctx.tokens[i];
            if tok.kind != TokenKind::Ident || ctx.is_test_line(tok.line) {
                continue;
            }
            let recv_hint = || {
                ctx.tok(i.wrapping_sub(2))
                    .filter(|t| t.kind == TokenKind::Ident)
                    .map(|t| t.text.to_ascii_lowercase())
                    .is_some_and(|r| r.contains("lock") || r.contains("mutex") || r.contains("rw"))
            };
            let msg: Option<&str> = match tok.text.as_str() {
                "lock" if ctx.is_punct(i - 1, ".") && ctx.is_punct(i + 1, "(") => {
                    Some("`lock()` may block on a std Mutex")
                }
                "read" | "write"
                    if ctx.is_punct(i - 1, ".") && ctx.is_punct(i + 1, "(") && recv_hint() =>
                {
                    Some("RwLock acquisition may block")
                }
                "recv" | "recv_timeout" | "recv_deadline"
                    if ctx.is_punct(i - 1, ".") && ctx.is_punct(i + 1, "(") =>
                {
                    Some("channel `recv` blocks the worker")
                }
                "sleep"
                    if ctx.is_punct(i - 1, "::") && ctx.is_ident(i.wrapping_sub(2), "thread") =>
                {
                    Some("`thread::sleep` blocks the worker")
                }
                "open" | "create"
                    if ctx.is_punct(i - 1, "::") && ctx.is_ident(i.wrapping_sub(2), "File") =>
                {
                    Some("file I/O blocks the worker")
                }
                "read" | "write" | "read_to_string"
                    if ctx.is_punct(i - 1, "::") && ctx.is_ident(i.wrapping_sub(2), "fs") =>
                {
                    Some("`std::fs` I/O blocks the worker")
                }
                "println" | "eprintln" | "print" | "eprint" | "dbg" if ctx.is_punct(i + 1, "!") => {
                    Some("stdio writes acquire a process-global lock")
                }
                _ => None,
            };
            if let Some(what) = msg {
                if seen.insert(tok.line) {
                    diags.push(Diagnostic {
                        path: def.path.clone(),
                        finding: Finding {
                            rule: "D012",
                            line: tok.line,
                            col: tok.col,
                            message: format!(
                                "{what} in hot-path fn `{}`{suffix}; move it off the query path \
                                 or allow with a reason",
                                def.display()
                            ),
                        },
                    });
                }
            }
        }
    }
    diags
}

/// D013 — recursion cycles in the hot path must declare a depth
/// bound via `lcakp-lint: recursion-bound(<bound>) reason="…"`.
pub fn check_hot_recursion(ws: &Workspace) -> Vec<Diagnostic> {
    let graph = ws.callgraph();
    let mut diags = Vec::new();
    for cycle in &graph.cycles {
        if cycle.bound.is_some() {
            continue;
        }
        let Some(&first) = cycle.members.iter().find(|&&i| in_scope(&graph.fns[i])) else {
            continue;
        };
        let def = &graph.fns[first];
        let names: Vec<String> = cycle
            .members
            .iter()
            .map(|&i| format!("`{}`", graph.fns[i].display()))
            .collect();
        diags.push(Diagnostic {
            path: def.path.clone(),
            finding: Finding {
                rule: "D013",
                line: def.line,
                col: def.col,
                message: format!(
                    "recursion cycle in hot path without a declared depth bound: {}; annotate \
                     one member with `lcakp-lint: recursion-bound(<bound>) reason=\"…\"`",
                    names.join(" -> ")
                ),
            },
        });
    }
    diags
}

// ---------------------------------------------------------------------------
// Canonical JSON
// ---------------------------------------------------------------------------

/// Renders the call graph as canonical JSON: fixed field order,
/// functions sorted by (path, line, col), edges sorted by
/// (caller, callee, line, col), cycles sorted by members. Two runs
/// over the same tree produce byte-identical output.
pub fn render_callgraph_json(graph: &CallGraph) -> String {
    let optional =
        |text: &Option<String>| text.as_deref().map_or_else(|| "null".to_string(), quote);
    let fns = graph.fns.iter().enumerate().map(|(idx, def)| {
        let mut members = vec![
            ("crate", quote(&def.crate_name)),
            ("path", quote(&unix_path(&def.path))),
            ("line", def.line.to_string()),
            ("col", def.col.to_string()),
            ("name", quote(&def.name)),
            ("qualifier", optional(&def.qualifier)),
            ("hot", graph.hot[idx].to_string()),
            ("root", def.root.to_string()),
        ];
        if let Some(bound) = &def.recursion_bound {
            members.push(("recursion_bound", quote(bound)));
        }
        if let Some(budget) = &def.probe_budget {
            members.push(("probe_budget", quote(budget)));
        }
        line(members)
    });
    let edges = graph.edges.iter().map(|e| {
        line([
            ("caller", e.caller.to_string()),
            ("callee", e.callee.to_string()),
            ("line", e.line.to_string()),
            ("col", e.col.to_string()),
            ("kind", quote(e.kind.as_str())),
            ("precise", e.precise.to_string()),
        ])
    });
    let cycles = graph.cycles.iter().map(|cycle| {
        line([
            (
                "members",
                list(cycle.members.iter().map(ToString::to_string)),
            ),
            ("bound", optional(&cycle.bound)),
        ])
    });
    let hot_count = graph.hot.iter().filter(|&&h| h).count();
    let root_count = graph.fns.iter().filter(|d| d.root).count();
    let mut out = object([
        ("version", "1".to_string()),
        ("functions", rows(fns)),
        ("edges", rows(edges)),
        ("cycles", rows(cycles)),
        ("fn_count", graph.fns.len().to_string()),
        ("edge_count", graph.edges.len().to_string()),
        ("hot_count", hot_count.to_string()),
        ("root_count", root_count.to_string()),
    ]);
    out.push('\n');
    out
}
