//! The seed-derivation graph: every `.derive("label", index)` and
//! `.rng()` call site across the workspace, with the domain label
//! resolved where it is statically known.
//!
//! This is the data the cross-file rules run on. The determinism
//! contract (docs/robustness.md) demands that every random stream hang
//! off the root seed under a *distinct* domain label — a single
//! duplicated label silently correlates two "independent" streams and
//! invalidates the `1 − ε` consistency analysis. The graph makes that
//! property checkable: D007 looks for label collisions across the whole
//! tree, D008 for label-convention violations, and `--emit-graph`
//! persists the graph as a deterministic JSON artifact so external
//! tooling (and humans) can audit the seed tree.
//!
//! The analysis is token-level, like the rest of the crate: a label is
//! *literal* when the call site passes a string literal, *const* when it
//! passes a file-local `const NAME: &str = "…"`, and *dynamic*
//! otherwise (a variable or expression — recorded, but exempt from the
//! label rules, which cannot evaluate it).

use crate::context::FileCtx;
use crate::engine::unix_path;
use crate::lexer::{str_literal_value, TokenKind};
use lcakp_canon::{line, object, quote, rows};

/// How a derive call site names its domain label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LabelSource {
    /// A string literal at the call site.
    Literal(String),
    /// A file-local string constant, resolved to its value.
    Const {
        /// The constant's name.
        name: String,
        /// The constant's resolved string value.
        value: String,
    },
    /// A variable or expression the lint cannot evaluate.
    Dynamic(String),
}

impl LabelSource {
    /// The statically known label value, if any.
    pub fn value(&self) -> Option<&str> {
        match self {
            LabelSource::Literal(value) => Some(value),
            LabelSource::Const { value, .. } => Some(value),
            LabelSource::Dynamic(_) => None,
        }
    }
}

/// One `.derive(label, index)` call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeriveSite {
    /// Workspace-relative path, with `/` separators.
    pub path: String,
    /// Short crate name the file belongs to.
    pub crate_name: String,
    /// 1-based line of the `derive` identifier.
    pub line: u32,
    /// 1-based column of the `derive` identifier.
    pub col: u32,
    /// The domain label, as resolved as it can be.
    pub label: LabelSource,
    /// True when the index argument is a single integer literal — a
    /// constant stream index rather than a loop variable.
    pub index_constant: bool,
    /// The index argument's source text (joined tokens).
    pub index_text: String,
    /// Byte span of the label token at the call site when the label is a
    /// literal — the autofix engine's rename target.
    pub label_span: Option<(usize, usize)>,
}

/// One `.rng()` call site — where a derived seed becomes a stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RngSite {
    /// Workspace-relative path, with `/` separators.
    pub path: String,
    /// Short crate name the file belongs to.
    pub crate_name: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// The workspace-wide seed-derivation graph.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeedGraph {
    /// Every derive call site, sorted by (path, line, col).
    pub derives: Vec<DeriveSite>,
    /// Every `.rng()` call site, sorted by (path, line, col).
    pub rngs: Vec<RngSite>,
}

/// Joins the source text of a token range, `(`-to-`)` style, for
/// recording dynamic label / index expressions.
fn join_tokens(ctx: &FileCtx, range: std::ops::Range<usize>) -> String {
    let mut out = String::new();
    for index in range {
        if let Some(token) = ctx.tok(index) {
            if !out.is_empty()
                && token.kind != TokenKind::Punct
                && !out.ends_with("::")
                && token.text != "::"
            {
                out.push(' ');
            }
            out.push_str(&token.text);
        }
    }
    out
}

/// Builds the graph from prepared file contexts. Test lines are skipped:
/// test code may replay or collide labels at will (and routinely does,
/// to assert determinism), so only production call sites enter the
/// graph.
pub fn build_graph(ctxs: &[FileCtx]) -> SeedGraph {
    let mut graph = SeedGraph::default();
    for ctx in ctxs {
        let path = unix_path(&ctx.path);
        for (index, token) in ctx.tokens.iter().enumerate() {
            if token.kind != TokenKind::Ident {
                continue;
            }
            if ctx.is_test_line(token.line) {
                continue;
            }
            let is_method = index >= 1 && ctx.is_punct(index - 1, ".");
            if !is_method {
                continue;
            }
            match token.text.as_str() {
                "rng" if ctx.is_punct(index + 1, "(") && ctx.is_punct(index + 2, ")") => {
                    graph.rngs.push(RngSite {
                        path: path.clone(),
                        crate_name: ctx.crate_name.clone(),
                        line: token.line,
                        col: token.col,
                    });
                }
                "derive" if ctx.is_punct(index + 1, "(") => {
                    if let Some(site) = derive_site_at(ctx, &path, index) {
                        graph.derives.push(site);
                    }
                }
                _ => {}
            }
        }
    }
    graph
        .derives
        .sort_by(|a, b| (&a.path, a.line, a.col).cmp(&(&b.path, b.line, b.col)));
    graph
        .rngs
        .sort_by(|a, b| (&a.path, a.line, a.col).cmp(&(&b.path, b.line, b.col)));
    graph
}

/// Parses the argument list of the `.derive(` whose `derive` identifier
/// sits at token `index`, classifying the label and index arguments.
fn derive_site_at(ctx: &FileCtx, path: &str, index: usize) -> Option<DeriveSite> {
    let open = index + 1; // the `(`
    let mut depth = 0usize;
    let mut comma_at = None;
    let mut close_at = None;
    for j in open..ctx.tokens.len() {
        match ctx.tokens[j].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    close_at = Some(j);
                    break;
                }
            }
            "," if depth == 1 && comma_at.is_none() => comma_at = Some(j),
            _ => {}
        }
    }
    let close = close_at?;
    let label_range = open + 1..comma_at.unwrap_or(close);
    if label_range.is_empty() {
        return None;
    }
    let single_label_token = label_range.len() == 1;
    let label_token = &ctx.tokens[label_range.start];
    let (label, label_span) = if single_label_token && label_token.kind == TokenKind::Str {
        match str_literal_value(&label_token.text) {
            Some(value) => (
                LabelSource::Literal(value),
                Some((label_token.offset, label_token.text.len())),
            ),
            None => (LabelSource::Dynamic(label_token.text.clone()), None),
        }
    } else if single_label_token && label_token.kind == TokenKind::Ident {
        match ctx.consts.get(&label_token.text) {
            Some(konst) => (
                LabelSource::Const {
                    name: label_token.text.clone(),
                    value: konst.value.clone(),
                },
                None,
            ),
            None => (LabelSource::Dynamic(label_token.text.clone()), None),
        }
    } else {
        (LabelSource::Dynamic(join_tokens(ctx, label_range)), None)
    };
    let index_range = match comma_at {
        Some(comma) => comma + 1..close,
        None => close..close,
    };
    let index_constant = index_range.len() == 1
        && matches!(ctx.tok(index_range.start), Some(t) if t.kind == TokenKind::Int);
    let index_text = join_tokens(ctx, index_range);
    let token = &ctx.tokens[index];
    Some(DeriveSite {
        path: path.to_string(),
        crate_name: ctx.crate_name.clone(),
        line: token.line,
        col: token.col,
        label,
        index_constant,
        index_text,
        label_span,
    })
}

/// Renders the graph as a stable, deterministic JSON document — the
/// `--emit-graph` artifact. Byte-identical across runs and platforms
/// for the same tree.
pub fn render_graph_json(graph: &SeedGraph) -> String {
    let derives = graph.derives.iter().map(|site| {
        let mut members = vec![
            ("crate", quote(&site.crate_name)),
            ("path", quote(&site.path)),
            ("line", site.line.to_string()),
            ("col", site.col.to_string()),
        ];
        match &site.label {
            LabelSource::Literal(value) => {
                members.push(("label_kind", quote("literal")));
                members.push(("label", quote(value)));
            }
            LabelSource::Const { name, value } => {
                members.push(("label_kind", quote("const")));
                members.push(("label", quote(value)));
                members.push(("const_name", quote(name)));
            }
            LabelSource::Dynamic(expr) => {
                members.push(("label_kind", quote("dynamic")));
                members.push(("label_expr", quote(expr)));
            }
        }
        members.push(("index_constant", site.index_constant.to_string()));
        members.push(("index", quote(&site.index_text)));
        line(members)
    });
    let rngs = graph.rngs.iter().map(|site| {
        line([
            ("crate", quote(&site.crate_name)),
            ("path", quote(&site.path)),
            ("line", site.line.to_string()),
            ("col", site.col.to_string()),
        ])
    });
    let mut out = object([
        ("version", "1".to_string()),
        ("derive_sites", rows(derives)),
        ("rng_sites", rows(rngs)),
        ("derive_count", graph.derives.len().to_string()),
        ("rng_count", graph.rngs.len().to_string()),
    ]);
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_of(files: &[(&str, &str, &str)]) -> SeedGraph {
        let ctxs: Vec<FileCtx> = files
            .iter()
            .map(|(path, krate, src)| FileCtx::from_source(*path, *krate, src).unwrap())
            .collect();
        build_graph(&ctxs)
    }

    #[test]
    fn literal_const_and_dynamic_labels_classify() {
        let src = "const D: &str = \"svc/fault\";\n\
                   fn f(root: Seed, k: u64, name: &str) {\n\
                       let a = root.derive(\"svc/query\", 0);\n\
                       let b = root.derive(D, k);\n\
                       let c = root.derive(name, 1);\n\
                       let r = a.rng();\n\
                   }\n";
        let graph = graph_of(&[("crates/svc/src/lib.rs", "svc", src)]);
        assert_eq!(graph.derives.len(), 3);
        assert_eq!(
            graph.derives[0].label,
            LabelSource::Literal("svc/query".into())
        );
        assert!(graph.derives[0].index_constant);
        assert_eq!(
            graph.derives[1].label,
            LabelSource::Const {
                name: "D".into(),
                value: "svc/fault".into()
            }
        );
        assert!(!graph.derives[1].index_constant);
        assert_eq!(graph.derives[2].label, LabelSource::Dynamic("name".into()));
        assert_eq!(graph.rngs.len(), 1);
    }

    #[test]
    fn label_span_slices_back_to_the_literal() {
        let src = "fn f(root: Seed) { let a = root.derive(\"a/b\", 0); }\n";
        let graph = graph_of(&[("x.rs", "core", src)]);
        let (offset, len) = graph.derives[0].label_span.unwrap();
        assert_eq!(&src[offset..offset + len], "\"a/b\"");
    }

    #[test]
    fn test_lines_are_excluded() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t(root: Seed) { root.derive(\"x\", 0); }\n}\n";
        let graph = graph_of(&[("x.rs", "core", src)]);
        assert!(graph.derives.is_empty());
    }

    #[test]
    fn chained_derives_both_recorded() {
        let src =
            "fn f(root: Seed, q: u64) { let s = root.derive(\"a/b\", q).derive(\"c/d\", 0); }\n";
        let graph = graph_of(&[("x.rs", "core", src)]);
        assert_eq!(graph.derives.len(), 2);
        assert_eq!(graph.derives[0].label.value(), Some("a/b"));
        assert_eq!(graph.derives[1].label.value(), Some("c/d"));
    }

    #[test]
    fn json_is_deterministic() {
        let files = [
            ("b.rs", "core", "fn f(r: Seed) { r.derive(\"b/x\", 1); }\n"),
            (
                "a.rs",
                "core",
                "fn g(r: Seed) { r.derive(\"a/y\", 0).rng(); }\n",
            ),
        ];
        let first = render_graph_json(&graph_of(&files));
        let second = render_graph_json(&graph_of(&files));
        assert_eq!(first, second);
        assert!(first.contains("\"version\": 1"));
        // Sorted by path: a.rs before b.rs regardless of input order.
        assert!(first.find("a.rs").unwrap() < first.find("b.rs").unwrap());
    }
}
