//! Per-file lint context: tokens plus the two resolution passes the
//! rules need — *which lines are test code* and *what a bare identifier
//! refers to* (use-path resolution).

use crate::lexer::{
    str_literal_value, tokenize_with_comments, Comment, LexError, Token, TokenKind,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One `lcakp-lint: allow(…)` directive, parsed from a *real* comment
/// token — a directive spelled inside a string literal is never an
/// allow. The span covers the whole comment, so the autofix engine can
/// remove a stale directive mechanically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// 1-based line the comment starts on; the directive covers findings
    /// on this line and the next.
    pub line: u32,
    /// 1-based column the comment starts on.
    pub col: u32,
    /// The rule ids listed in `allow(…)`, in source order.
    pub ids: Vec<String>,
    /// The `reason="…"` text, if present. `None` or empty means the
    /// directive is ignored (and the finding annotated).
    pub reason: Option<String>,
    /// Byte offset of the comment's first character.
    pub offset: usize,
    /// Byte length of the whole comment.
    pub len: usize,
}

impl AllowEntry {
    /// True when the directive carries a nonempty written reason.
    pub fn has_reason(&self) -> bool {
        self.reason.as_deref().is_some_and(|r| !r.trim().is_empty())
    }
}

/// A file-local `const NAME: &str = "…";` — the resolver behind derive
/// call sites that pass a named domain constant instead of a literal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstStr {
    /// The constant's string value.
    pub value: String,
    /// 1-based line of the string literal.
    pub line: u32,
    /// Byte offset of the string literal token.
    pub offset: usize,
    /// Byte length of the string literal token (including quotes).
    pub len: usize,
}

/// A fully prepared source file, ready for rule checks.
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// Path as reported in diagnostics (workspace-relative when walked).
    pub path: PathBuf,
    /// Short crate name (`core`, `oracle`, `bench`, `root`, `examples`).
    pub crate_name: String,
    /// The full source text (the autofix engine edits byte spans of it).
    pub src: String,
    /// Raw source lines (for the allow mechanism and rendering).
    pub lines: Vec<String>,
    /// The token stream.
    pub tokens: Vec<Token>,
    /// Every comment, with exact spans.
    pub comments: Vec<Comment>,
    /// Parsed `lcakp-lint: allow(…)` directives.
    pub allows: Vec<AllowEntry>,
    /// `test_lines[line - 1]` is true when the line sits inside a
    /// `#[cfg(test)]` / `#[test]` item.
    pub test_lines: Vec<bool>,
    /// Use-path resolution: local name → full imported path
    /// (`HashMap` → `std::collections::HashMap`).
    pub uses: BTreeMap<String, String>,
    /// File-local string constants (`const D: &str = "…";`), for
    /// resolving named domain labels at derive call sites.
    pub consts: BTreeMap<String, ConstStr>,
}

impl FileCtx {
    /// Builds the context from already-read source text.
    ///
    /// # Errors
    ///
    /// Returns the [`LexError`] if the source fails to tokenize.
    pub fn from_source(
        path: impl Into<PathBuf>,
        crate_name: impl Into<String>,
        src: &str,
    ) -> Result<Self, LexError> {
        let (tokens, comments) = tokenize_with_comments(src)?;
        let lines: Vec<String> = src.lines().map(str::to_string).collect();
        let test_lines = mark_test_lines(&tokens, lines.len());
        let uses = resolve_uses(&tokens);
        let allows = parse_allows(&comments);
        let consts = resolve_str_consts(&tokens);
        Ok(FileCtx {
            path: path.into(),
            crate_name: crate_name.into(),
            src: src.to_string(),
            lines,
            tokens,
            comments,
            allows,
            test_lines,
            uses,
            consts,
        })
    }

    /// Allow directives that cover a finding on 1-based `line`: a
    /// directive on the same line (trailing) or on the preceding line.
    pub fn allows_covering(&self, line: u32) -> impl Iterator<Item = (usize, &AllowEntry)> {
        self.allows
            .iter()
            .enumerate()
            .filter(move |(_, entry)| entry.line == line || entry.line + 1 == line)
    }

    /// True when the 1-based `line` lies in test code.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_lines
            .get(line as usize - 1)
            .copied()
            .unwrap_or(false)
    }

    /// The full path a bare identifier resolves to via this file's `use`
    /// declarations, if any.
    pub fn resolve(&self, name: &str) -> Option<&str> {
        self.uses.get(name).map(String::as_str)
    }

    /// Token at `index`, if in range.
    pub fn tok(&self, index: usize) -> Option<&Token> {
        self.tokens.get(index)
    }

    /// True when token `index` is punctuation with exactly this text.
    pub fn is_punct(&self, index: usize, text: &str) -> bool {
        matches!(self.tok(index), Some(t) if t.kind == TokenKind::Punct && t.text == text)
    }

    /// True when token `index` is an identifier with exactly this text.
    pub fn is_ident(&self, index: usize, text: &str) -> bool {
        matches!(self.tok(index), Some(t) if t.kind == TokenKind::Ident && t.text == text)
    }
}

/// Infers the short crate name from a workspace-relative path:
/// `crates/<name>/…` → `<name>`, `examples/…` → `examples`, everything
/// else (root `src/`, `tests/`) → `root`.
pub fn crate_name_for(path: &Path) -> String {
    let mut components = path.components().map(|c| c.as_os_str().to_string_lossy());
    while let Some(part) = components.next() {
        if part == "crates" {
            if let Some(name) = components.next() {
                return name.into_owned();
            }
        }
        if part == "examples" {
            return "examples".to_string();
        }
    }
    "root".to_string()
}

/// Parses `lcakp-lint: allow(D001, D002) reason="…"` directives out of
/// the collected comments. Working from comment tokens (not raw lines)
/// is what keeps a directive spelled inside a raw string, byte string or
/// other literal from ever being honoured.
fn parse_allows(comments: &[Comment]) -> Vec<AllowEntry> {
    let mut entries = Vec::new();
    for comment in comments {
        // Doc comments never carry directives: documentation *mentions*
        // the allow syntax (as this very comment does) without meaning
        // it, so only plain `//` / `/* */` comments are honoured.
        let is_doc = comment.text.starts_with("///")
            || comment.text.starts_with("//!")
            || comment.text.starts_with("/**")
            || comment.text.starts_with("/*!");
        if is_doc {
            continue;
        }
        let Some(tag_at) = comment.text.find("lcakp-lint:") else {
            continue;
        };
        let rest = comment.text[tag_at + "lcakp-lint:".len()..].trim_start();
        let Some((ids, tail)) = rest
            .strip_prefix("allow(")
            .and_then(|inner| inner.split_once(')'))
        else {
            continue;
        };
        let ids: Vec<String> = ids
            .split(',')
            .map(|id| id.trim().to_string())
            .filter(|id| !id.is_empty())
            .collect();
        if ids.is_empty() {
            continue;
        }
        let reason = tail
            .split_once("reason=\"")
            .and_then(|(_, rest)| rest.split_once('"'))
            .map(|(reason, _)| reason.trim().to_string());
        entries.push(AllowEntry {
            line: comment.line,
            col: comment.col,
            ids,
            reason,
            offset: comment.offset,
            len: comment.text.len(),
        });
    }
    entries
}

/// Collects file-local `const NAME: &str = "…";` (also `&'static str`)
/// declarations into a name → value map with the literal's span.
fn resolve_str_consts(tokens: &[Token]) -> BTreeMap<String, ConstStr> {
    let mut map = BTreeMap::new();
    let mut i = 0usize;
    while i < tokens.len() {
        let is_const = tokens[i].kind == TokenKind::Ident && tokens[i].text == "const";
        if !is_const {
            i += 1;
            continue;
        }
        let Some(name) = tokens.get(i + 1).filter(|t| t.kind == TokenKind::Ident) else {
            i += 1;
            continue;
        };
        // Scan the type between `:` and `=`; it must mention `str`.
        let mut j = i + 2;
        let mut saw_str = false;
        let mut eq_at = None;
        while let Some(token) = tokens.get(j) {
            match token.text.as_str() {
                "=" => {
                    eq_at = Some(j);
                    break;
                }
                ";" => break,
                "str" if token.kind == TokenKind::Ident => saw_str = true,
                _ => {}
            }
            j += 1;
        }
        let Some(eq) = eq_at else {
            i = j + 1;
            continue;
        };
        if saw_str {
            if let Some(lit) = tokens.get(eq + 1).filter(|t| t.kind == TokenKind::Str) {
                if let Some(value) = str_literal_value(&lit.text) {
                    map.insert(
                        name.text.clone(),
                        ConstStr {
                            value,
                            line: lit.line,
                            offset: lit.offset,
                            len: lit.text.len(),
                        },
                    );
                }
            }
        }
        i = eq + 1;
    }
    map
}

/// Marks every line covered by an item carrying a `test`-bearing
/// attribute (`#[test]`, `#[cfg(test)]`, `#[cfg(any(test, …))]`): from
/// the attribute line through the item's closing brace.
fn mark_test_lines(tokens: &[Token], line_count: usize) -> Vec<bool> {
    let mut test = vec![false; line_count];
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].text == "#" && matches!(tokens.get(i + 1), Some(t) if t.text == "[") {
            // Collect the attribute tokens up to the matching `]`.
            let mut j = i + 2;
            let mut bracket_depth = 1usize;
            let mut mentions_test = false;
            while j < tokens.len() && bracket_depth > 0 {
                match tokens[j].text.as_str() {
                    "[" => bracket_depth += 1,
                    "]" => bracket_depth -= 1,
                    "test" if tokens[j].kind == TokenKind::Ident => mentions_test = true,
                    _ => {}
                }
                j += 1;
            }
            if mentions_test {
                let start_line = tokens[i].line;
                // Scan forward to the item body; a `;` first means an
                // item without a body (e.g. `#[cfg(test)] use …;`).
                let mut k = j;
                let mut end_line = tokens[i].line;
                while k < tokens.len() {
                    if tokens[k].text == ";" {
                        end_line = tokens[k].line;
                        break;
                    }
                    if tokens[k].text == "{" {
                        let mut brace_depth = 1usize;
                        k += 1;
                        while k < tokens.len() && brace_depth > 0 {
                            match tokens[k].text.as_str() {
                                "{" => brace_depth += 1,
                                "}" => brace_depth -= 1,
                                _ => {}
                            }
                            k += 1;
                        }
                        end_line = tokens[k.saturating_sub(1).min(tokens.len() - 1)].line;
                        break;
                    }
                    k += 1;
                }
                for line in start_line..=end_line {
                    if let Some(slot) = test.get_mut(line as usize - 1) {
                        *slot = true;
                    }
                }
            }
            i = j;
            continue;
        }
        i += 1;
    }
    test
}

/// Extracts `use` declarations into a name → full-path map, handling
/// nested groups (`use a::{b, c::{d, e as f}};`), aliases and globs
/// (globs map `*` entries under a `<glob>` pseudo-name and are otherwise
/// ignored — the rules fall back to conservative bare-name matching).
fn resolve_uses(tokens: &[Token]) -> BTreeMap<String, String> {
    let mut map = BTreeMap::new();
    let mut i = 0usize;
    while i < tokens.len() {
        let is_use = tokens[i].kind == TokenKind::Ident && tokens[i].text == "use";
        let at_statement = i == 0
            || matches!(
                tokens[i - 1].text.as_str(),
                ";" | "{" | "}" | ")" | "]" | "pub"
            );
        if is_use && at_statement {
            let end = tokens[i..]
                .iter()
                .position(|t| t.text == ";")
                .map(|offset| i + offset)
                .unwrap_or(tokens.len());
            collect_use_tree(&tokens[i + 1..end], String::new(), &mut map);
            i = end + 1;
            continue;
        }
        i += 1;
    }
    map
}

fn collect_use_tree(tokens: &[Token], prefix: String, map: &mut BTreeMap<String, String>) {
    // Split the (sub)tree at top-level commas.
    let mut depth = 0usize;
    let mut start = 0usize;
    let mut parts: Vec<&[Token]> = Vec::new();
    for (index, token) in tokens.iter().enumerate() {
        match token.text.as_str() {
            "{" => depth += 1,
            "}" => depth = depth.saturating_sub(1),
            "," if depth == 0 => {
                parts.push(&tokens[start..index]);
                start = index + 1;
            }
            _ => {}
        }
    }
    parts.push(&tokens[start..]);

    for part in parts {
        if part.is_empty() {
            continue;
        }
        // Walk `seg :: seg :: …` until a group, glob, alias or the end.
        let mut path = prefix.clone();
        let mut last_segment = String::new();
        let mut i = 0usize;
        while i < part.len() {
            let token = &part[i];
            match token.kind {
                TokenKind::Ident if token.text == "as" => {
                    if let Some(alias) = part.get(i + 1) {
                        map.insert(alias.text.clone(), path.clone());
                    }
                    last_segment.clear();
                    i += 2;
                    continue;
                }
                TokenKind::Ident => {
                    if !path.is_empty() {
                        path.push_str("::");
                    }
                    path.push_str(&token.text);
                    last_segment = token.text.clone();
                }
                TokenKind::Punct if token.text == "{" => {
                    // Find the matching close within `part`.
                    let mut depth = 1usize;
                    let mut j = i + 1;
                    while j < part.len() && depth > 0 {
                        match part[j].text.as_str() {
                            "{" => depth += 1,
                            "}" => depth -= 1,
                            _ => {}
                        }
                        j += 1;
                    }
                    // An unclosed group (a file mid-edit) runs to the
                    // end of `part`; a closed one stops before its `}`.
                    let end = if depth == 0 { j - 1 } else { j };
                    collect_use_tree(&part[i + 1..end], path.clone(), map);
                    last_segment.clear();
                    i = j;
                    continue;
                }
                TokenKind::Punct if token.text == "*" => {
                    map.insert(format!("<glob:{path}>"), path.clone());
                    last_segment.clear();
                }
                _ => {}
            }
            i += 1;
        }
        if !last_segment.is_empty() {
            map.insert(last_segment, path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn crate_names() {
        assert_eq!(crate_name_for(Path::new("crates/core/src/lca.rs")), "core");
        assert_eq!(
            crate_name_for(Path::new("examples/quickstart.rs")),
            "examples"
        );
        assert_eq!(crate_name_for(Path::new("src/lib.rs")), "root");
    }

    #[test]
    fn use_resolution_handles_groups_and_aliases() {
        let ctx = FileCtx::from_source(
            "x.rs",
            "core",
            "use std::collections::{HashMap, BTreeMap as Tree};\nuse rand::thread_rng;\n",
        )
        .unwrap();
        assert_eq!(ctx.resolve("HashMap"), Some("std::collections::HashMap"));
        assert_eq!(ctx.resolve("Tree"), Some("std::collections::BTreeMap"));
        assert_eq!(ctx.resolve("thread_rng"), Some("rand::thread_rng"));
        assert_eq!(ctx.resolve("BTreeMap"), None);
    }

    #[test]
    fn cfg_test_blocks_are_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn tail() {}\n";
        let ctx = FileCtx::from_source("x.rs", "core", src).unwrap();
        assert!(!ctx.is_test_line(1));
        assert!(ctx.is_test_line(2));
        assert!(ctx.is_test_line(3));
        assert!(ctx.is_test_line(4));
        assert!(ctx.is_test_line(5));
        assert!(!ctx.is_test_line(6));
    }

    #[test]
    fn allow_entries_come_from_real_comments_only() {
        let src = concat!(
            "// lcakp-lint: allow(D001, D002) reason=\"demo\"\n",
            "let s = \"// lcakp-lint: allow(D005) reason=\\\"in a string\\\"\";\n",
            "let r = r#\"// lcakp-lint: allow(D004) reason=\"raw\"\"#;\n",
        );
        let ctx = FileCtx::from_source("x.rs", "core", src).unwrap();
        assert_eq!(ctx.allows.len(), 1, "{:?}", ctx.allows);
        assert_eq!(ctx.allows[0].ids, vec!["D001", "D002"]);
        assert!(ctx.allows[0].has_reason());
        assert_eq!(ctx.allows[0].line, 1);
    }

    #[test]
    fn doc_comments_never_carry_directives() {
        let src = concat!(
            "//! // lcakp-lint: allow(D005) reason=\"doc example\"\n",
            "/// Suppress with `lcakp-lint: allow(D001) reason=\"…\"`.\n",
            "fn f() {}\n",
            "// lcakp-lint: allow(D002) reason=\"real directive\"\n",
            "fn g() {}\n",
        );
        let ctx = FileCtx::from_source("x.rs", "core", src).unwrap();
        assert_eq!(ctx.allows.len(), 1, "{:?}", ctx.allows);
        assert_eq!(ctx.allows[0].ids, vec!["D002"]);
    }

    #[test]
    fn allow_without_reason_is_parsed_but_reasonless() {
        let src = "// lcakp-lint: allow(D003)\nfn f() {}\n";
        let ctx = FileCtx::from_source("x.rs", "core", src).unwrap();
        assert_eq!(ctx.allows.len(), 1);
        assert!(!ctx.allows[0].has_reason());
    }

    #[test]
    fn str_consts_resolve_with_spans() {
        let src = "const DOMAIN: &str = \"fault/access\";\nconst N: usize = 3;\npub const S: &'static str = r#\"a/b\"#;\n";
        let ctx = FileCtx::from_source("x.rs", "core", src).unwrap();
        assert_eq!(ctx.consts.len(), 2, "{:?}", ctx.consts);
        let domain = &ctx.consts["DOMAIN"];
        assert_eq!(domain.value, "fault/access");
        assert_eq!(
            &src[domain.offset..domain.offset + domain.len],
            "\"fault/access\""
        );
        assert_eq!(ctx.consts["S"].value, "a/b");
    }

    #[test]
    fn test_attribute_marks_single_fn() {
        let src = "#[test]\nfn t() {\n    body();\n}\nfn live() {}\n";
        let ctx = FileCtx::from_source("x.rs", "core", src).unwrap();
        assert!(ctx.is_test_line(1));
        assert!(ctx.is_test_line(3));
        assert!(!ctx.is_test_line(5));
    }
}
