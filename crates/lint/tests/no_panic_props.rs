//! Building a [`FileCtx`] and running [`Workspace::diagnostics`] never
//! panics, whatever the source: a file being edited is routinely
//! ill-formed (an unclosed `use {`, a stray brace), and the linter must
//! report on it rather than crash. Arbitrary strings mostly exercise the
//! lexer; soups of Rust tokens get past it into the use-tree, label and
//! call-graph passes.

use lcakp_lint::{FileCtx, Workspace};
use proptest::collection::vec;
use proptest::prelude::*;

/// The vocabulary token soups draw from: the punctuation and keywords
/// the use-tree, attribute and item passes branch on, plus a few
/// identifiers and literals. Kept small so short soups often form a
/// statement the passes actually parse.
const TOKENS: [&str; 24] = [
    "use", "{", "}", "::", ";", ",", "*", "as", "a", "std", "fn", "(", ")", "[", "]", "#", "!",
    "mod", "cfg", "test", "\"x/y\"", ".", "derive", "\n",
];

fn lint(src: &str) {
    if let Ok(ctx) = FileCtx::from_source("crates/core/src/edit.rs", "core", src) {
        let _ = Workspace::from_ctxs(vec![ctx]).diagnostics();
    }
}

#[test]
fn unclosed_use_groups_do_not_panic() {
    for src in [
        "use {",
        "use a::{",
        "use {;;",
        "use std::{;",
        "use a::{b, {",
    ] {
        lint(src);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn arbitrary_strings_never_panic(codes in vec(0u32..0x800, 0..96)) {
        let src: String = codes.into_iter().filter_map(char::from_u32).collect();
        lint(&src);
    }

    #[test]
    fn token_soups_never_panic(picks in vec(0..TOKENS.len(), 0..24)) {
        let src: Vec<&str> = picks.into_iter().map(|pick| TOKENS[pick]).collect();
        lint(&src.join(" "));
    }
}
