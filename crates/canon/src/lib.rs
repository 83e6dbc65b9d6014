//! `lcakp-canon` — the one canonical JSON layout.
//!
//! The reproduction's evidence for consistency (Theorem 4.1) and
//! statelessness (Definition 2.4) is byte-level: the same seed must
//! give the same report bytes. Every deterministic report of the
//! workspace — the linter's findings, SARIF, seed graph, call graph and
//! probe-budget certificate, E14's chaos report, the E15–E18 simulator
//! reports and the allocation audit — therefore renders through these
//! five functions, so they agree on where commas go, how an empty array
//! looks and how strings are escaped:
//!
//! - [`object`]: one `"key": value` member per line;
//! - [`line`]: a one-line object `{"k": v, …}`;
//! - [`rows`]: an array with one element per line, `[]` when empty;
//! - [`list`]: a one-line array `[a, b]`;
//! - [`quote`]: a JSON string literal — the one escaper.
//!
//! The layout has no options. Values are JSON text the caller has
//! already rendered: numbers through `to_string`, ratios formatted by
//! the caller and quoted, nested values from these same functions. A
//! multi-line value nested in [`object`] or [`rows`] moves one level
//! (two spaces) deeper as a whole, so nesting needs no depth argument.
//! Nothing appends a trailing newline.
//!
//! ```
//! use lcakp_canon::{list, object, quote, rows};
//!
//! let report = object([
//!     ("label", quote("smoke")),
//!     ("ticks", list(["3", "5"])),
//!     ("cases", rows(Vec::<String>::new())),
//! ]);
//! assert_eq!(
//!     report,
//!     "{\n  \"label\": \"smoke\",\n  \"ticks\": [3, 5],\n  \"cases\": []\n}"
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

/// `text` as a JSON string literal: quoted, with `"`, `\` and every
/// control character escaped (`\n`, `\t`, `\r` by name, the rest as
/// `\u00xx`). Everything else, non-ASCII included, passes through.
#[must_use]
pub fn quote(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    push_quoted(&mut out, text);
    out
}

/// A multi-line object: one `"key": value` member per line, two spaces
/// deeper than its braces; `{}` when empty.
#[must_use]
pub fn object<'a, V: AsRef<str>>(members: impl IntoIterator<Item = (&'a str, V)>) -> String {
    join('{', members, '}', true, push_member)
}

/// A one-line object: `{"k": v, "l": w}`.
#[must_use]
pub fn line<'a, V: AsRef<str>>(members: impl IntoIterator<Item = (&'a str, V)>) -> String {
    join('{', members, '}', false, push_member)
}

/// An array of rows: one element per line, two spaces deeper than its
/// brackets; `[]` when empty.
#[must_use]
pub fn rows<V: AsRef<str>>(elements: impl IntoIterator<Item = V>) -> String {
    join('[', elements, ']', true, push_element)
}

/// A one-line array: `[a, b]`.
#[must_use]
pub fn list<V: AsRef<str>>(elements: impl IntoIterator<Item = V>) -> String {
    join('[', elements, ']', false, push_element)
}

fn push_quoted(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_element<V: AsRef<str>>(out: &mut String, element: V) {
    out.push_str(element.as_ref());
}

fn push_member<V: AsRef<str>>(out: &mut String, (key, value): (&str, V)) {
    push_quoted(out, key);
    out.push_str(": ");
    out.push_str(value.as_ref());
}

/// Writes `items` between `open` and `close`: one per line, two spaces
/// deeper, when `rows`; otherwise on one line, separated by `, `.
fn join<I: IntoIterator>(
    open: char,
    items: I,
    close: char,
    rows: bool,
    push: impl Fn(&mut String, I::Item),
) -> String {
    let mut out = String::new();
    out.push(open);
    let mut empty = true;
    for item in items {
        out.push_str(match (rows, empty) {
            (true, true) => "\n  ",
            (true, false) => ",\n  ",
            (false, true) => "",
            (false, false) => ", ",
        });
        empty = false;
        let start = out.len();
        push(&mut out, item);
        // Strings never hold a raw newline (`quote` escapes it), so every
        // newline in an element is layout and moves one level deeper.
        if out[start..].contains('\n') {
            let element = out.split_off(start);
            out.push_str(&element.replace('\n', "\n  "));
        }
    }
    if rows && !empty {
        out.push('\n');
    }
    out.push(close);
    out
}
