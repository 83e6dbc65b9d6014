//! The canonical layout: the escaper, empty arrays, nesting.

use lcakp_canon::{line, list, object, quote, rows};

#[test]
fn quote_escapes_quotes_backslashes_and_named_controls() {
    assert_eq!(quote(r#"say "no""#), r#""say \"no\"""#);
    assert_eq!(quote(r"C:\tmp"), r#""C:\\tmp""#);
    assert_eq!(quote("a\nb\tc\rd"), r#""a\nb\tc\rd""#);
}

#[test]
fn quote_writes_other_controls_as_unicode_escapes() {
    assert_eq!(quote("\u{0}"), r#""\u0000""#);
    assert_eq!(quote("\u{1b}[0m"), r#""\u001b[0m""#);
    assert_eq!(quote("\u{1f}"), r#""\u001f""#);
    // DEL is not a JSON control character.
    assert_eq!(quote("\u{7f}"), "\"\u{7f}\"");
}

#[test]
fn quote_passes_non_ascii_through() {
    assert_eq!(quote("ε = 1/6, Ĩ ≥ ½ · OPT"), "\"ε = 1/6, Ĩ ≥ ½ · OPT\"");
    assert_eq!(quote(""), "\"\"");
}

#[test]
fn empty_collections_render_closed() {
    let none: [&str; 0] = [];
    assert_eq!(rows(none), "[]");
    assert_eq!(list(none), "[]");
    assert_eq!(object(none.iter().map(|v| ("k", v))), "{}");
    assert_eq!(line(none.iter().map(|v| ("k", v))), "{}");
}

#[test]
fn one_line_shapes_separate_with_comma_space() {
    assert_eq!(list(["1", "2", "3"]), "[1, 2, 3]");
    assert_eq!(line([("a", "1"), ("b", "null")]), r#"{"a": 1, "b": null}"#);
    assert_eq!(line([("k", list(["true"]))]), r#"{"k": [true]}"#);
}

#[test]
fn keys_go_through_the_escaper() {
    assert_eq!(line([("a\"b", "1")]), r#"{"a\"b": 1}"#);
}

#[test]
fn rows_put_one_element_per_line() {
    assert_eq!(
        rows([line([("case", "0")]), line([("case", "1")])]),
        "[\n  {\"case\": 0},\n  {\"case\": 1}\n]"
    );
}

#[test]
fn nested_objects_indent_one_level_per_depth() {
    let inner = object([("x", "1"), ("y", "2")]);
    let doc = object([
        (
            "outer",
            object([("inner", inner.clone()), ("z", "3".into())]),
        ),
        ("rows", rows([inner, line([("w", "4")])])),
        ("empty", rows(Vec::<String>::new())),
    ]);
    assert_eq!(
        doc,
        "{\n  \"outer\": {\n    \"inner\": {\n      \"x\": 1,\n      \"y\": 2\n    },\n    \
         \"z\": 3\n  },\n  \"rows\": [\n    {\n      \"x\": 1,\n      \"y\": 2\n    },\n    \
         {\"w\": 4}\n  ],\n  \"empty\": []\n}"
    );
}

#[test]
fn escaped_newlines_in_strings_are_not_reindented() {
    assert_eq!(
        rows([quote("a\nb")]),
        "[\n  \"a\\nb\"\n]",
        "a string's newline is escaped, never layout"
    );
}
