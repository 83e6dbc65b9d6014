//! SARIF 2.1.0 output for CI and code-scanning integrations.
//!
//! Laid out by `lcakp-canon` like every report of this crate (the lint
//! has no dependency but that std-only leaf), emitting the minimal
//! valid subset of the [SARIF 2.1.0 schema]: one run, the full rule
//! catalogue under `tool.driver.rules` (id, name, short description,
//! default level from the rule's [`Severity`]), and one `result` per
//! diagnostic with a `physicalLocation` region. Output is
//! deterministic: rules in table order, results in the engine's (path,
//! line, col, rule) order.
//!
//! [SARIF 2.1.0 schema]: https://json.schemastore.org/sarif-2.1.0.json

use crate::engine::{unix_path, Diagnostic};
use crate::rules::{all_rules, rule_by_id};
use lcakp_canon::{line, list, object, quote, rows};

/// The `$schema` URI stamped into every report.
pub const SARIF_SCHEMA: &str = "https://json.schemastore.org/sarif-2.1.0.json";

/// Renders diagnostics as a SARIF 2.1.0 document.
pub fn render_sarif(diagnostics: &[Diagnostic]) -> String {
    let rules = all_rules().iter().map(|rule| {
        line([
            ("id", quote(rule.id)),
            ("name", quote(rule.name)),
            ("shortDescription", line([("text", quote(rule.summary))])),
            (
                "defaultConfiguration",
                line([("level", quote(rule.severity.sarif_level()))]),
            ),
        ])
    });
    let results = diagnostics.iter().map(|diagnostic| {
        let rule_index = all_rules()
            .iter()
            .position(|rule| rule.id == diagnostic.finding.rule)
            .unwrap_or(0);
        let level = rule_by_id(diagnostic.finding.rule)
            .map(|rule| rule.severity.sarif_level())
            .unwrap_or("error");
        // SARIF artifact URIs are relative, forward-slashed.
        let location = line([(
            "physicalLocation",
            line([
                (
                    "artifactLocation",
                    line([("uri", quote(&unix_path(&diagnostic.path)))]),
                ),
                (
                    "region",
                    line([
                        ("startLine", diagnostic.finding.line.to_string()),
                        ("startColumn", diagnostic.finding.col.to_string()),
                    ]),
                ),
            ]),
        )]);
        line([
            ("ruleId", quote(diagnostic.finding.rule)),
            ("ruleIndex", rule_index.to_string()),
            ("level", quote(level)),
            (
                "message",
                line([("text", quote(&diagnostic.finding.message))]),
            ),
            ("locations", list([location])),
        ])
    });
    let driver = object([
        ("name", quote("lcakp-lint")),
        ("informationUri", quote("docs/lints.md")),
        ("version", quote(env!("CARGO_PKG_VERSION"))),
        ("rules", rows(rules)),
    ]);
    let run = object([
        ("tool", object([("driver", driver)])),
        ("results", rows(results)),
    ]);
    let mut out = object([
        ("$schema", quote(SARIF_SCHEMA)),
        ("version", quote("2.1.0")),
        ("runs", rows([run])),
    ]);
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Finding;
    use std::path::PathBuf;

    fn sample() -> Vec<Diagnostic> {
        vec![
            Diagnostic {
                path: PathBuf::from("crates/core/src/lca.rs"),
                finding: Finding {
                    rule: "D001",
                    line: 12,
                    col: 5,
                    message: "say \"no\" to HashMap".to_string(),
                },
            },
            Diagnostic {
                path: PathBuf::from("crates/service/src/chaos.rs"),
                finding: Finding {
                    rule: "D009",
                    line: 3,
                    col: 1,
                    message: "stale allow".to_string(),
                },
            },
        ]
    }

    #[test]
    fn report_has_schema_version_and_rule_catalogue() {
        let sarif = render_sarif(&sample());
        assert!(sarif.contains("\"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\""));
        assert!(sarif.contains("\"version\": \"2.1.0\""));
        for rule in all_rules() {
            assert!(
                sarif.contains(&format!("\"id\": \"{}\"", rule.id)),
                "missing rule {} in catalogue",
                rule.id
            );
        }
    }

    #[test]
    fn results_carry_location_level_and_escaped_message() {
        let sarif = render_sarif(&sample());
        assert!(sarif.contains("\"uri\": \"crates/core/src/lca.rs\""));
        assert!(sarif.contains("\"startLine\": 12"));
        assert!(sarif.contains("\"startColumn\": 5"));
        assert!(sarif.contains("say \\\"no\\\" to HashMap"));
        // D001 is an error, D009 a warning.
        assert!(sarif.contains("\"ruleId\": \"D001\", \"ruleIndex\": 0, \"level\": \"error\""));
        assert!(sarif.contains("\"ruleId\": \"D009\", \"ruleIndex\": 8, \"level\": \"warning\""));
    }

    #[test]
    fn empty_report_is_still_valid_shape() {
        let sarif = render_sarif(&[]);
        assert!(sarif.contains("\"results\": []"));
        assert!(sarif.contains("\"runs\": ["));
    }

    #[test]
    fn output_is_deterministic() {
        assert_eq!(render_sarif(&sample()), render_sarif(&sample()));
    }
}
