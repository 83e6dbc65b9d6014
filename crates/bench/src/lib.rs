//! Shared helpers for the experiment binaries (`e1`–`e18`).
//!
//! Every binary prints a self-describing Markdown table so that
//! `EXPERIMENTS.md` can quote its output verbatim; [`Table`] is the tiny
//! formatter they share.

/// A Markdown table accumulator.
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column names.
    pub fn new<I, S>(header: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header length).
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header length.
    pub fn row<I, S>(&mut self, cells: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Renders the table as Markdown.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (index, cell) in row.iter().enumerate() {
                widths[index] = widths[index].max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let mut out = String::from("|");
            for (index, cell) in cells.iter().enumerate() {
                out.push_str(&format!(" {:width$} |", cell, width = widths[index]));
            }
            out
        };
        let mut out = String::new();
        out.push_str(&line(&self.header));
        out.push('\n');
        out.push('|');
        for width in &widths {
            out.push_str(&format!("{:-<width$}|", "", width = width + 2));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Prints a section banner shared by all experiment binaries.
pub fn banner(id: &str, claim: &str, anchor: &str) {
    println!("\n== {id} — {claim}");
    println!("   paper anchor: {anchor}\n");
}

/// Root seed for experiment `name` (`"e8"`, `"e13"`, …), derived by
/// domain separation from the single workspace-wide experiment root.
///
/// Every stream an experiment needs is a further [`Seed::derive`] off
/// this root — no binary hand-picks raw seed integers (lint rule D005),
/// so every table in `EXPERIMENTS.md` is replayable from one constant.
pub fn experiment_root(name: &str) -> lcakp_oracle::Seed {
    // lcakp-lint: allow(D005) reason="the single workspace experiment root constant"
    lcakp_oracle::Seed::from_entropy_u64(0x1ca_4b2e_2025).derive(name, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_markdown() {
        let mut table = Table::new(["n", "rate"]);
        table.row(["10", "0.5"]);
        table.row(["1000", "0.667"]);
        let rendered = table.render();
        assert!(rendered.contains("| n    | rate  |"));
        assert!(rendered.lines().count() == 4);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut table = Table::new(["a"]);
        table.row(["1", "2"]);
    }

    #[test]
    fn experiment_roots_are_separated_and_stable() {
        assert_eq!(experiment_root("e8"), experiment_root("e8"));
        assert_ne!(experiment_root("e8"), experiment_root("e13"));
    }
}
