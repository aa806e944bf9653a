//! Shared reporting helpers for the table/figure regeneration binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper's evaluation; this library provides the row formatting and the
//! paper-vs-measured comparison printing used by all of them.

#![deny(missing_docs)]

/// One row of a regenerated table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (scheme / configuration name).
    pub label: String,
    /// Column values as preformatted strings.
    pub values: Vec<String>,
}

/// A regenerated table with a title and column headers.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table title (e.g. "Table I").
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows.
    pub rows: Vec<Row>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push(&mut self, label: impl Into<String>, values: Vec<String>) {
        self.rows.push(Row {
            label: label.into(),
            values,
        });
    }

    /// Pretty-prints the table with aligned columns.
    pub fn print(&self) {
        println!("== {} ==", self.title);
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        let label_width = self
            .rows
            .iter()
            .map(|r| r.label.len())
            .chain(std::iter::once(8))
            .max()
            .unwrap_or(8);
        for row in &self.rows {
            for (i, v) in row.values.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(v.len());
                }
            }
        }
        print!("{:label_width$}", "");
        for (h, w) in self.headers.iter().zip(&widths) {
            print!("  {h:>w$}");
        }
        println!();
        for row in &self.rows {
            print!("{:label_width$}", row.label);
            for (v, w) in row.values.iter().zip(&widths) {
                print!("  {v:>w$}");
            }
            println!();
        }
        println!();
    }

    /// Renders the table as a JSON object for tooling, without any
    /// serialisation dependency.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"title\":{},", json_string(&self.title)));
        out.push_str("\"headers\":[");
        for (i, h) in self.headers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_string(h));
        }
        out.push_str("],\"rows\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"label\":{},\"values\":[",
                json_string(&row.label)
            ));
            for (j, v) in row.values.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&json_string(v));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

/// Escapes `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a boolean detection verdict the way the paper's Table I does.
pub fn verdict(detected: bool) -> String {
    if detected { "True" } else { "False" }.to_string()
}

/// Formats a rate as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_builds_and_prints() {
        let mut t = Table::new("Test", &["A", "B"]);
        t.push("row1", vec!["1".into(), "2".into()]);
        assert_eq!(t.rows.len(), 1);
        t.print(); // smoke: must not panic
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(verdict(true), "True");
        assert_eq!(verdict(false), "False");
        assert_eq!(pct(0.361), "36.1%");
    }

    #[test]
    fn table_json_is_wellformed() {
        let mut t = Table::new("T \"x\"", &["A"]);
        t.push("r\n1", vec!["v".into()]);
        let json = t.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\\\"x\\\""));
        assert!(json.contains("r\\n1"));
    }
}
