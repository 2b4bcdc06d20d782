//! Result tables: aligned console rendering and CSV output.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// A rectangular result table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table title (used for the CSV file name and console heading).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows (each the same length as `headers`).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// New empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; panics if the width disagrees with the headers.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width mismatch in {}",
            self.title
        );
        self.rows.push(row);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// CSV encoding (quotes cells containing separators).
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// GitHub-flavored Markdown table (header row + alignment row +
    /// data rows), pipes escaped.
    pub fn to_markdown(&self) -> String {
        let esc = |s: &str| s.replace('|', "\\|");
        let mut out = String::new();
        let _ = writeln!(
            out,
            "| {} |",
            self.headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(" | ")
        );
        let _ = writeln!(
            out,
            "|{}|",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "| {} |",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(" | ")
            );
        }
        out
    }

    /// Write `<dir>/<slug>.csv`, creating the directory.
    pub fn write_csv(&self, dir: &Path) -> io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let slug: String = self
            .title
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '_'
                }
            })
            .collect();
        let path = dir.join(format!("{}.csv", slug.trim_matches('_')));
        std::fs::write(&path, self.to_csv())?;
        Ok(path)
    }
}

/// Format a float with `digits` decimals.
pub fn fmt(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// Format a percentage with sign.
pub fn pct(v: f64) -> String {
    format!("{:+.2}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Fig X", &["bench", "value"]);
        t.push_row(vec!["gcc".into(), "1.25".into()]);
        t.push_row(vec!["swim,fp".into(), "2.50".into()]);
        t
    }

    #[test]
    fn render_aligns() {
        let r = sample().render();
        assert!(r.contains("== Fig X =="));
        assert!(r.contains("gcc"));
    }

    #[test]
    fn markdown_has_header_separator_and_escaping() {
        let mut t = sample();
        t.push_row(vec!["a|b".into(), "3".into()]);
        let md = t.to_markdown();
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines[0], "| bench | value |");
        assert_eq!(lines[1], "|---|---|");
        assert_eq!(lines.len(), 2 + t.rows.len());
        assert!(md.contains("a\\|b"), "{md}");
    }

    #[test]
    fn csv_escapes() {
        let csv = sample().to_csv();
        assert!(csv.starts_with("bench,value\n"));
        assert!(csv.contains("\"swim,fp\""));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_panics() {
        let mut t = Table::new("t", &["a", "b"]);
        t.push_row(vec!["x".into()]);
    }

    #[test]
    fn write_csv_roundtrip() {
        let dir = std::env::temp_dir().join("samie_table_test");
        let path = sample().write_csv(&dir).unwrap();
        let read = std::fs::read_to_string(path).unwrap();
        assert!(read.contains("gcc"));
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(pct(0.0061), "+0.61%");
        assert_eq!(pct(-0.02), "-2.00%");
    }
}
