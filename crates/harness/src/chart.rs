//! Deterministic SVG bar charts for the reproduction book.
//!
//! A figure's table as a self-contained SVG file the Markdown page
//! embeds.
//! Output is a pure function of the table contents — no timestamps, no
//! randomness — so regenerating a book produces byte-identical charts
//! (the invariant the `report-smoke` CI job diffs).

use std::fmt::Write as _;

use crate::table::Table;

/// Bar fill for non-negative values (accessible mid-blue).
const POS_FILL: &str = "#4c78a8";
/// Bar fill for negative values (accessible red).
const NEG_FILL: &str = "#e45756";
/// Text / axis color.
const INK: &str = "#333333";

/// Render `value_col` of `t` as a horizontal bar chart, one bar per row,
/// labelled from `label_col`. Rows whose value cell does not parse as a
/// number (e.g. blank summary cells) are skipped, mirroring the ASCII
/// chart. Negative values grow left of a zero axis (Figure 5's IPC-loss
/// bars go both ways).
pub fn svg_bar_chart(t: &Table, label_col: usize, value_col: usize) -> String {
    let rows: Vec<(&str, f64)> = t
        .rows
        .iter()
        .filter_map(|r| {
            let v: f64 = r.get(value_col)?.parse().ok()?;
            Some((r[label_col].as_str(), v))
        })
        .collect();

    let row_h = 18.0;
    let top = 28.0;
    let label_w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(4).max(4) as f64 * 7.2 + 12.0;
    let bar_area = 420.0;
    let value_w = 70.0;
    let width = label_w + bar_area + value_w;
    let height = top + rows.len() as f64 * row_h + 10.0;

    let max_abs = rows
        .iter()
        .map(|(_, v)| v.abs())
        .fold(0.0f64, f64::max)
        .max(1e-12);
    let has_neg = rows.iter().any(|(_, v)| *v < 0.0);
    let neg_w = if has_neg { bar_area * 0.25 } else { 0.0 };
    let pos_w = bar_area - neg_w;
    let axis_x = label_w + neg_w;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width:.0}\" height=\"{height:.0}\" \
         viewBox=\"0 0 {width:.0} {height:.0}\" font-family=\"monospace\" font-size=\"12\">"
    );
    let _ = writeln!(
        out,
        "  <text x=\"4\" y=\"16\" fill=\"{INK}\" font-weight=\"bold\">{} [{}]</text>",
        xml_escape(&t.title),
        xml_escape(&t.headers[value_col])
    );
    for (i, (label, v)) in rows.iter().enumerate() {
        let y = top + i as f64 * row_h;
        let bar_len = (v.abs() / max_abs) * if *v < 0.0 { neg_w } else { pos_w };
        let (x, fill) = if *v < 0.0 {
            (axis_x - bar_len, NEG_FILL)
        } else {
            (axis_x, POS_FILL)
        };
        let _ = writeln!(
            out,
            "  <text x=\"{:.1}\" y=\"{:.1}\" fill=\"{INK}\" text-anchor=\"end\">{}</text>",
            label_w - 6.0,
            y + 13.0,
            xml_escape(label)
        );
        let _ = writeln!(
            out,
            "  <rect x=\"{x:.1}\" y=\"{:.1}\" width=\"{bar_len:.1}\" height=\"{:.1}\" fill=\"{fill}\"/>",
            y + 3.0,
            row_h - 6.0
        );
        let _ = writeln!(
            out,
            "  <text x=\"{:.1}\" y=\"{:.1}\" fill=\"{INK}\">{v:.2}</text>",
            axis_x + pos_w + 6.0,
            y + 13.0
        );
    }
    // Zero axis over the full bar rows.
    let _ = writeln!(
        out,
        "  <line x1=\"{axis_x:.1}\" y1=\"{:.1}\" x2=\"{axis_x:.1}\" y2=\"{:.1}\" stroke=\"{INK}\" stroke-width=\"1\"/>",
        top - 2.0,
        top + rows.len() as f64 * row_h + 2.0
    );
    out.push_str("</svg>\n");
    out
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Figure X", &["bench", "loss_%"]);
        t.push_row(vec!["ammp".into(), "5.0".into()]);
        t.push_row(vec!["fma3d".into(), "-6.0".into()]);
        t.push_row(vec!["SPEC".into(), String::new()]); // skipped
        t
    }

    #[test]
    fn chart_is_deterministic_and_well_formed() {
        let a = svg_bar_chart(&sample(), 0, 1);
        let b = svg_bar_chart(&sample(), 0, 1);
        assert_eq!(a, b, "same table, same bytes");
        assert!(a.starts_with("<svg "));
        assert!(a.ends_with("</svg>\n"));
        assert_eq!(a.matches("<rect ").count(), 2, "one bar per numeric row");
        assert!(a.contains("ammp") && a.contains("fma3d"));
        assert!(!a.contains("SPEC"), "blank cells are skipped");
        assert!(a.contains(NEG_FILL), "negative bar uses the negative fill");
    }

    #[test]
    fn labels_are_escaped() {
        let mut t = Table::new("a<b", &["x", "y"]);
        t.push_row(vec!["p&q".into(), "1.0".into()]);
        let svg = svg_bar_chart(&t, 0, 1);
        assert!(svg.contains("a&lt;b"));
        assert!(svg.contains("p&amp;q"));
        assert!(!svg.contains("p&q"));
    }

    #[test]
    fn empty_table_renders_header_only() {
        let t = Table::new("empty", &["a", "b"]);
        let svg = svg_bar_chart(&t, 0, 1);
        assert!(svg.contains("<svg "));
        assert_eq!(svg.matches("<rect ").count(), 0);
    }
}
