//! The benchmark's output: named metrics with units, the bases of its
//! ratios, and the one-line JSON result.

use std::fmt::Write as _;

/// Named metrics in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    values: Vec<(String, f64, &'static str)>,
    bases: Vec<(String, u64)>,
    raw: Vec<(String, f64)>,
}

impl Metrics {
    /// Record `name` = `value` in `unit`.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.values.push((name.into(), value, unit));
    }

    /// Record the base (denominator count) a ratio metric was taken over.
    pub fn base(&mut self, name: impl Into<String>, base: u64) {
        self.bases.push((name.into(), base));
    }

    /// Record the raw (not host-speed-normalised) value of a metric.
    pub fn raw(&mut self, name: impl Into<String>, value: f64) {
        self.raw.push((name.into(), value));
    }

    /// `{"name": raw value, ...}`.
    pub fn raw_json(&self) -> String {
        let items: Vec<String> = self
            .raw
            .iter()
            .map(|(n, v)| format!("\"{n}\": {}", num(*v)))
            .collect();
        format!("{{{}}}", items.join(", "))
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn values_json(&self) -> String {
        let items: Vec<String> = self
            .values
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!("{{{}}}", items.join(", "))
    }

    /// `{"name": base, ...}`.
    pub fn bases_json(&self) -> String {
        let items: Vec<String> = self
            .bases
            .iter()
            .map(|(n, b)| format!("\"{n}\": {b}"))
            .collect();
        format!("{{{}}}", items.join(", "))
    }
}

/// A finite JSON number (a ratio over an empty base reads 0).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
