//! A minimal JSON value writer: the one path every `BENCH_*.json`
//! artifact is rendered through.
//!
//! Write-only by design (nothing in the workspace parses JSON): build a
//! [`Json`] tree, call [`Json::render`]. Objects keep insertion order so
//! an artifact reads in the order its experiment reports, every float
//! carries its own precision, and a non-finite float renders as `null`
//! rather than a bare `NaN` token parsers reject.

use std::fmt::Write as _;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// Key/value pairs in insertion order.
    Obj(Vec<(String, Json)>),
    Arr(Vec<Json>),
    /// A float printed with exactly `decimals` fractional digits
    /// (`null` when not finite).
    Num {
        value: f64,
        decimals: usize,
    },
    Int(i64),
    Bool(bool),
    Str(String),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn num(value: f64, decimals: usize) -> Json {
        Json::Num { value, decimals }
    }

    /// Any integer width the benches count in (saturating past `i64`).
    pub fn int(value: impl TryInto<i64>) -> Json {
        Json::Int(value.try_into().unwrap_or(i64::MAX))
    }

    /// The value under `key` when `self` is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Pretty-print with two-space indentation and a trailing newline.
    /// A nested container holding only scalars stays on one line, so an
    /// array of measurement points reads as one row per point.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Obj(fields) => {
                let items: Vec<_> = fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect();
                write_seq(out, depth, "{}", &items);
            }
            Json::Arr(items) => {
                let items: Vec<_> = items.iter().map(|v| (None, v)).collect();
                write_seq(out, depth, "[]", &items);
            }
            Json::Num { value, decimals } if value.is_finite() => {
                let _ = write!(out, "{value:.decimals$}");
            }
            Json::Num { .. } => out.push_str("null"),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Str(s) => write_str(out, s),
        }
    }
}

/// One container, `brackets` being `"{}"` or `"[]"`; object items carry
/// their key.
fn write_seq(out: &mut String, depth: usize, brackets: &str, items: &[(Option<&str>, &Json)]) {
    let is_scalar = |v: &Json| !matches!(v, Json::Obj(_) | Json::Arr(_));
    let inline = depth > 0 && items.iter().all(|(_, v)| is_scalar(v));
    let line = |depth: usize| match inline {
        true => String::new(),
        false => format!("\n{}", "  ".repeat(depth)),
    };
    out.push_str(&brackets[..1]);
    for (n, (key, value)) in items.iter().enumerate() {
        if n > 0 {
            out.push_str(if inline { ", " } else { "," });
        }
        out.push_str(&line(depth + 1));
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(": ");
        }
        value.write(out, depth + 1);
    }
    if !items.is_empty() {
        out.push_str(&line(depth));
    }
    out.push_str(&brackets[1..]);
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped_and_non_ascii_passes_through() {
        let s = Json::Str("a\"b\\c\nd\u{1}β→".into());
        assert_eq!(s.render(), "\"a\\\"b\\\\c\\u000ad\\u0001β→\"\n");
    }

    #[test]
    fn keys_keep_insertion_order_and_nesting_indents() {
        let leaf = Json::Arr(vec![Json::obj([("x", Json::int(-3))])]);
        let m = Json::obj([("k", leaf.clone()), ("e", Json::Arr(vec![]))]);
        let j = Json::obj([
            ("z", Json::int(1u64)),
            ("a", Json::Arr(vec![Json::int(2usize), Json::Bool(true)])),
            ("m", m),
        ]);
        let want = "{\n  \"z\": 1,\n  \"a\": [2, true],\n  \"m\": {\n    \"k\": [\n      \
                    {\"x\": -3}\n    ],\n    \"e\": []\n  }\n}\n";
        assert_eq!(j.render(), want);
        assert_eq!(j.get("m").and_then(|m| m.get("k")), Some(&leaf));
        assert_eq!(leaf.get("x"), None);
    }

    #[test]
    fn num_honours_decimals_non_finite_is_null_and_empty_object() {
        assert_eq!(Json::num(1.23456, 3).render(), "1.235\n");
        assert_eq!(Json::num(12.0, 1).render(), "12.0\n");
        assert_eq!(Json::num(1234.4, 0).render(), "1234\n");
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::num(x, 3).render(), "null\n");
        }
        assert_eq!(Json::Obj(vec![]).render(), "{}\n");
    }
}
