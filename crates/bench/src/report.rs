//! Table/series printing for the figure harnesses, and the JSON value the
//! BENCH-producing harnesses write to the path given as `--json <path>`.

use std::fmt;

use mirage_testkit::bench::Sample;

/// Prints a figure banner.
pub fn banner(figure: &str, caption: &str) {
    println!();
    println!("==== {figure} — {caption} ====");
}

/// Prints an aligned table.
pub fn table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (i, cell) in cells.iter().enumerate() {
            out.push_str(&format!("{:>width$}  ", cell, width = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Formats a float with thousands separators-ish precision.
pub fn f(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

/// `value` as [`f`] prints it: a BENCH file records the figure a reader
/// sees on stdout, not more digits than that.
pub fn rounded(value: f64, decimals: usize) -> f64 {
    f(value, decimals)
        .parse()
        .expect("a formatted float parses")
}

/// A JSON value; objects keep their keys in insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Wide enough for every `i64` and `u64`.
    Int(i128),
    /// Non-finite values are written as `null`.
    Float(f64),
    Str(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

/// Builds a [`Json::Object`] from `key => value` pairs, in order; each
/// value is anything with a `From` conversion into [`Json`].
#[macro_export]
macro_rules! obj {
    ($($key:expr => $value:expr),* $(,)?) => {
        $crate::report::Json::Object(vec![
            $((String::from($key), $crate::report::Json::from($value))),*
        ])
    };
}

impl Json {
    /// The multi-line form: two-space indent, one member per line.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// Appends `key => value` to an object.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn push(&mut self, key: impl Into<String>, value: impl Into<Json>) {
        let Json::Object(members) = self else {
            panic!("push on a non-object {self:?}")
        };
        members.push((key.into(), value.into()));
    }

    /// Appends `self` to `out`; `indent` is this depth's indent in the
    /// pretty form, `None` for the compact one.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        let (members, [open, close]): (Vec<_>, _) = match self {
            Json::Bool(b) => return out.push_str(&b.to_string()),
            Json::Int(i) => return out.push_str(&i.to_string()),
            // `{:?}` is the shortest text that reads back to the same
            // f64, and keeps the `.0` of integral values.
            Json::Float(x) if x.is_finite() => return out.push_str(&format!("{x:?}")),
            Json::Null | Json::Float(_) => return out.push_str("null"),
            Json::Str(s) => return quote(out, s),
            Json::Array(items) => (items.iter().map(|v| (None, v)).collect(), ['[', ']']),
            Json::Object(members) => (
                members.iter().map(|(k, v)| (Some(k), v)).collect(),
                ['{', '}'],
            ),
        };
        let line_break = |out: &mut String, indent: Option<usize>| {
            if let Some(n) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(n));
            }
        };
        let inner = indent.map(|n| n + 2);
        out.push(open);
        for (i, (key, value)) in members.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            line_break(out, inner);
            if let Some(key) = key {
                quote(out, key);
                out.push_str(if indent.is_some() { ": " } else { ":" });
            }
            value.write(out, inner);
        }
        if !members.is_empty() {
            line_break(out, indent);
        }
        out.push(close);
    }
}

/// Appends `s` to `out` as a JSON string.
fn quote(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The compact form: no whitespace.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None);
        f.write_str(&out)
    }
}

macro_rules! json_from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {
        $(impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $e
            }
        })*
    };
}

json_from! {
    bool => |b| Json::Bool(b),
    i64 => |i| Json::Int(i.into()),
    u64 => |u| Json::Int(u.into()),
    usize => |u| Json::Int(u as i128),
    f64 => |x| Json::Float(x),
    &str => |s| Json::Str(s.to_owned()),
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Array(items.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// A harness's Criterion timings, one object per benchmark.
pub fn timings(results: &[Sample]) -> Json {
    let timing = |r: &Sample| {
        obj! {
            "name" => r.name.as_str(),
            "median_ns" => rounded(r.median_ns, 1),
            "mean_ns" => rounded(r.mean_ns, 1),
            "min_ns" => rounded(r.min_ns, 1),
            "iters" => r.iters,
        }
    };
    Json::Array(results.iter().map(timing).collect())
}

/// Writes `result` to the path following `--json` on the command line;
/// does nothing without one. Other arguments (cargo passes `--bench` to
/// bench targets) are ignored.
///
/// # Panics
///
/// Panics if `--json` has no path or the file cannot be written.
pub fn write_json(result: &Json) {
    let args: Vec<String> = std::env::args().collect();
    if let Some(at) = args.iter().position(|a| a == "--json") {
        let path = args.get(at + 1).expect("--json needs a path");
        std::fs::write(path, result.pretty() + "\n")
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_does_not_panic() {
        banner("Figure X", "smoke");
        table(
            &["a", "column-b"],
            &[
                vec!["1".into(), "2".into()],
                vec!["100000".into(), "longer-cell".into()],
            ],
        );
        assert_eq!(f(1.23456, 2), "1.23");
    }

    #[test]
    fn json_keeps_order_printed_precision_and_float_form() {
        let mut v = obj! {
            "z" => 1u64,
            "a" => vec![obj! { "x" => rounded(1724.96, 0), "y" => rounded(0.1234, 1) }],
            "empty" => Vec::<Json>::new(),
            "s" => "q\"\\\n",
            "none" => None::<u64>,
        };
        v.push("t", true);
        assert_eq!(
            v.to_string(),
            r#"{"z":1,"a":[{"x":1725.0,"y":0.1}],"empty":[],"s":"q\"\\\u000a","none":null,"t":true}"#
        );
        assert_eq!(
            v.pretty(),
            "{\n  \"z\": 1,\n  \"a\": [\n    {\n      \"x\": 1725.0,\n      \"y\": 0.1\n    }\n  ],\n  \
             \"empty\": [],\n  \"s\": \"q\\\"\\\\\\u000a\",\n  \"none\": null,\n  \"t\": true\n}"
        );
        assert_eq!(Json::Float(f64::NAN).to_string(), "null");
    }
}
