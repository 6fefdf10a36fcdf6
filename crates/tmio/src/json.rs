//! The JSON writer of the trace file ([`Report::to_json`]): a value tree
//! and a 2-space pretty writer. Nothing in the workspace reads a trace
//! back; analysis tools bring their own readers.
//!
//! Numbers follow the trace's rules: a non-finite number is written as
//! `null`, an integral number below 2^53 in magnitude prints without a
//! fraction, and every other number uses `f64`'s shortest round-tripping
//! `Display`.
//!
//! [`Report::to_json`]: crate::Report::to_json

use std::fmt::{self, Write};

/// A JSON value. Objects keep their keys in order, so output is
/// deterministic.
pub(crate) enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object with the given members, in order.
    pub(crate) fn obj<const N: usize>(members: [(&str, Json); N]) -> Json {
        Json::Obj(members.map(|(k, v)| (k.to_owned(), v)).into())
    }

    /// The 2-space indented text of the value.
    pub(crate) fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(*n, out),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => write_members(out, depth, '[', ']', items, |v, out| {
                v.write(out, depth + 1)
            }),
            Json::Obj(members) => write_members(out, depth, '{', '}', members, |(k, v), out| {
                write_string(k, out);
                out.push_str(": ");
                v.write(out, depth + 1);
            }),
        }
    }
}

macro_rules! json_from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(x: $t) -> Json {
                Json::Num(x as f64)
            }
        }
    )*};
}

json_from_number!(f64, u64, usize, u32, i32);

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(x: Option<T>) -> Json {
        x.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Json {
        Json::Arr(iter.into_iter().map(Into::into).collect())
    }
}

fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 9_007_199_254_740_992.0 {
        // Exact: an integral f64 below 2^53 fits an i64. Prints -0 as 0.
        push_fmt(out, format_args!("{}", n as i64));
    } else {
        push_fmt(out, format_args!("{n}"));
    }
}

fn push_fmt(out: &mut String, args: fmt::Arguments<'_>) {
    // Formatting into a `String` cannot fail.
    let _ = out.write_fmt(args);
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => push_fmt(out, format_args!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Writes `open`, one member per line at `depth + 1`, then `close` on its
/// own line at `depth`; an empty container is written as `open close`.
fn write_members<T>(
    out: &mut String,
    depth: usize,
    open: char,
    close: char,
    members: &[T],
    mut write: impl FnMut(&T, &mut String),
) {
    out.push(open);
    for (i, m) in members.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        newline(out, depth + 1);
        write(m, out);
    }
    if !members.is_empty() {
        newline(out, depth);
    }
    out.push(close);
}

fn newline(out: &mut String, depth: usize) {
    out.push('\n');
    out.extend(std::iter::repeat_n(' ', 2 * depth));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_follows_the_trace_rules() {
        let v = Json::obj([
            (
                "ints",
                [0.0, -0.0, 7.0, -3.0, 2.5, 1e20].into_iter().collect(),
            ),
            ("odd", [f64::NAN, f64::INFINITY].into_iter().collect()),
            ("empty", Json::Arr(Vec::new())),
            ("none", Json::obj([])),
            ("s", "q\"\\\t\r\u{1f}".into()),
        ]);
        let want = r#"{
  "ints": [
    0,
    0,
    7,
    -3,
    2.5,
    100000000000000000000
  ],
  "odd": [
    null,
    null
  ],
  "empty": [],
  "none": {},
  "s": "q\"\\\t\r\u001f"
}"#;
        assert_eq!(v.to_pretty(), want);
    }
}
