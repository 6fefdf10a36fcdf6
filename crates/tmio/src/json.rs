//! The JSON codec of the trace file ([`Report::to_json`] and
//! [`Report::from_json`]): a value tree, a 2-space pretty writer, a strict
//! parser and a typed reader for object fields.
//!
//! Numbers follow the trace's rules: a non-finite number is written as
//! `null` (and `null` reads back into an `f64` as NaN), an integral number
//! below 2^53 in magnitude prints without a fraction, and every other
//! number uses `f64`'s shortest round-tripping `Display`.
//!
//! [`Report::to_json`]: crate::Report::to_json
//! [`Report::from_json`]: crate::Report::from_json

use std::fmt::{self, Write};

/// Nesting bound of the parser. The trace nests three levels deep; the
/// bound keeps a hostile input from exhausting the stack.
const MAX_DEPTH: usize = 32;

/// A JSON value. Objects keep their keys in order, so output is
/// deterministic.
#[derive(Debug)]
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

    /// A short description of the value for error messages.
    fn describe(&self) -> String {
        match self {
            Json::Null => "null".into(),
            Json::Bool(b) => b.to_string(),
            Json::Num(n) => n.to_string(),
            Json::Str(s) => format!("{s:?}"),
            Json::Arr(_) => "an array".into(),
            Json::Obj(_) => "an object".into(),
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

/// Why a JSON trace could not be read: a syntax error (with its byte
/// offset), or a field that is missing or holds the wrong kind of value
/// (with the field's path, e.g. `faults[2].tag`).
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    /// Path of the offending field; empty for syntax errors and the root.
    field: String,
    msg: String,
}

impl JsonError {
    fn syntax(pos: usize, msg: impl fmt::Display) -> Self {
        JsonError {
            field: String::new(),
            msg: format!("{msg} at byte {pos}"),
        }
    }

    /// A value of the wrong kind: `what` names the kind wanted.
    pub(crate) fn expected(what: &str, got: &Json) -> Self {
        JsonError {
            field: String::new(),
            msg: format!("expected {what}, got {}", got.describe()),
        }
    }

    /// The error `e` one level down, under member `key` (element `index`
    /// of it, for arrays).
    fn under(mut self, key: &str, index: Option<usize>) -> Self {
        let mut path = key.to_owned();
        if let Some(i) = index {
            push_fmt(&mut path, format_args!("[{i}]"));
        }
        if !self.field.is_empty() {
            path.push('.');
            path.push_str(&self.field);
        }
        self.field = path;
        self
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.field.is_empty() {
            f.write_str(&self.msg)
        } else {
            write!(f, "field `{}`: {}", self.field, self.msg)
        }
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document.
pub(crate) fn parse(s: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(JsonError::syntax(p.pos, "trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::syntax(
                self.pos,
                format_args!("expected `{}`", b as char),
            ))
        }
    }

    fn keyword(&mut self, kw: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(v)
        } else {
            Err(JsonError::syntax(self.pos, "invalid literal"))
        }
    }

    /// A value after optional whitespace.
    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.skip_ws();
        if depth > MAX_DEPTH {
            return Err(JsonError::syntax(self.pos, "nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.keyword("null", Json::Null),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                let items = self.members(b']', |p| p.value(depth + 1))?;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let members = self.members(b'}', |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.skip_ws();
                    p.eat(b':')?;
                    Ok((key, p.value(depth + 1)?))
                })?;
                Ok(Json::Obj(members))
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(JsonError::syntax(self.pos, "unexpected character")),
            None => Err(JsonError::syntax(self.pos, "unexpected end of input")),
        }
    }

    /// The comma-separated members of an array or object, from its opening
    /// bracket through `close`.
    fn members<T>(
        &mut self,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<T, JsonError>,
    ) -> Result<Vec<T>, JsonError> {
        self.pos += 1;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            out.push(member(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
                    return Err(JsonError::syntax(
                        self.pos,
                        format_args!("expected `,` or `{}`", close as char),
                    ))
                }
            }
        }
    }

    /// A number per the JSON grammar:
    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        if self.digits() == 0 || (self.bytes[int_start] == b'0' && self.pos - int_start > 1) {
            return Err(JsonError::syntax(start, "invalid number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(JsonError::syntax(start, "invalid number"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(JsonError::syntax(start, "invalid number"));
            }
        }
        // The grammar above admits only ASCII that `f64::from_str` accepts.
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|t| t.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| JsonError::syntax(start, "invalid number"))
    }

    /// Skips a run of ASCII digits and returns its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            // Copy a run of plain bytes. It ends at an ASCII byte, so it is
            // whole UTF-8 whenever the input is.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| JsonError::syntax(start, "invalid UTF-8"))?,
            );
            let at = self.pos;
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            let hex = self.bytes.get(self.pos + 1..self.pos + 5);
                            let c = hex
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| JsonError::syntax(at, "invalid \\u escape"))?;
                            self.pos += 4;
                            c
                        }
                        _ => return Err(JsonError::syntax(at, "invalid escape")),
                    };
                    s.push(c);
                    self.pos += 1;
                }
                Some(_) => return Err(JsonError::syntax(at, "control character in string")),
                None => return Err(JsonError::syntax(at, "unterminated string")),
            }
        }
    }
}

/// A `null` reads as NaN: the writer turns non-finite numbers into `null`.
pub(crate) fn num(v: &Json) -> Result<f64, JsonError> {
    match v {
        Json::Num(n) => Ok(*n),
        Json::Null => Ok(f64::NAN),
        other => Err(JsonError::expected("a number", other)),
    }
}

/// An integer that fits `T` exactly: negative, fractional and out-of-range
/// numbers are errors, not casts.
fn int<T: TryFrom<i64>>(v: &Json) -> Result<T, JsonError> {
    const I64_LIMIT: f64 = 9_223_372_036_854_775_808.0; // 2^63
    let what = std::any::type_name::<T>();
    match v {
        Json::Num(n) if n.fract() == 0.0 && (-I64_LIMIT..I64_LIMIT).contains(n) => {
            T::try_from(*n as i64).map_err(|_| JsonError::expected(what, v))
        }
        other => Err(JsonError::expected(what, other)),
    }
}

fn opt<T>(v: &Json, f: impl FnOnce(&Json) -> Result<T, JsonError>) -> Result<Option<T>, JsonError> {
    match v {
        Json::Null => Ok(None),
        v => f(v).map(Some),
    }
}

/// The members of one JSON object, read by key. Unknown keys are ignored;
/// a missing key is an error naming it.
pub(crate) struct Fields<'a>(&'a [(String, Json)]);

impl<'a> Fields<'a> {
    /// The members of `v`, which must be an object.
    pub(crate) fn of(v: &'a Json) -> Result<Self, JsonError> {
        match v {
            Json::Obj(members) => Ok(Fields(members)),
            other => Err(JsonError::expected("an object", other)),
        }
    }

    /// Reads member `key` through `read`, naming the key in any error.
    pub(crate) fn read<T>(
        &self,
        key: &str,
        read: impl FnOnce(&'a Json) -> Result<T, JsonError>,
    ) -> Result<T, JsonError> {
        let v = self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let v = v.ok_or_else(|| JsonError {
            field: key.to_owned(),
            msg: "missing".into(),
        })?;
        read(v).map_err(|e| e.under(key, None))
    }

    pub(crate) fn num(&self, key: &str) -> Result<f64, JsonError> {
        self.read(key, num)
    }

    pub(crate) fn opt_num(&self, key: &str) -> Result<Option<f64>, JsonError> {
        self.read(key, |v| opt(v, num))
    }

    pub(crate) fn int<T: TryFrom<i64>>(&self, key: &str) -> Result<T, JsonError> {
        self.read(key, int)
    }

    pub(crate) fn opt_int<T: TryFrom<i64>>(&self, key: &str) -> Result<Option<T>, JsonError> {
        self.read(key, |v| opt(v, int))
    }

    pub(crate) fn str(&self, key: &str) -> Result<&'a str, JsonError> {
        self.read(key, |v| match v {
            Json::Str(s) => Ok(s.as_str()),
            other => Err(JsonError::expected("a string", other)),
        })
    }

    pub(crate) fn bool(&self, key: &str) -> Result<bool, JsonError> {
        self.read(key, |v| match v {
            Json::Bool(b) => Ok(*b),
            other => Err(JsonError::expected("a bool", other)),
        })
    }

    /// Member `key`, an array, with `item` applied to each element; errors
    /// name the element's index.
    pub(crate) fn arr<T>(
        &self,
        key: &str,
        item: impl Fn(&'a Json) -> Result<T, JsonError>,
    ) -> Result<Vec<T>, JsonError> {
        let items = self.read(key, |v| match v {
            Json::Arr(items) => Ok(items),
            other => Err(JsonError::expected("an array", other)),
        })?;
        items
            .iter()
            .enumerate()
            .map(|(i, v)| item(v).map_err(|e| e.under(key, Some(i))))
            .collect()
    }
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
        assert_eq!(parse(want).unwrap().to_pretty(), want);
    }

    #[test]
    fn parser_is_strict() {
        for bad in [
            "",
            "1 2",
            "[1,]",
            "{\"a\" 1}",
            "01",
            "1.",
            "-",
            ".5",
            "1e",
            "+1",
            "nul",
            "NaN",
            "\"a\nb\"",
            "\"\\x\"",
            "\"\\ud800\"",
            "\"abc",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(parse(&deep).is_err());
        let v = parse(" {\"a\": [true, false, null, -1.5e-3, \"\\u00e9\\/\"]} ").unwrap();
        let f = Fields::of(&v).unwrap();
        assert_eq!(f.arr("a", |_| Ok(())).unwrap().len(), 5);
        assert_eq!(f.num("b").unwrap_err().to_string(), "field `b`: missing");
    }
}
