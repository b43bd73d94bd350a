//! Serde-free JSON value, pretty renderer, and recursive-descent parser.
//!
//! The workspace is hermetic (no registry dependencies), so report files
//! are produced and consumed by this hand-rolled implementation. Object
//! key order is preserved on both sides, which keeps emitted reports
//! stable and diffable across runs.

use std::fmt;

/// A JSON value. Integers that fit in `u64` are kept exact in
/// [`Json::Int`]; everything else numeric becomes [`Json::Num`].
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Non-negative integer that fits in a `u64`, kept exact.
    Int(u64),
    /// Any other number (negative, fractional, or out of `u64` range).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object; `None` for other variants or a
    /// missing key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object's fields, if this is an object.
    #[must_use]
    pub fn entries(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The array's elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Exact `u64` value: an [`Json::Int`], or a [`Json::Num`] that is a
    /// non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Int(v) => Some(v),
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                reason = "guarded: a non-negative whole number up to 2^53 converts exactly"
            )]
            Json::Num(v) if v >= 0.0 && v.fract() == 0.0 && v <= 2f64.powi(53) => Some(v as u64),
            _ => None,
        }
    }

    /// Numeric value as `f64` (from either numeric variant).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(v) =>
            {
                #[expect(clippy::cast_precision_loss, reason = "report values are below 2^52")]
                Some(v as f64)
            }
            Json::Num(v) => Some(v),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Renders with two-space indentation and a trailing newline, the
    /// format used for checked-in `BENCH_*.json` artifacts.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::Num(v) => render_f64(*v, out),
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                // Arrays of scalars render on one line; arrays holding
                // containers get one element per line.
                let nested = items
                    .iter()
                    .any(|i| matches!(i, Json::Arr(_) | Json::Obj(_)));
                if nested {
                    out.push_str("[\n");
                    for (i, item) in items.iter().enumerate() {
                        indent(out, depth + 1);
                        item.render_into(out, depth + 1);
                        if i + 1 < items.len() {
                            out.push(',');
                        }
                        out.push('\n');
                    }
                    indent(out, depth);
                    out.push(']');
                } else {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        item.render_into(out, depth);
                    }
                    out.push(']');
                }
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    indent(out, depth + 1);
                    render_string(k, out);
                    out.push_str(": ");
                    v.render_into(out, depth + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                indent(out, depth);
                out.push('}');
            }
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn render_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        if v.fract() == 0.0 && v.abs() < 1e15 {
            // Keep integral floats recognizable as numbers ("3.0").
            out.push_str(&format!("{v:.1}"));
        } else {
            out.push_str(&format!("{v}"));
        }
    } else {
        // JSON has no NaN/Inf; degrade to null like most emitters.
        out.push_str("null");
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
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
}

/// Error from [`parse`]: byte offset and a short description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input where parsing failed.
    pub pos: usize,
    /// What the parser expected or found.
    pub detail: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.pos, self.detail)
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document, rejecting trailing garbage.
///
/// # Errors
/// [`ParseError`] with the byte offset of the first violation.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, detail: &str) -> ParseError {
        ParseError {
            pos: self.pos,
            detail: detail.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our
                            // emitter; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Copy one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                    let c = s.chars().next().ok_or_else(|| self.err("empty"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if integral {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::Int(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for (text, value) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("42", Json::Int(42)),
            ("-1.5", Json::Num(-1.5)),
            ("\"a\\nb\"", Json::Str("a\nb".into())),
        ] {
            assert_eq!(parse(text).unwrap(), value, "{text}");
        }
    }

    #[test]
    fn containers_round_trip_through_render() {
        let v = Json::Obj(vec![
            ("name".into(), Json::Str("c432".into())),
            ("sizes".into(), Json::Arr(vec![Json::Int(1), Json::Int(2)])),
            (
                "nested".into(),
                Json::Obj(vec![("ok".into(), Json::Bool(true))]),
            ),
            ("empty_arr".into(), Json::Arr(vec![])),
            ("empty_obj".into(), Json::Obj(vec![])),
            ("ratio".into(), Json::Num(0.25)),
        ]);
        let text = v.render();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn key_order_is_preserved() {
        let parsed = parse("{\"z\": 1, \"a\": 2}").unwrap();
        let keys: Vec<&str> = parsed
            .entries()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a"]);
    }

    #[test]
    fn errors_carry_positions() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"unterminated").is_err());
        let err = parse("  x").unwrap_err();
        assert_eq!(err.pos, 2);
    }

    #[test]
    fn integral_floats_render_as_numbers() {
        assert_eq!(Json::Num(3.0).render().trim(), "3.0");
        assert_eq!(parse("3.0").unwrap(), Json::Num(3.0));
        assert_eq!(Json::Num(f64::NAN).render().trim(), "null");
    }

    #[test]
    fn accessor_helpers() {
        let v = parse("{\"n\": 3, \"f\": 2.5, \"s\": \"x\", \"b\": true}").unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("f").unwrap().as_f64(), Some(2.5));
        assert_eq!(v.get("f").unwrap().as_u64(), None);
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert!(v.get("missing").is_none());
        assert!(Json::Null.get("x").is_none());
    }
}
