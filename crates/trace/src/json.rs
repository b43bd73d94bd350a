//! Serde-free JSON value and pretty renderer.
//!
//! The workspace is hermetic (no registry dependencies), so report files
//! are written by this hand-rolled implementation. Object key order is
//! preserved, which keeps emitted reports stable and diffable across
//! runs.

/// A JSON value. Integers that fit in `u64` are kept exact in
/// [`Json::Int`]; everything else numeric becomes [`Json::Num`].
#[derive(Clone, Debug)]
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

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Scalar arrays on one line, nested containers one per line at two
    /// spaces a level, and empty containers as `[]` and `{}`.
    #[test]
    fn containers_render_golden_text() {
        let v = obj(vec![
            (
                "sizes",
                Json::Arr(vec![Json::Int(1), Json::Null, Json::Bool(true)]),
            ),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
            (
                "nested",
                Json::Arr(vec![
                    obj(vec![("ok", Json::Bool(false))]),
                    Json::Arr(vec![]),
                ]),
            ),
        ]);
        let golden = r#"{
  "sizes": [1, null, true],
  "empty_arr": [],
  "empty_obj": {},
  "nested": [
    {
      "ok": false
    },
    []
  ]
}
"#;
        assert_eq!(v.render(), golden);
    }

    #[test]
    fn strings_escape_control_characters() {
        let v = Json::Str("q\"\\\n\r\t\u{1}\u{1f}é".into());
        assert_eq!(v.render(), concat!(r#""q\"\\\n\r\t\u0001\u001fé""#, "\n"));
    }

    /// Integral floats stay floats, and non-finite numbers, which JSON
    /// cannot spell, become `null`.
    #[test]
    fn integral_floats_render_as_numbers() {
        for (value, text) in [
            (Json::Num(3.0), "3.0\n"),
            (Json::Int(3), "3\n"),
            (Json::Num(-1.5), "-1.5\n"),
            (Json::Num(f64::NAN), "null\n"),
            (Json::Num(f64::INFINITY), "null\n"),
        ] {
            assert_eq!(value.render(), text, "{value:?}");
        }
    }

    #[test]
    fn key_order_is_preserved() {
        let v = obj(vec![("z", Json::Int(1)), ("a", Json::Int(2))]);
        assert_eq!(v.render(), "{\n  \"z\": 1,\n  \"a\": 2\n}\n");
    }
}
