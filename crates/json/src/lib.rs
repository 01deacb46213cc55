//! Zero-dependency JSON for the bench binaries and the serving front-end.
//!
//! Two halves, both offline and allocation-light:
//!
//! * [`JsonObject`] — an ordered key/value **writer** used to emit result
//!   files (`results/BENCH_*.json`) and HTTP response bodies. It guarantees
//!   escaped keys/strings, `null` for non-finite floats (JSON has no `NaN`
//!   literal), structural indentation, and stable insertion order so diffs
//!   of checked-in result files survive regeneration.
//! * [`JsonValue`] — a recursive-descent **parser** for the request bodies
//!   the wire protocol accepts (see DESIGN.md, "Serving over the wire").
//!   It never panics on malformed input: every failure is a [`JsonError`]
//!   with a byte offset, and nesting depth is capped so adversarial input
//!   cannot overflow the stack.
//!
//! This crate used to live inside `tg-bench` (`tg_bench::json`); it moved
//! here so the server can render responses without depending on the whole
//! bench harness. `tg_bench::json` re-exports it, so bench binaries compile
//! unchanged.

#![warn(missing_docs)]

pub mod parse;

pub use parse::{JsonError, JsonValue};

use std::fmt::Write as _;

/// An ordered JSON object under construction. Values are rendered with
/// two-space indentation by [`JsonObject::render`].
///
/// ```
/// let doc = tg_json::JsonObject::new()
///     .str("scale", "paper")
///     .usize("pairs", 3)
///     .f64("speedup", 2.5)
///     .render();
/// assert!(doc.contains("\"speedup\": 2.5"));
/// ```
#[derive(Debug, Default)]
pub struct JsonObject {
    entries: Vec<(String, Value)>,
}

#[derive(Debug)]
enum Value {
    Str(String),
    U64(u64),
    Bool(bool),
    /// Finite floats only; non-finite inputs are stored as [`Value::Null`].
    F64(f64),
    Null,
    Obj(JsonObject),
    Arr(Vec<Value>),
}

impl Value {
    /// Whether rendering this value spans multiple lines.
    fn is_multiline(&self) -> bool {
        match self {
            Value::Obj(o) => !o.entries.is_empty(),
            Value::Arr(items) => items.iter().any(Value::is_multiline),
            _ => false,
        }
    }
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> JsonObject {
        JsonObject::default()
    }

    /// Adds a string field (escaped on render).
    pub fn str(mut self, key: &str, value: &str) -> JsonObject {
        self.entries.push((key.into(), Value::Str(value.into())));
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, key: &str, value: u64) -> JsonObject {
        self.entries.push((key.into(), Value::U64(value)));
        self
    }

    /// Adds a `usize` field (bench counters are usually lengths).
    pub fn usize(self, key: &str, value: usize) -> JsonObject {
        self.u64(key, value as u64)
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> JsonObject {
        self.entries.push((key.into(), Value::Bool(value)));
        self
    }

    /// Adds a float field. `NaN` and `±Inf` have no JSON literal and are
    /// written as `null` — readers treat an absent-or-null metric as "not
    /// measured" rather than choking on an invalid document.
    pub fn f64(mut self, key: &str, value: f64) -> JsonObject {
        self.entries.push((key.into(), float_value(value)));
        self
    }

    /// Adds a nested object field.
    pub fn object(mut self, key: &str, value: JsonObject) -> JsonObject {
        self.entries.push((key.into(), Value::Obj(value)));
        self
    }

    /// Adds an array of strings (escaped on render), inline on one line.
    pub fn strs<I, S>(mut self, key: &str, values: I) -> JsonObject
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let items = values
            .into_iter()
            .map(|s| Value::Str(s.as_ref().into()))
            .collect();
        self.entries.push((key.into(), Value::Arr(items)));
        self
    }

    /// Adds an array of floats, inline on one line. Non-finite entries
    /// render as `null`, like [`JsonObject::f64`].
    pub fn f64s(mut self, key: &str, values: &[f64]) -> JsonObject {
        let items = values.iter().map(|&v| float_value(v)).collect();
        self.entries.push((key.into(), Value::Arr(items)));
        self
    }

    /// Adds an array of unsigned integers, inline on one line.
    pub fn u64s(mut self, key: &str, values: &[u64]) -> JsonObject {
        let items = values.iter().map(|&v| Value::U64(v)).collect();
        self.entries.push((key.into(), Value::Arr(items)));
        self
    }

    /// Adds an array of objects, one element per line.
    pub fn objects(mut self, key: &str, values: Vec<JsonObject>) -> JsonObject {
        let items = values.into_iter().map(Value::Obj).collect();
        self.entries.push((key.into(), Value::Arr(items)));
        self
    }

    /// Renders the document with a trailing newline, ready for
    /// `fs::write` or a `Content-Length`-framed response body.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders the document on a single line with no trailing newline
    /// (`{"k":"v","n":3}`) — for line-oriented output such as
    /// `tg-check --json`, where each record must be one line of a stream.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        out.push('{');
        for (i, (key, value)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_escaped(out, key);
            out.push(':');
            write_value_compact(out, value);
        }
        out.push('}');
    }

    fn write_into(&self, out: &mut String, depth: usize) {
        if self.entries.is_empty() {
            out.push_str("{}");
            return;
        }
        let pad = "  ".repeat(depth + 1);
        out.push_str("{\n");
        for (i, (key, value)) in self.entries.iter().enumerate() {
            out.push_str(&pad);
            write_escaped(out, key);
            out.push_str(": ");
            write_value(out, value, depth + 1);
            if i + 1 < self.entries.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str(&"  ".repeat(depth));
        out.push('}');
    }
}

fn float_value(value: f64) -> Value {
    if value.is_finite() {
        Value::F64(value)
    } else {
        Value::Null
    }
}

fn write_value(out: &mut String, value: &Value, depth: usize) {
    match value {
        Value::Str(s) => write_escaped(out, s),
        Value::U64(v) => {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "fmt::Write into a String is infallible"
            )]
            let _ = write!(out, "{v}");
        }
        Value::Bool(v) => {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "fmt::Write into a String is infallible"
            )]
            let _ = write!(out, "{v}");
        }
        // `{}` on a finite f64 is the shortest round-trip decimal form,
        // always a valid JSON number.
        Value::F64(v) => {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "fmt::Write into a String is infallible"
            )]
            let _ = write!(out, "{v}");
        }
        Value::Null => out.push_str("null"),
        Value::Obj(obj) => obj.write_into(out, depth),
        Value::Arr(items) => write_array(out, items, depth),
    }
}

/// Scalar-only arrays render inline (`[1, 2, 3]`); arrays holding objects
/// put one element per line so nested documents stay diffable.
fn write_array(out: &mut String, items: &[Value], depth: usize) {
    if items.is_empty() {
        out.push_str("[]");
        return;
    }
    if items.iter().any(Value::is_multiline) {
        let pad = "  ".repeat(depth + 1);
        out.push_str("[\n");
        for (i, item) in items.iter().enumerate() {
            out.push_str(&pad);
            write_value(out, item, depth + 1);
            if i + 1 < items.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str(&"  ".repeat(depth));
        out.push(']');
    } else {
        out.push('[');
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_value(out, item, depth);
        }
        out.push(']');
    }
}

/// Single-line value rendering for [`JsonObject::render_compact`].
fn write_value_compact(out: &mut String, value: &Value) {
    match value {
        Value::Obj(obj) => obj.write_compact(out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value_compact(out, item);
            }
            out.push(']');
        }
        // Scalars already render on one line.
        scalar => write_value(out, scalar, 0),
    }
}

/// Writes `s` as a quoted JSON string, escaping the characters JSON
/// requires (quote, backslash, and control characters below U+0020).
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "fmt::Write into a String is infallible"
                )]
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
    fn renders_flat_fields_in_insertion_order() {
        let json = JsonObject::new()
            .str("scale", "paper")
            .usize("pairs", 3)
            .bool("ok", true)
            .f64("speedup", 2.5)
            .render();
        assert_eq!(
            json,
            "{\n  \"scale\": \"paper\",\n  \"pairs\": 3,\n  \"ok\": true,\n  \
             \"speedup\": 2.5\n}\n"
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        let json = JsonObject::new()
            .f64("nan", f64::NAN)
            .f64("inf", f64::INFINITY)
            .f64("neg_inf", f64::NEG_INFINITY)
            .f64("fine", 1.0)
            .render();
        assert!(json.contains("\"nan\": null"));
        assert!(json.contains("\"inf\": null"));
        assert!(json.contains("\"neg_inf\": null"));
        assert!(json.contains("\"fine\": 1"));
        assert!(!json.contains("NaN"));
    }

    #[test]
    fn nested_objects_indent_structurally() {
        let json = JsonObject::new()
            .object("outer", JsonObject::new().u64("inner", 7))
            .object("empty", JsonObject::new())
            .render();
        assert_eq!(
            json,
            "{\n  \"outer\": {\n    \"inner\": 7\n  },\n  \"empty\": {}\n}\n"
        );
    }

    #[test]
    fn render_compact_is_one_line_and_parses_back() {
        let json = JsonObject::new()
            .str("lint", "TG04")
            .u64("line", 12)
            .object("nested", JsonObject::new().strs("xs", ["a", "b"]))
            .render_compact();
        assert_eq!(
            json,
            "{\"lint\":\"TG04\",\"line\":12,\"nested\":{\"xs\":[\"a\",\"b\"]}}"
        );
        assert!(!json.contains('\n'));
        let parsed = JsonValue::parse(&json).unwrap();
        assert_eq!(parsed.get("lint").and_then(JsonValue::as_str), Some("TG04"));
    }

    #[test]
    fn strings_are_escaped() {
        let json = JsonObject::new().str("k\"ey", "a\\b\nc\u{1}").render();
        assert_eq!(json, "{\n  \"k\\\"ey\": \"a\\\\b\\nc\\u0001\"\n}\n");
    }

    #[test]
    fn floats_round_trip_shortest_form() {
        let json = JsonObject::new().f64("v", 0.1 + 0.2).render();
        assert!(json.contains("\"v\": 0.30000000000000004"));
    }

    #[test]
    fn scalar_arrays_render_inline() {
        let json = JsonObject::new()
            .f64s("scores", &[1.5, f64::NAN, 3.0])
            .strs("names", ["a", "b"])
            .u64s("counts", &[7])
            .f64s("empty", &[])
            .render();
        assert!(json.contains("\"scores\": [1.5, null, 3]"));
        assert!(json.contains("\"names\": [\"a\", \"b\"]"));
        assert!(json.contains("\"counts\": [7]"));
        assert!(json.contains("\"empty\": []"));
    }

    #[test]
    fn object_arrays_render_one_element_per_line() {
        let json = JsonObject::new()
            .objects(
                "ranking",
                vec![
                    JsonObject::new()
                        .str("model", "resnet-50")
                        .f64("score", 0.5),
                    JsonObject::new().str("model", "vit-b").f64("score", 0.25),
                ],
            )
            .render();
        assert_eq!(
            json,
            "{\n  \"ranking\": [\n    {\n      \"model\": \"resnet-50\",\n      \
             \"score\": 0.5\n    },\n    {\n      \"model\": \"vit-b\",\n      \
             \"score\": 0.25\n    }\n  ]\n}\n"
        );
    }

    #[test]
    fn writer_output_parses_back() {
        let json = JsonObject::new()
            .str("s", "a\"b\\c\n")
            .f64("f", 0.1 + 0.2)
            .u64("u", u64::MAX)
            .bool("b", true)
            .f64("null_metric", f64::NAN)
            .f64s("xs", &[1.0, 2.5])
            .object("o", JsonObject::new().str("k", "v"))
            .render();
        let value = JsonValue::parse(&json).expect("writer output is valid JSON");
        assert_eq!(
            value.get("s").and_then(JsonValue::as_str),
            Some("a\"b\\c\n")
        );
        assert_eq!(value.get("f").and_then(JsonValue::as_f64), Some(0.1 + 0.2));
        assert_eq!(value.get("b").and_then(JsonValue::as_bool), Some(true));
        assert!(matches!(value.get("null_metric"), Some(JsonValue::Null)));
        assert_eq!(
            value
                .get("o")
                .and_then(|o| o.get("k"))
                .and_then(JsonValue::as_str),
            Some("v")
        );
    }
}
