//! The workspace's one JSON writer.
//!
//! Every JSON document the workspace writes — `--metrics` artifacts,
//! `cce ratio --json`, the sweep and optimizer artifacts, the daemon's
//! `stats` reply — goes through [`JsonWriter`], so separators, string
//! escaping and number formats are decided in exactly one place.  Output
//! is compact (no whitespace) and deterministic.
//!
//! ```
//! let mut w = cce_obs::JsonWriter::new();
//! w.object(|w| _ = w.key("blocks").ints([16, 32]).key("cpf").number(f64::NAN));
//! assert_eq!(w.finish(), r#"{"blocks":[16,32],"cpf":null}"#);
//! ```

use std::fmt::{Display, Write as _};

/// Integer types [`JsonWriter::int`] accepts.
pub trait JsonInt: Display {}

macro_rules! json_ints { ($($t:ty)*) => { $(impl JsonInt for $t {})* } }
json_ints!(u8 u16 u32 u64 usize i32 i64);
impl<T: JsonInt> JsonInt for &T {}

/// A compact JSON writer.
///
/// Values are appended in document order; the writer inserts the `,`
/// and `:` separators itself.  [`object`](Self::object) and
/// [`array`](Self::array) take the container's body as a closure, so
/// every opened container is closed.  Inside an object, call
/// [`key`](Self::key) before each value.
#[derive(Debug, Clone, Default)]
pub struct JsonWriter {
    out: String,
    /// The next value or key follows another in its container.
    comma: bool,
    /// The next value follows a key.
    after_key: bool,
}

impl JsonWriter {
    /// An empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// The document written so far.
    pub fn finish(self) -> String {
        self.out
    }

    /// Writes the separator a value or key at this position needs.
    fn separate(&mut self) {
        if self.after_key {
            self.after_key = false;
        } else if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }

    /// Writes `open`, the body, then `close`.
    fn container(&mut self, open: char, close: char, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.separate();
        self.out.push(open);
        self.comma = false;
        body(self);
        self.out.push(close);
        self.comma = true;
        self
    }

    /// Writes an object whose members `body` writes.
    pub fn object(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.container('{', '}', body)
    }

    /// Writes an array whose elements `body` writes.
    pub fn array(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.container('[', ']', body)
    }

    /// Writes an object member's key; the next call writes its value.
    pub fn key(&mut self, name: &str) -> &mut Self {
        self.separate();
        escape_into(&mut self.out, name);
        self.out.push(':');
        self.after_key = true;
        self
    }

    /// Writes an escaped string.
    pub fn string(&mut self, value: &str) -> &mut Self {
        self.separate();
        escape_into(&mut self.out, value);
        self
    }

    /// Writes an integer.
    pub fn int(&mut self, value: impl JsonInt) -> &mut Self {
        self.display(value)
    }

    /// Writes an array of integers.
    pub fn ints<T: JsonInt>(&mut self, values: impl IntoIterator<Item = T>) -> &mut Self {
        self.array(|w| values.into_iter().for_each(|v| _ = w.int(v)))
    }

    /// Writes an array of strings.
    pub fn strings<S: AsRef<str>>(&mut self, values: impl IntoIterator<Item = S>) -> &mut Self {
        self.array(|w| values.into_iter().for_each(|v| _ = w.string(v.as_ref())))
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, value: bool) -> &mut Self {
        self.display(value)
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.display("null")
    }

    /// Writes `value` with the fewest digits that read back as the same
    /// `f64` (`0.5`, `2`), or `null` when it is not finite.
    pub fn number(&mut self, value: f64) -> &mut Self {
        self.finite(value, None)
    }

    /// Writes `value` with exactly `decimals` digits after the point, or
    /// `null` when it is not finite.
    pub fn fixed(&mut self, value: f64, decimals: usize) -> &mut Self {
        self.finite(value, Some(decimals))
    }

    /// The one non-finite-to-`null` number formatter.
    fn finite(&mut self, value: f64, decimals: Option<usize>) -> &mut Self {
        if !value.is_finite() {
            return self.null();
        }
        self.separate();
        match decimals {
            Some(decimals) => write!(self.out, "{value:.decimals$}"),
            None => write!(self.out, "{value}"),
        }
        .expect("writing to a String cannot fail");
        self
    }

    /// Writes a token whose `Display` form is already valid JSON.
    fn display(&mut self, token: impl Display) -> &mut Self {
        self.separate();
        write!(self.out, "{token}").expect("writing to a String cannot fail");
        self
    }
}

/// Escapes and quotes `s` as a JSON string literal (what
/// [`JsonWriter::string`] writes).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// Appends `s` to `out` as a quoted, escaped JSON string literal.
fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The document `body` writes.
    fn doc(body: impl FnOnce(&mut JsonWriter) -> &mut JsonWriter) -> String {
        let mut w = JsonWriter::new();
        body(&mut w);
        w.finish()
    }

    #[test]
    fn json_escapes_strings() {
        for (raw, escaped) in [
            ("plain", r#""plain""#),
            ("a\"b", r#""a\"b""#),
            ("a\\b", r#""a\\b""#),
            ("a\nb", r#""a\nb""#),
            ("a\rb", r#""a\rb""#),
            ("a\tb", r#""a\tb""#),
            ("a\u{1}b", r#""a\u0001b""#),
            ("caf\u{e9} \u{1f600}", "\"caf\u{e9} \u{1f600}\""),
        ] {
            assert_eq!(json_string(raw), escaped, "{raw:?}");
            assert_eq!(doc(|w| w.string(raw)), escaped, "{raw:?}");
        }
        assert_eq!(doc(|w| w.object(|w| _ = w.key("a\"b").int(1))), r#"{"a\"b":1}"#);
    }

    #[test]
    fn nested_containers_get_their_separators() {
        let json = doc(|w| {
            w.object(|w| {
                w.key("empty_object").object(|_| {}).key("empty_array").array(|_| {});
                w.key("rows").array(|w| {
                    w.object(|w| _ = w.key("a").int(1u8).key("b").ints([-2i64, 3]));
                    w.object(|w| _ = w.key("c").bool(true)).strings(["x"]);
                    w.array(|w| _ = w.null().string("y"));
                });
                w.key("last").bool(false);
            })
        });
        let expected = r#"{"empty_object":{},"empty_array":[],"rows":[{"a":1,"b":[-2,3]},"#;
        assert_eq!(json, format!(r#"{expected}{{"c":true}},["x"],[null,"y"]],"last":false}}"#));
        // Top-level values after the first are comma-separated too.
        assert_eq!(doc(|w| w.int(1u32).int(2u64)), "1,2");
    }

    #[test]
    fn numbers_round_trip_or_fix_their_digits() {
        assert_eq!(
            doc(|w| w.number(0.5).number(2.0).number(0.1 + 0.2)),
            "0.5,2,0.30000000000000004"
        );
        assert_eq!(doc(|w| w.fixed(0.5, 6).fixed(1.23456, 2).fixed(7.0, 0)), "0.500000,1.23,7");
    }

    #[test]
    fn non_finite_numbers_write_null_in_both_forms() {
        for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(doc(|w| w.number(value)), "null", "{value}");
            assert_eq!(doc(|w| w.fixed(value, 3)), "null", "{value}");
            let json = doc(|w| w.array(|w| _ = w.number(value).fixed(value, 6).int(1u8)));
            assert_eq!(json, "[null,null,1]", "{value}");
        }
    }
}
