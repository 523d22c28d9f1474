//! The one JSON writer. Every report, diagnostic and `BENCH_*.json`
//! record in the workspace is written through it, so the format is this
//! module's decision alone:
//!
//! - one compact layout: `,` and `:` with no whitespace, keys in the
//!   order the caller writes them;
//! - strings escaped per RFC 8259: `"`, `\` and every control character
//!   U+0000–U+001F (`\n`, `\r` and `\t` in their short forms, the rest as
//!   `\u00xx`); everything else passes through;
//! - floats at a fixed precision ([`Fixed`]), so two runs with the same
//!   seed serialize byte-identically, or, where a reader must rebuild the
//!   exact value, in their shortest round-trip form ([`Exact`]); a
//!   non-finite float is `null`;
//! - `None` is `null`;
//! - a slice of values is an array of them.
//!
//! Objects and arrays are written by closures, so the writer places every
//! comma and bracket and the caller cannot unbalance them.
//!
//! ```
//! use mimose_runtime::json::{self, Fixed};
//!
//! let doc = json::object(|o| {
//!     o.field("name", "a\"b\n")
//!         .field("ms", Fixed(1.5, 2))
//!         .field("device", None::<usize>)
//!         .array("rows", |a| {
//!             a.object(|o| {
//!                 o.field("k", 1usize);
//!             });
//!         });
//! });
//! assert_eq!(
//!     doc,
//!     r#"{"name":"a\"b\n","ms":1.50,"device":null,"rows":[{"k":1}]}"#
//! );
//! ```

use std::fmt::Write as _;

/// A value the writer can place: unsigned integers, `bool`, strings,
/// [`Fixed`] and [`Exact`] floats, references to these, and `Option`s and
/// slices of them.
pub trait JsonValue {
    /// Append this value's JSON text to `out`.
    fn write_json(&self, out: &mut String);
}

/// A float at a fixed number of decimals: `Fixed(v, 4)` writes `v` the
/// way `format!("{v:.4}")` does. A non-finite float is `null`.
#[derive(Debug, Clone, Copy)]
pub struct Fixed(pub f64, pub usize);

impl JsonValue for Fixed {
    fn write_json(&self, out: &mut String) {
        if self.0.is_finite() {
            let _ = write!(out, "{:.*}", self.1, self.0);
        } else {
            out.push_str("null");
        }
    }
}

/// A float in its shortest round-trip form: parsing the text gives back
/// the same `f64` bits (`Exact(50f64.ln())` writes `3.912023005428146`,
/// `Exact(72.0)` writes `72`). A non-finite float is `null`.
#[derive(Debug, Clone, Copy)]
pub struct Exact(pub f64);

impl JsonValue for Exact {
    fn write_json(&self, out: &mut String) {
        if self.0.is_finite() {
            // `Display` for `f64` prints the shortest decimal that parses
            // back to the same bits, and never an exponent.
            let _ = write!(out, "{}", self.0);
        } else {
            out.push_str("null");
        }
    }
}

/// Values whose `Display` form is already their JSON text.
macro_rules! json_display {
    ($($t:ty),*) => {$(
        impl JsonValue for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

json_display!(u64, u128, usize, bool);

impl JsonValue for str {
    fn write_json(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl JsonValue for String {
    fn write_json(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl<T: JsonValue> JsonValue for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: JsonValue> JsonValue for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.write_json(out);
        }
        out.push(']');
    }
}

impl<T: JsonValue + ?Sized> JsonValue for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

/// The only string escaper: `s` as a quoted JSON string literal.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x00..=0x1f => "",
            _ => continue,
        };
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.push_str(&s[start..i]);
        if short.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(short);
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// Write one top-level object built by `body`.
pub fn object(body: impl FnOnce(&mut Object<'_>)) -> String {
    let mut out = String::new();
    write_object(&mut out, body);
    out
}

fn write_object(out: &mut String, body: impl FnOnce(&mut Object<'_>)) {
    out.push('{');
    body(&mut Object { out, empty: true });
    out.push('}');
}

/// An object being written; each member places its own separator.
pub struct Object<'a> {
    out: &'a mut String,
    empty: bool,
}

impl Object<'_> {
    fn key(&mut self, key: &str) {
        if !std::mem::take(&mut self.empty) {
            self.out.push(',');
        }
        write_str(self.out, key);
        self.out.push(':');
    }

    /// Write the member `key: value`.
    pub fn field(&mut self, key: &str, value: impl JsonValue) -> &mut Self {
        self.key(key);
        value.write_json(self.out);
        self
    }

    /// Write the member `key` as the object `body` builds.
    pub fn object(&mut self, key: &str, body: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        self.key(key);
        write_object(self.out, body);
        self
    }

    /// Write the member `key` as the object `body` builds from `value`,
    /// or as `null` when `value` is `None`.
    pub fn object_or_null<T>(
        &mut self,
        key: &str,
        value: Option<T>,
        body: impl FnOnce(&mut Object<'_>, T),
    ) -> &mut Self {
        match value {
            Some(v) => self.object(key, |o| body(o, v)),
            None => self.field(key, None::<bool>),
        }
    }

    /// Write the member `key` as the array `body` builds.
    pub fn array(&mut self, key: &str, body: impl FnOnce(&mut Array<'_>)) -> &mut Self {
        self.key(key);
        self.out.push('[');
        body(&mut Array {
            out: self.out,
            empty: true,
        });
        self.out.push(']');
        self
    }
}

/// An array of objects being written; each element places its own
/// separator.
pub struct Array<'a> {
    out: &'a mut String,
    empty: bool,
}

impl Array<'_> {
    /// Append one object element, built by `body`.
    pub fn object(&mut self, body: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        if !std::mem::take(&mut self.empty) {
            self.out.push(',');
        }
        write_object(self.out, body);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn string(s: &str) -> String {
        let mut out = String::new();
        write_str(&mut out, s);
        out
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_every_control_character() {
        assert_eq!(string("a\"b\\c"), r#""a\"b\\c""#);
        assert_eq!(string("a\nb\tc\u{1}"), r#""a\nb\tc\u0001""#);
        assert_eq!(
            string("\r\u{0}\u{8}\u{c}\u{1f}"),
            r#""\r\u0000\u0008\u000c\u001f""#
        );
        for c in (0u8..0x20).map(char::from) {
            let s = string(&c.to_string());
            assert!(s.bytes().all(|b| b >= 0x20), "{c:?} -> {s}");
        }
        // Space, DEL and non-ASCII pass through untouched.
        assert_eq!(string(" \u{7f}é→"), "\" \u{7f}é→\"");
    }

    #[test]
    fn exact_floats_parse_back_to_the_same_bits() {
        let text = |v: f64| {
            object(|o| {
                o.field("v", Exact(v));
            })
        };
        assert_eq!(text(50f64.ln()), r#"{"v":3.912023005428146}"#);
        assert_eq!(text(72.0), r#"{"v":72}"#);
        assert_eq!(text(f64::NAN), r#"{"v":null}"#);
        for v in [50f64.ln(), 0.1 + 0.2, 3.7e-7, 1.0 / 3.0, -2.5e-300, 1.5e300] {
            let t = text(v);
            let num = &t[r#"{"v":"#.len()..t.len() - 1];
            let back: f64 = num.parse().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v:e} -> {num}");
        }
    }

    #[test]
    fn separators_and_brackets_are_placed_for_every_shape() {
        assert_eq!(object(|_| {}), "{}");
        let doc = object(|o| {
            o.array("empty", |_| {})
                .object("nested", |o| {
                    o.field("t", true).field("f", false);
                })
                .array("rows", |a| {
                    a.object(|o| {
                        o.field("k", 1u64);
                    })
                    .object(|_| {});
                })
                .object_or_null("some", Some(7usize), |o, v| {
                    o.field("v", v);
                })
                .object_or_null("none", None::<usize>, |o, v| {
                    o.field("v", v);
                })
                .field("big", u128::MAX)
                .field("owned", String::from("x"))
                .field("opt", Some("y"))
                .field("ints", &[1u64, 2, 3][..])
                .field("no_ints", &[] as &[usize]);
        });
        assert_eq!(
            doc,
            r#"{"empty":[],"nested":{"t":true,"f":false},"rows":[{"k":1},{}],"some":{"v":7},"none":null,"big":340282366920938463463374607431768211455,"owned":"x","opt":"y","ints":[1,2,3],"no_ints":[]}"#
        );
    }

    #[test]
    fn floats_keep_their_precision_and_non_finite_ones_are_null() {
        let doc = object(|o| {
            o.field("a", Fixed(45.0, 4))
                .field("b", Fixed(1.0 / 3.0, 4))
                .field("c", Fixed(2.5e6, 1))
                .field("nan", Fixed(f64::NAN, 4))
                .field("inf", Fixed(f64::INFINITY, 1));
        });
        assert_eq!(
            doc,
            r#"{"a":45.0000,"b":0.3333,"c":2500000.0,"nan":null,"inf":null}"#
        );
    }
}
