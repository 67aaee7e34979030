//! The workspace's JSON layer: a parser, one emitter, and the
//! [`ToJson`]/[`FromJson`] trait pair the persisted types implement
//! through the [`json_struct!`](crate::json_struct) and
//! [`json_enum!`](crate::json_enum) macros (DESIGN.md §20).
//!
//! The encoding is the one persisted files have always used: a struct
//! is an object keyed by field name (unknown members are ignored), a
//! unit enum is its variant name, `None` is `null` and a missing
//! `Option` member is `None`. Numbers keep their literal text, so
//! integers decode exactly and out-of-range or fractional ones are
//! rejected; floats are written in shortest round-trip form (non-finite
//! ones as `null`, which decodes as NaN). Decoding never panics.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// The number's literal text, validated as a JSON-style number.
    Number(String),
    String(String),
    Array(Vec<Value>),
    Object(BTreeMap<String, Value>),
}

impl Value {
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// Member of an object, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?.get(key)
    }
}

/// Nesting limit of [`parse`], so hostile input cannot exhaust the stack.
const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document (rejects trailing garbage).
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, pos: 0, depth: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    /// Byte offset; always on a char boundary.
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() != Some(b) {
            return Err(format!("expected '{}' at byte {}", b as char, self.pos));
        }
        self.pos += 1;
        Ok(())
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if !self.text[self.pos..].starts_with(lit) {
            return Err(format!("invalid literal at byte {}", self.pos));
        }
        self.pos += lit.len();
        Ok(v)
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if self.depth >= MAX_DEPTH => {
                Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos))
            }
            Some(open @ (b'{' | b'[')) => {
                self.depth += 1;
                let v = if open == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at {}", self.pos)),
        }
    }

    /// Runs `item` over a `,`-separated list from its opening bracket to `close`.
    fn list(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => {
                    return Err(format!("expected ',' or '{}' at byte {}", close as char, self.pos))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        let mut map = BTreeMap::new();
        self.list(b'}', |p| {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            map.insert(key, p.value()?);
            Ok(())
        })?;
        Ok(Value::Object(map))
    }

    fn array(&mut self) -> Result<Value, String> {
        let mut items = Vec::new();
        self.list(b']', |p| p.value().map(|v| items.push(v)))?;
        Ok(Value::Array(items))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let ch = self.text[self.pos..].chars().next().ok_or("unterminated string")?;
            self.pos += ch.len_utf8();
            match ch {
                '"' => return Ok(out),
                '\\' => {
                    let esc = self.peek().ok_or("unterminated string")?;
                    self.pos += 1;
                    out.push(match esc {
                        b'"' | b'\\' | b'/' => esc as char,
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        // Surrogate pairs are not emitted by our exporters;
                        // lone surrogates become the replacement character.
                        b'u' => {
                            let hex = self
                                .text
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            self.pos += 4;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            char::from_u32(code).unwrap_or('\u{fffd}')
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
                    });
                }
                c => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        self.pos += 1;
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        match text.parse::<f64>() {
            Ok(_) => Ok(Value::Number(text.to_string())),
            Err(e) => Err(format!("bad number at byte {start}: {e}")),
        }
    }
}

// ---------------------------------------------------------------------
// Typed encode/decode
// ---------------------------------------------------------------------

/// Why a document did not decode into the requested type.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonError {
    /// The text is not well-formed JSON.
    Syntax(String),
    /// A required object member is absent.
    Missing(&'static str),
    /// A value has the wrong JSON type.
    Type { expected: &'static str },
    /// This number literal does not fit the target type (or is fractional).
    Range(String),
    /// An array has the wrong length.
    Length { expected: usize, found: usize },
    /// The members violate an invariant of the type, or name no variant.
    Invalid(String),
    /// An error inside the named object member.
    Field { name: &'static str, error: Box<JsonError> },
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Syntax(msg) | JsonError::Invalid(msg) => f.write_str(msg),
            JsonError::Missing(name) => write!(f, "missing member `{name}`"),
            JsonError::Type { expected } => write!(f, "expected {expected}"),
            JsonError::Range(lit) => write!(f, "number {lit} does not fit its type"),
            JsonError::Length { expected, found } => write!(f, "{found} elements, not {expected}"),
            JsonError::Field { name, error } => write!(f, "{name}: {error}"),
        }
    }
}

impl std::error::Error for JsonError {}

impl From<JsonError> for std::io::Error {
    fn from(e: JsonError) -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// Types that encode themselves as JSON.
pub trait ToJson {
    /// Appends the encoding of `self` to `out`.
    fn write_json(&self, out: &mut String);

    fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

/// Types that decode themselves from a parsed [`Value`].
pub trait FromJson: Sized {
    fn from_json(v: &Value) -> Result<Self, JsonError>;

    /// The value of an absent object member, or `None` if the member is
    /// required. Only `Option` overrides this (to `Some(None)`).
    fn from_missing() -> Option<Self> {
        None
    }

    fn from_json_str(text: &str) -> Result<Self, JsonError> {
        Self::from_json(&parse(text).map_err(JsonError::Syntax)?)
    }
}

/// Escapes `s` into a JSON string literal body.
fn write_escaped(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        write_escaped(out, self);
        out.push('"');
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out)
    }
}

impl FromJson for String {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_str().map(str::to_string).ok_or(JsonError::Type { expected: "a string" })
    }
}

impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        // `{:?}` is the shortest text that parses back to the same bits.
        out.push_str(&if self.is_finite() { format!("{self:?}") } else { "null".into() })
    }
}

impl FromJson for f64 {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Number(text) => text.parse().map_err(|_| JsonError::Range(text.clone())),
            Value::Null => Ok(f64::NAN),
            _ => Err(JsonError::Type { expected: "a number" }),
        }
    }
}

macro_rules! json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                out.push_str(&self.to_string())
            }
        }

        impl FromJson for $t {
            fn from_json(v: &Value) -> Result<Self, JsonError> {
                let Value::Number(text) = v else {
                    return Err(JsonError::Type { expected: "an integer" });
                };
                text.parse().map_err(|_| JsonError::Range(text.clone()))
            }
        }
    )*};
}

json_int!(i32, u32, u64, usize);

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Null => Ok(None),
            v => T::from_json(v).map(Some),
        }
    }

    fn from_missing() -> Option<Self> {
        Some(None)
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_json(out);
        }
        out.push(']');
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let items = v.as_array().ok_or(JsonError::Type { expected: "an array" })?;
        items.iter().map(T::from_json).collect()
    }
}

/// A pair is a two-element array.
impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        self.0.write_json(out);
        out.push(',');
        self.1.write_json(out);
        out.push(']');
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v.as_array().ok_or(JsonError::Type { expected: "an array" })? {
            [a, b] => Ok((A::from_json(a)?, B::from_json(b)?)),
            items => Err(JsonError::Length { expected: 2, found: items.len() }),
        }
    }
}

/// A string-keyed map is an object, members in key order.
impl<T: ToJson> ToJson for BTreeMap<String, T> {
    fn write_json(&self, out: &mut String) {
        let mut sep = '{';
        for (name, v) in self {
            write_member(out, &mut sep, name, v);
        }
        out.push_str(if sep == '{' { "{}" } else { "}" });
    }
}

impl<T: FromJson> FromJson for BTreeMap<String, T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        object(v)?.iter().map(|(name, v)| Ok((name.clone(), T::from_json(v)?))).collect()
    }
}

/// Appends one object member, opening the object (`sep == '{'`) or
/// continuing it (`','`).
pub fn write_member<T: ToJson + ?Sized>(out: &mut String, sep: &mut char, name: &str, v: &T) {
    out.push(std::mem::replace(sep, ','));
    name.write_json(out);
    out.push(':');
    v.write_json(out);
}

/// The members of `v`, which must be an object.
pub fn object(v: &Value) -> Result<&BTreeMap<String, Value>, JsonError> {
    v.as_object().ok_or(JsonError::Type { expected: "an object" })
}

/// Decodes member `name`; an absent member is [`FromJson::from_missing`].
pub fn member<T: FromJson>(
    obj: &BTreeMap<String, Value>,
    name: &'static str,
) -> Result<T, JsonError> {
    match obj.get(name) {
        Some(v) => T::from_json(v).map_err(|e| JsonError::Field { name, error: Box::new(e) }),
        None => T::from_missing().ok_or(JsonError::Missing(name)),
    }
}

/// Implements [`ToJson`]/[`FromJson`] for a struct as an object keyed
/// by field name, one line per field:
///
/// * `name` — required (an `Option` field may be absent: `None`);
/// * `name = expr` — `expr` when absent (it may name fields listed
///   before it);
/// * `#[omit_none] name` — an `Option` field left out when `None`.
///
/// An optional trailing `check path` names a
/// `fn(&Self) -> Result<(), JsonError>` run after decoding.
///
/// ```
/// use wise_trace::export::json::{FromJson, ToJson};
/// #[derive(Debug, PartialEq)]
/// struct Point { x: f64, label: Option<String>, weight: u32 }
/// wise_trace::json_struct!(Point { x, #[omit_none] label, weight = 1 });
///
/// let p = Point { x: 0.5, label: None, weight: 3 };
/// assert_eq!(p.to_json(), r#"{"x":0.5,"weight":3}"#);
/// assert_eq!(Point::from_json_str(r#"{"x":0.5}"#).unwrap().weight, 1);
/// ```
#[macro_export]
macro_rules! json_struct {
    ($ty:ident { $($body:tt)* }) => {
        $crate::json_struct!($ty { $($body)* } check |_: &$ty| Ok(()));
    };
    ($ty:ident { $( $(#[$attr:ident])? $field:ident $(= $default:expr)? ),* $(,)? }
        check $check:expr) => {
        impl $crate::export::json::ToJson for $ty {
            fn write_json(&self, out: &mut String) {
                let mut sep = '{';
                $( $crate::json_struct!(@write out sep self $field $($attr)?); )*
                out.push_str(if sep == '{' { "{}" } else { "}" });
            }
        }
        impl $crate::export::json::FromJson for $ty {
            fn from_json(
                v: &$crate::export::json::Value,
            ) -> Result<Self, $crate::export::json::JsonError> {
                let obj = $crate::export::json::object(v)?;
                $( let $field = $crate::json_struct!(@member obj $field $($default)?); )*
                let value = $ty { $($field),* };
                let check: fn(&$ty) -> Result<(), $crate::export::json::JsonError> = $check;
                check(&value)?;
                Ok(value)
            }
        }
    };
    (@write $out:ident $sep:ident $self:ident $field:ident omit_none) => {
        if let Some(v) = &$self.$field {
            $crate::export::json::write_member($out, &mut $sep, stringify!($field), v);
        }
    };
    (@write $out:ident $sep:ident $self:ident $field:ident) => {
        $crate::export::json::write_member($out, &mut $sep, stringify!($field), &$self.$field)
    };
    (@member $obj:ident $field:ident $default:expr) => {
        match $obj.get(stringify!($field)) {
            None => $default,
            Some(_) => $crate::export::json::member($obj, stringify!($field))?,
        }
    };
    (@member $obj:ident $field:ident) => { $crate::export::json::member($obj, stringify!($field))? };
}

/// Implements [`ToJson`]/[`FromJson`] for a fieldless enum as its
/// variant name: `json_enum!(Schedule { Dyn, St, StCont })`.
#[macro_export]
macro_rules! json_enum {
    ($ty:ident { $($variant:ident),* $(,)? }) => {
        impl $crate::export::json::ToJson for $ty {
            fn write_json(&self, out: &mut String) {
                let name = match self {
                    $( $ty::$variant => stringify!($variant), )*
                };
                $crate::export::json::ToJson::write_json(name, out)
            }
        }
        impl $crate::export::json::FromJson for $ty {
            fn from_json(
                v: &$crate::export::json::Value,
            ) -> Result<Self, $crate::export::json::JsonError> {
                use $crate::export::json::JsonError;
                match v.as_str() {
                    $( Some(stringify!($variant)) => Ok($ty::$variant), )*
                    Some(other) => Err(JsonError::Invalid(format!("unknown variant {other:?}"))),
                    None => Err(JsonError::Type { expected: "a variant name" }),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Shape {
        Round,
        Square,
    }
    json_enum!(Shape { Round, Square });

    #[derive(Debug, Clone, PartialEq)]
    struct Rec {
        name: String,
        seed: u64,
        ratio: f64,
        shape: Shape,
        tags: Vec<u32>,
        limit: Option<f64>,
        extra: usize,
        hint: Option<u32>,
    }
    crate::json_struct!(Rec { name, seed, ratio, shape, tags, limit, extra = 7, #[omit_none] hint });

    fn rec() -> Rec {
        Rec {
            name: "a\"b\n\u{1}é".into(),
            seed: u64::MAX,
            ratio: 0.1 + 0.2,
            shape: Shape::Square,
            tags: vec![0, u32::MAX],
            limit: None,
            extra: 3,
            hint: None,
        }
    }

    #[test]
    fn round_trips_exactly() {
        let r = rec();
        let text = r.to_json();
        assert!(!text.contains("hint"), "{text}");
        assert!(text.contains(r#""limit":null"#), "{text}");
        assert!(text.contains("18446744073709551615"), "{text}");
        let back = Rec::from_json_str(&text).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.ratio.to_bits(), r.ratio.to_bits());
        for x in [f64::MIN_POSITIVE, -0.0, 1e300, 5e-324, 123456789.125, f64::MAX] {
            assert_eq!(f64::from_json_str(&x.to_json()).unwrap().to_bits(), x.to_bits());
        }
    }

    #[test]
    fn defaults_and_missing_members() {
        let back =
            Rec::from_json_str(r#"{"name":"x","seed":1,"ratio":2,"shape":"Round","tags":[]}"#)
                .unwrap();
        assert_eq!((back.extra, back.limit, back.hint), (7, None, None));
        assert_eq!(
            Rec::from_json_str(r#"{"name":"x","ratio":2,"shape":"Round","tags":[]}"#),
            Err(JsonError::Missing("seed"))
        );
    }

    #[test]
    fn rejects_wrong_types_and_unrepresentable_numbers() {
        assert_eq!(
            u64::from_json_str("18446744073709551616"),
            Err(JsonError::Range("18446744073709551616".into()))
        );
        assert!(matches!(u32::from_json_str("4294967296"), Err(JsonError::Range(_))));
        assert!(matches!(u32::from_json_str("-1"), Err(JsonError::Range(_))));
        assert!(matches!(usize::from_json_str("1.5"), Err(JsonError::Range(_))));
        assert!(matches!(usize::from_json_str("1e3"), Err(JsonError::Range(_))));
        assert_eq!(u64::from_json_str("9007199254740993"), Ok(9007199254740993));
        assert!(matches!(u32::from_json_str("\"3\""), Err(JsonError::Type { .. })));
        assert!(matches!(Shape::from_json_str("\"Oval\""), Err(JsonError::Invalid(_))));
        assert!(f64::from_json_str("null").unwrap().is_nan());
        let err =
            Rec::from_json_str(r#"{"name":"x","seed":1,"ratio":2,"shape":"Round","tags":[1,"2"]}"#)
                .unwrap_err();
        assert!(matches!(err, JsonError::Field { name: "tags", .. }), "{err:?}");
        assert!(err.to_string().starts_with("tags: "), "{err}");
    }

    #[test]
    fn hostile_input_errs_without_panicking() {
        let text = rec().to_json();
        for cut in 0..text.len() {
            if text.is_char_boundary(cut) {
                assert!(Rec::from_json_str(&text[..cut]).is_err(), "prefix {cut}");
            }
        }
        let deep = "[".repeat(100_000);
        assert!(matches!(Vec::<u32>::from_json_str(&deep), Err(JsonError::Syntax(_))));
        for junk in ["", "{", "{\"name\"", "[1,]", "\"\\u12", "-", "1e", "nul", "{\"a\":}"] {
            assert!(Rec::from_json_str(junk).is_err(), "{junk:?}");
        }
    }
}
