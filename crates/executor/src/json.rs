//! The one JSON module: the value model and parser every validator reads
//! with, the writer every emitter writes with, and the field-list checker
//! that lets an emitter and its validator share one `(key, kind)` list.
//!
//! A repeated block of a document (a span's `actual`, a journal event, a
//! histogram summary) is declared once with [`json_block!`](crate::json_block):
//! key, kind and value of each member on one line. The emitter calls the
//! writer function it expands to; the validator hands the list it expands
//! to to [`At::fields`], and [`At`] carries the path every error names.
//! Layout is compact and not part of any schema.

use std::fmt::Write as _;

/// A parsed JSON value — the minimal model the schema checkers need.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, keys in document order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object member lookup.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The number, if this is a number.
    #[must_use]
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Deepest nesting the parser follows. Documents arrive from files
/// (`check-explain`), and `value → array → value` recurses once per
/// level; the deepest document emitted here nests 6.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, expected: u8) -> Result<(), String> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", expected as char)))
        }
    }

    fn eat_word(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.eat_word("null", JsonValue::Null),
            Some(b't') => self.eat_word("true", JsonValue::Bool(true)),
            Some(b'f') => self.eat_word("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err("malformed number"))
    }

    /// Four hex digits of a `\u` escape, starting at `at`.
    fn hex4(&self, at: usize) -> Option<u32> {
        self.text
            .get(at..at + 4)
            .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or escape in one piece;
            // both are ASCII, so the run ends on a character boundary.
            let start = self.pos;
            while !matches!(self.peek(), Some(b'"' | b'\\') | None) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => self.escape(&mut out)?,
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// One backslash escape. A `\u` high surrogate followed by a `\u` low
    /// surrogate decodes to the one scalar they spell; a lone surrogate
    /// becomes U+FFFD.
    fn escape(&mut self, out: &mut String) -> Result<(), String> {
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
                let mut code =
                    self.hex4(self.pos + 1).ok_or_else(|| self.err("malformed \\u escape"))?;
                self.pos += 4;
                if (0xD800..0xDC00).contains(&code) && self.text[self.pos + 1..].starts_with("\\u")
                {
                    if let Some(low @ 0xDC00..=0xDFFF) = self.hex4(self.pos + 3) {
                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                        self.pos += 6;
                    }
                }
                char::from_u32(code).unwrap_or('\u{fffd}')
            }
            _ => return Err(self.err("malformed escape")),
        };
        out.push(c);
        self.pos += 1;
        Ok(())
    }

    /// The elements between the bracket at `pos` and its `close`, each
    /// consumed by `element`, separated by commas.
    fn sequence(
        &mut self,
        close: u8,
        mut element: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting deeper than 128 levels"));
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        if self.peek() != Some(close) {
            loop {
                element(self)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(c) if c == close => break,
                    _ => return Err(self.err(&format!("expected ',' or '{}'", close as char))),
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(())
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        let mut items = Vec::new();
        self.sequence(b']', |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(JsonValue::Arr(items))
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        let mut members = Vec::new();
        self.sequence(b'}', |p| {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.eat(b':')?;
            members.push((key, p.value()?));
            Ok(())
        })?;
        Ok(JsonValue::Obj(members))
    }
}

/// Parses a JSON document: nested values, escapes (surrogate pairs
/// included), exponent numbers; nesting is followed 128 levels deep.
///
/// # Errors
/// A human-readable message with the byte offset of the first problem.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let mut parser = Parser { text, pos: 0, depth: 0 };
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != text.len() {
        return Err(parser.err("trailing content"));
    }
    Ok(value)
}

/// A scalar handed to the writer. Integers keep all their digits (a
/// trace id does not survive a trip through `f64`).
#[derive(Debug, Clone, Copy)]
pub enum Scalar<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, written exactly.
    Int(i128),
    /// A float; non-finite values are written as `null`.
    Num(f64),
    /// A string, escaped on the way out.
    Str(&'a str),
}

macro_rules! scalar_from {
    ($($t:ty => $variant:ident,)*) => {$(
        impl From<$t> for Scalar<'_> {
            fn from(v: $t) -> Self {
                Scalar::$variant(v.into())
            }
        }
    )*};
}
scalar_from!(bool => Bool, u32 => Int, u64 => Int, i64 => Int, f64 => Num,);

impl From<usize> for Scalar<'_> {
    fn from(v: usize) -> Self {
        Scalar::Int(v as i128)
    }
}

impl<'a> From<&'a str> for Scalar<'a> {
    fn from(v: &'a str) -> Self {
        Scalar::Str(v)
    }
}

impl<'a, T: Into<Scalar<'a>>> From<Option<T>> for Scalar<'a> {
    fn from(v: Option<T>) -> Self {
        v.map_or(Scalar::Null, Into::into)
    }
}

/// The streaming writer behind every JSON document this system emits. It
/// owns what the emitters used to track by hand: commas, string escaping,
/// and `null` for a number JSON cannot represent.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Whether the next key or value needs a comma in front of it.
    comma: bool,
}

impl JsonWriter {
    /// An empty writer.
    #[must_use]
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    /// The document written so far.
    #[must_use]
    pub fn finish(self) -> String {
        self.out
    }

    fn sep(&mut self) {
        if std::mem::take(&mut self.comma) {
            self.out.push(',');
        }
    }

    fn string(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.out, "\\u{:04x}", c as u32);
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    /// Writes an object member's key; the member's value must follow.
    pub fn key(&mut self, key: &str) -> &mut JsonWriter {
        self.sep();
        self.string(key);
        self.out.push(':');
        self
    }

    /// Writes a scalar value.
    pub fn val<'a>(&mut self, value: impl Into<Scalar<'a>>) {
        self.sep();
        match value.into() {
            Scalar::Null => self.out.push_str("null"),
            Scalar::Bool(b) => self.out.push_str(if b { "true" } else { "false" }),
            Scalar::Int(n) => {
                let _ = write!(self.out, "{n}");
            }
            Scalar::Num(n) if n.is_finite() => {
                let _ = write!(self.out, "{n}");
            }
            Scalar::Num(_) => self.out.push_str("null"),
            Scalar::Str(s) => self.string(s),
        }
        self.comma = true;
    }

    fn nested(&mut self, open: char, close: char, body: impl FnOnce(&mut JsonWriter)) {
        self.sep();
        self.out.push(open);
        body(self);
        self.out.push(close);
        self.comma = true;
    }

    /// Writes an object whose members `body` writes.
    pub fn obj(&mut self, body: impl FnOnce(&mut JsonWriter)) {
        self.nested('{', '}', body);
    }

    /// Writes an array with one element per item, written by `each`.
    pub fn arr<T>(
        &mut self,
        items: impl IntoIterator<Item = T>,
        mut each: impl FnMut(&mut JsonWriter, T),
    ) {
        self.nested('[', ']', |w| items.into_iter().for_each(|item| each(w, item)));
    }

    /// Writes an array of objects, one per item, its members written by
    /// `members`.
    pub fn objs<T>(
        &mut self,
        items: impl IntoIterator<Item = T>,
        mut members: impl FnMut(&mut JsonWriter, T),
    ) {
        self.arr(items, |w, item| w.obj(|w| members(w, item)));
    }

    /// Writes the object whose members `members` writes from `value`, or
    /// `null` when there is no value.
    pub fn opt_obj<T>(&mut self, value: Option<T>, members: impl FnOnce(&mut JsonWriter, T)) {
        match value {
            Some(value) => self.obj(|w| members(w, value)),
            None => self.val(Scalar::Null),
        }
    }
}

/// What a validator demands of one member.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Any number.
    Num,
    /// A number that is not negative (counts, durations, sizes).
    NonNeg,
    /// A string.
    Str,
    /// A boolean.
    Bool,
    /// A string that is one of these labels.
    OneOf(&'static [&'static str]),
    /// The inner kind, or `null`.
    Nullable(&'static Kind),
    /// The inner kind, checked only when the member is present (members
    /// added to a document after its first version).
    Optional(&'static Kind),
}

/// Declares one repeated block of a document once: each member's key,
/// the [`Kind`] its validator demands, and the value its emitter writes.
/// Expands to the `(key, kind)` list — hand it to [`At::fields`] — and to
/// the function that writes the members into an open object.
///
/// ```
/// use dqep_executor::{json_block, parse_json, At, JsonWriter, Kind};
/// json_block! {
///     POINT, fn write_point(w, x: u64, tag: Option<&str>) {
///         "x": Kind::NonNeg => x,
///         "tag": Kind::Nullable(&Kind::Str) => tag,
///     }
/// }
/// let mut w = JsonWriter::new();
/// w.obj(|w| write_point(w, 3, None));
/// let text = w.finish();
/// assert_eq!(text, r#"{"x":3,"tag":null}"#);
/// At::root(&parse_json(&text).unwrap()).fields(POINT).unwrap();
/// ```
#[macro_export]
macro_rules! json_block {
    ($list:ident, fn $write:ident($w:ident $(, $arg:ident: $ty:ty)*) {
        $($key:literal: $kind:expr => $value:expr,)*
    }) => {
        const $list: &[(&str, $crate::Kind)] = &[$(($key, $kind)),*];
        fn $write($w: &mut $crate::JsonWriter $(, $arg: $ty)*) {
            $($w.key($key).val($value);)*
        }
    };
}

/// What `kind` expected, when `value` (`None`: an absent member) is not it.
fn mismatch(value: Option<&JsonValue>, kind: Kind) -> Option<String> {
    let expected = match (kind, value) {
        (Kind::Optional(_), None) | (Kind::Nullable(_), Some(JsonValue::Null)) => return None,
        (Kind::Optional(inner), _) => return mismatch(value, *inner),
        (Kind::Nullable(inner), _) => return mismatch(value, *inner).map(|e| e + " or null"),
        (Kind::Num, Some(JsonValue::Num(_)))
        | (Kind::Str, Some(JsonValue::Str(_)))
        | (Kind::Bool, Some(JsonValue::Bool(_))) => return None,
        (Kind::NonNeg, Some(JsonValue::Num(n))) if *n >= 0.0 => return None,
        (Kind::OneOf(labels), Some(JsonValue::Str(s))) if labels.contains(&s.as_str()) => {
            return None;
        }
        (Kind::Num, _) => "a number",
        (Kind::NonNeg, _) => "a non-negative number",
        (Kind::Str, _) => "a string",
        (Kind::Bool, _) => "a boolean",
        (Kind::OneOf(_), _) => "a known label",
    };
    Some(expected.to_string())
}

/// A value inside a document under validation, together with the path it
/// was reached by — so every error says where it is.
#[derive(Debug, Clone)]
pub struct At<'a> {
    value: &'a JsonValue,
    path: String,
}

impl<'a> At<'a> {
    /// The root of a parsed document.
    #[must_use]
    pub fn root(value: &'a JsonValue) -> At<'a> {
        At { value, path: String::new() }
    }

    fn path_of(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_string()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    /// The error "member `key` was expected to be `what`".
    ///
    /// # Errors
    /// Always: this is how a validator states a rule no [`Kind`] can.
    pub fn expected<T>(&self, key: &str, what: &str) -> Result<T, String> {
        Err(format!("{}: expected {what}", self.path_of(key)))
    }

    /// Checks this value itself against `kind`.
    ///
    /// # Errors
    /// What was expected here.
    pub fn is(&self, kind: Kind) -> Result<(), String> {
        match mismatch(Some(self.value), kind) {
            Some(what) => Err(format!("{}: expected {what}", self.path)),
            None => Ok(()),
        }
    }

    /// Checks member `key` (which may be absent) against `kind`.
    ///
    /// # Errors
    /// What was expected of the member.
    pub fn check(&self, key: &str, kind: Kind) -> Result<(), String> {
        match mismatch(self.value.get(key), kind) {
            Some(what) => self.expected(key, &what),
            None => Ok(()),
        }
    }

    /// Checks every member a field list names.
    ///
    /// # Errors
    /// The first member that is missing or of the wrong kind.
    pub fn fields(&self, fields: &[(&str, Kind)]) -> Result<(), String> {
        fields.iter().try_for_each(|(key, kind)| self.check(key, *kind))
    }

    /// The number held by member `key`, if it holds one.
    #[must_use]
    pub fn num(&self, key: &str) -> Option<f64> {
        self.value.get(key).and_then(JsonValue::as_num)
    }

    /// Member `key`, which must be an object.
    ///
    /// # Errors
    /// The member is missing or not an object.
    pub fn obj(&self, key: &str) -> Result<At<'a>, String> {
        match self.nullable_obj(key, false) {
            Ok(Some(obj)) => Ok(obj),
            _ => self.expected(key, "an object"),
        }
    }

    /// Member `key` when it is an object; `Ok(None)` when it is `null`,
    /// or absent and `optional`.
    ///
    /// # Errors
    /// The member is missing or neither an object nor `null`.
    pub fn nullable_obj(&self, key: &str, optional: bool) -> Result<Option<At<'a>>, String> {
        match self.value.get(key) {
            None if optional => Ok(None),
            Some(JsonValue::Null) => Ok(None),
            Some(value @ JsonValue::Obj(_)) => Ok(Some(At { value, path: self.path_of(key) })),
            _ => self.expected(key, "an object or null"),
        }
    }

    /// The elements of member `key`, which must be an array.
    ///
    /// # Errors
    /// The member is missing or not an array.
    pub fn arr(&self, key: &str) -> Result<impl ExactSizeIterator<Item = At<'a>>, String> {
        let path = self.path_of(key);
        match self.value.get(key) {
            Some(JsonValue::Arr(items)) => Ok(items
                .iter()
                .enumerate()
                .map(move |(i, value)| At { value, path: format!("{path}[{i}]") })),
            _ => self.expected(key, "an array"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_round_trips_basic_documents() {
        let doc = r#"{"a": [1, -2.5, 1e3], "b": {"c": null, "d": true}, "e": "x\"\nA"}"#;
        let v = parse_json(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2].as_num(), Some(1000.0));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&JsonValue::Null));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x\"\nA"));
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "1 2",
            "\"\\u12\"",
            "\"\\u+123\"",
        ] {
            assert!(parse_json(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let err = parse_json(&"[".repeat(100_000)).unwrap_err();
        assert!(err.contains("deeper than 128") && err.contains("at byte 128"), "{err}");
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_json(&deepest).is_ok(), "128 levels are followed");
        assert!(parse_json(&format!("[{deepest}]")).is_err());
    }

    /// The old string loop re-validated the rest of the document for every
    /// character: 15.6 s for this input, against milliseconds now. The
    /// bound leaves three orders of magnitude for a slow debug host.
    #[test]
    fn string_heavy_megabyte_parses_in_linear_time() {
        let item = format!("\"{}\",", "héllo wörld ".repeat(8));
        let mut doc = String::from("[");
        while doc.len() < 1 << 20 {
            doc.push_str(&item);
        }
        doc.push_str("\"\"]");
        let started = std::time::Instant::now();
        let items = parse_json(&doc).unwrap();
        assert!(items.as_arr().unwrap().len() > 8000);
        assert!(started.elapsed() < std::time::Duration::from_secs(2), "{:?}", started.elapsed());
    }

    #[test]
    fn surrogate_pairs_decode_to_one_scalar() {
        let v = parse_json(r#"["\ud83d\ude00", "😀", "\ud83d", "\ud83dx", "\ude00"]"#).unwrap();
        let strs: Vec<&str> = v.as_arr().unwrap().iter().filter_map(JsonValue::as_str).collect();
        assert_eq!(strs, ["😀", "😀", "\u{fffd}", "\u{fffd}x", "\u{fffd}"]);
    }

    #[test]
    fn writer_owns_commas_escapes_and_non_finite_numbers() {
        crate::json_block! {
            POINT, fn write_point(w, x: f64, tag: Option<&str>) {
                "x": Kind::Num => x,
                "tag": Kind::Nullable(&Kind::Str) => tag,
            }
        }
        let mut w = JsonWriter::new();
        w.obj(|w| {
            w.key("empty").arr(std::iter::empty::<u64>(), |w, n| w.val(n));
            let points = [(1.5, Some("a\"\n\u{1}")), (f64::NAN, None)];
            w.key("points").objs(points, |w, (x, tag)| write_point(w, x, tag));
            w.key("first").opt_obj(points.first(), |w, (x, tag)| write_point(w, *x, *tag));
            w.key("none").opt_obj(None, |w, (x, tag)| write_point(w, x, tag));
            w.key("id").val(u64::MAX);
            w.key("neg").val(-3i64);
        });
        let text = w.finish();
        assert_eq!(
            text,
            r#"{"empty":[],"points":[{"x":1.5,"tag":"a\"\n\u0001"},{"x":null,"tag":null}],"first":{"x":1.5,"tag":"a\"\n\u0001"},"none":null,"id":18446744073709551615,"neg":-3}"#
        );
        let doc = parse_json(&text).unwrap();
        let root = At::root(&doc);
        let mut points = root.arr("points").unwrap();
        assert_eq!(points.len(), 2);
        points.next().unwrap().fields(POINT).unwrap();
        assert_eq!(
            points.next().unwrap().fields(POINT).unwrap_err(),
            "points[1].x: expected a number"
        );
        let first = root.obj("first").unwrap();
        assert_eq!(first.num("x"), Some(1.5));
        assert_eq!(first.value.get("tag").unwrap().as_str(), Some("a\"\n\u{1}"));
    }

    #[test]
    fn checker_reports_the_path_and_the_expectation() {
        use Kind::{Bool, NonNeg, Nullable, Num, OneOf, Optional};
        let doc = parse_json(r#"{"n": -1, "s": "x", "o": {"b": null, "a": [1, "y"]}, "z": null}"#)
            .unwrap();
        let root = At::root(&doc);
        assert!(root.check("n", Num).is_ok());
        assert_eq!(root.check("n", NonNeg).unwrap_err(), "n: expected a non-negative number");
        assert_eq!(
            root.check("s", Nullable(&NonNeg)).unwrap_err(),
            "s: expected a non-negative number or null"
        );
        assert!(root.check("s", OneOf(&["x", "y"])).is_ok());
        assert_eq!(root.check("s", OneOf(&["y"])).unwrap_err(), "s: expected a known label");
        assert!(root.check("missing", Optional(&Bool)).is_ok());
        assert!(root.check("missing", Nullable(&Bool)).is_err());
        assert!(root.check("z", Optional(&Bool)).is_err(), "optional is not nullable");
        assert!(root.check("z", Optional(&Nullable(&Bool))).is_ok());
        let o = root.obj("o").unwrap();
        assert_eq!(o.check("b", Bool).unwrap_err(), "o.b: expected a boolean");
        assert_eq!(root.obj("z").unwrap_err(), "z: expected an object");
        assert_eq!(root.obj("missing").unwrap_err(), "missing: expected an object");
        assert!(root.nullable_obj("o", false).unwrap().is_some());
        assert!(root.nullable_obj("z", false).unwrap().is_none());
        assert!(root.nullable_obj("missing", true).unwrap().is_none());
        assert!(root.nullable_obj("missing", false).is_err());
        assert_eq!(root.nullable_obj("n", true).unwrap_err(), "n: expected an object or null");
        let items: Vec<_> = o.arr("a").unwrap().map(|item| item.is(Num)).collect();
        assert_eq!(items, [Ok(()), Err("o.a[1]: expected a number".to_string())]);
        assert_eq!(o.arr("b").err().unwrap(), "o.b: expected an array");
        assert_eq!(o.expected::<()>("a", "two items").unwrap_err(), "o.a: expected two items");
    }
}
