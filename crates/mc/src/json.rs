//! The workspace's one JSON module: a [`Json`] value, one strict parser and
//! one writer.
//!
//! Every document this workspace reads or writes — `nice-trace-v1` traces,
//! `nice-dist-v5` wire frames and the `nice-cli-*` reports — goes through
//! here (the offline build has no serde).
//!
//! * [`Json::parse`] is a strict RFC 8259 parser: one pass over the input
//!   (cost linear in its length), nesting bounded by [`MAX_DEPTH`] so bytes
//!   from another process can exhaust neither the stack nor the clock.
//! * Documents are *built* as values ([`Json::object`], the `From` impls,
//!   [`Json::fixed`]) and rendered by [`Json::compact`] or [`Json::block`].
//!   Strings are escaped in exactly one place and no caller spells a comma,
//!   a bracket or a quote, so the output is well-formed by construction and
//!   nothing re-parses what it has just rendered.
//! * The keyed accessors ([`Json::u64`], [`Json::str`], …) read a member of
//!   an object with one uniform error text.
//!
//! Schema types carry `to_json(&self) -> Json<'_>` and
//! `from_json(&Json) -> Result<Self, String>` next to their definition; the
//! two document roots ([`crate::Trace`] and `nice_dist::Frame`) add the
//! text-level `to_json() -> String` / `from_json(&str)` on top.

use std::borrow::Cow;
use std::fmt::Write as _;

/// Deepest container nesting [`Json::parse`] accepts. The workspace's own
/// documents nest 7 deep; anything past this bound is rejected with an
/// error rather than parsed recursively.
pub const MAX_DEPTH: usize = 64;

/// A JSON value. Strings and keys borrow where they can: from the input
/// text when parsed (`'a` is the input's lifetime), from the value being
/// serialized or from a literal when built — so neither direction copies a
/// string it does not have to unescape.
#[derive(Debug, Clone, PartialEq)]
pub enum Json<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits a `u64` — every number of the
    /// trace and wire schemas. Exact: there is no `f64` detour.
    Int(u64),
    /// Any other number, as its text: source text when parsed,
    /// caller-formatted text when written (so `{:.6}` stays `{:.6}`).
    Num(Cow<'a, str>),
    /// A string (unescaped).
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<Json<'a>>),
    /// An object, as insertion-ordered members.
    Obj(Vec<(Cow<'a, str>, Json<'a>)>),
    /// A subtree [`Json::block`] renders compactly on one line (the witness
    /// trace embedded in a CLI report). Never produced by the parser.
    Compact(Box<Json<'a>>),
}

// ---------------------------------------------------------------------------
// Building
// ---------------------------------------------------------------------------

impl<'a> Json<'a> {
    /// An object with the given members, in order.
    pub fn object(members: impl IntoIterator<Item = (&'a str, Json<'a>)>) -> Self {
        let members = members.into_iter();
        Json::Obj(members.map(|(k, v)| (Cow::Borrowed(k), v)).collect())
    }

    /// A float with a fixed number of decimals. JSON has no spelling for
    /// NaN or an infinity, so a non-finite value is written as `null`.
    pub fn fixed(value: f64, decimals: usize) -> Self {
        if value.is_finite() {
            Json::Num(format!("{value:.decimals$}").into())
        } else {
            Json::Null
        }
    }
}

impl From<bool> for Json<'_> {
    fn from(value: bool) -> Self {
        Json::Bool(value)
    }
}

impl<'a> From<&'a str> for Json<'a> {
    fn from(value: &'a str) -> Self {
        Json::Str(Cow::Borrowed(value))
    }
}

/// `None` is `null`.
impl<'a, T: Into<Json<'a>>> From<Option<T>> for Json<'a> {
    fn from(value: Option<T>) -> Self {
        value.map_or(Json::Null, Into::into)
    }
}

macro_rules! json_from_unsigned {
    ($($int:ty)*) => {$(
        impl From<$int> for Json<'_> {
            fn from(value: $int) -> Self {
                Json::Int(value as u64)
            }
        }
    )*};
}
json_from_unsigned!(u8 u16 u32 u64 usize);

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

impl<'a> Json<'a> {
    /// The member stored under `key` of this object.
    pub fn get(&self, key: &str) -> Result<&Json<'a>, String> {
        match self {
            Json::Obj(members) => members
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing \"{key}\"")),
            _ => Err(format!("expected an object holding \"{key}\"")),
        }
    }

    fn typed<'j, T>(
        &'j self,
        key: &str,
        what: &str,
        read: impl FnOnce(&'j Json<'a>) -> Option<T>,
    ) -> Result<T, String> {
        read(self.get(key)?).ok_or_else(|| format!("\"{key}\" must be {what}"))
    }

    /// The member `key` as an exact `u64`.
    pub fn u64(&self, key: &str) -> Result<u64, String> {
        self.typed(key, "a non-negative integer", |v| match v {
            Json::Int(n) => Some(*n),
            _ => None,
        })
    }

    /// The member `key` as a float.
    pub fn f64(&self, key: &str) -> Result<f64, String> {
        self.typed(key, "a number", |v| match v {
            Json::Int(n) => Some(*n as f64),
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        })
    }

    /// The member `key` as a boolean.
    pub fn bool(&self, key: &str) -> Result<bool, String> {
        self.typed(key, "a boolean", |v| match v {
            Json::Bool(b) => Some(*b),
            _ => None,
        })
    }

    /// The member `key` as a string.
    pub fn str(&self, key: &str) -> Result<&str, String> {
        self.typed(key, "a string", |v| match v {
            Json::Str(s) => Some(s.as_ref()),
            _ => None,
        })
    }

    /// The member `key` as a string, or `None` if it is `null` or absent.
    pub fn opt_str(&self, key: &str) -> Result<Option<&str>, String> {
        match self.get(key) {
            Ok(Json::Str(s)) => Ok(Some(s)),
            Ok(Json::Null) | Err(_) => Ok(None),
            Ok(_) => Err(format!("\"{key}\" must be a string or null")),
        }
    }

    /// The string member `key` mapped through `parse` — the by-name
    /// constructor of an enum with stable names.
    pub fn parsed<T>(&self, key: &str, parse: impl FnOnce(&str) -> Option<T>) -> Result<T, String> {
        let name = self.str(key)?;
        parse(name).ok_or_else(|| format!("unknown {key} '{name}'"))
    }

    /// The member `key` as an array.
    pub fn arr(&self, key: &str) -> Result<&[Json<'a>], String> {
        self.typed(key, "an array", |v| match v {
            Json::Arr(items) => Some(items.as_slice()),
            _ => None,
        })
    }

    /// Refuses a member of this object that `template`, an object the
    /// writer made, does not have: a reader that skipped it would accept a
    /// document it does not write back.
    pub fn within(&self, template: &Json) -> Result<(), String> {
        let (Json::Obj(members), Json::Obj(known)) = (self, template) else {
            return Err("expected an object".into());
        };
        match (members.iter()).find(|(key, _)| !known.iter().any(|(k, _)| k == key)) {
            Some((key, _)) => Err(format!("unknown key '{key}'")),
            None => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

impl Json<'_> {
    /// Renders the value on one line with no whitespace — the layout of
    /// trace files and wire frames.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Renders the value in the block layout of the CLI and bench reports:
    /// a container whose children are all scalars is written inline as
    /// `{"k": v, …}`, any other container puts each child on its own line
    /// with a two-space indent.
    pub fn block(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// `depth` is `None` in the compact layout, the nesting level in the
    /// block layout.
    fn write(&self, out: &mut String, depth: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(raw) => out.push_str(raw),
            Json::Str(s) => escape(out, s),
            Json::Compact(inner) => inner.write(out, None),
            Json::Arr(items) => {
                write_container(out, depth, ['[', ']'], items.iter().map(|v| (None, v)))
            }
            Json::Obj(members) => {
                let members = members.iter().map(|(k, v)| (Some(k.as_ref()), v));
                write_container(out, depth, ['{', '}'], members)
            }
        }
    }
}

fn write_container<'j>(
    out: &mut String,
    depth: Option<usize>,
    [open, close]: [char; 2],
    children: impl Iterator<Item = (Option<&'j str>, &'j Json<'j>)> + Clone,
) {
    let spaced = depth.is_some();
    // Block layout only: the depth of the children if they get their own lines.
    let broken = depth.map(|d| d + 1).filter(|_| {
        let mut values = children.clone().map(|(_, v)| v);
        values.any(|v| matches!(v, Json::Arr(_) | Json::Obj(_)))
    });
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.extend(std::iter::repeat_n("  ", depth));
    };
    out.push(open);
    for (i, (key, value)) in children.enumerate() {
        if i > 0 {
            out.push(',');
        }
        match broken {
            Some(depth) => newline(out, depth),
            None if i > 0 && spaced => out.push(' '),
            None => {}
        }
        if let Some(key) = key {
            escape(out, key);
            out.push(':');
            if spaced {
                out.push(' ');
            }
        }
        value.write(out, broken.or(depth));
    }
    if let Some(depth) = broken {
        newline(out, depth - 1);
    }
    out.push(close);
}

/// Appends `s` as a quoted JSON string literal — the one place strings are
/// escaped.
fn escape(out: &mut String, s: &str) {
    out.push('"');
    // Start of the pending run of characters that need no escape.
    let mut plain = 0;
    for (i, byte) in s.bytes().enumerate() {
        let escaped = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[plain..i]);
        if escaped.is_empty() {
            let _ = write!(out, "\\u{byte:04x}");
        } else {
            out.push_str(escaped);
        }
        plain = i + 1;
    }
    out.push_str(&s[plain..]);
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

impl<'a> Json<'a> {
    /// Parses exactly one JSON value (RFC 8259, no trailing characters).
    /// Errors name the byte offset.
    pub fn parse(input: &'a str) -> Result<Self, String> {
        let mut p = Parser {
            text: input,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != input.len() {
            return Err(p.err("trailing characters after the JSON value"));
        }
        Ok(value)
    }
}

/// A recursive-descent parser; the recursion is as deep as the document
/// nests, which `container` bounds by [`MAX_DEPTH`].
struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> String {
        format!("invalid JSON at byte {}: {message}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, byte: u8) -> bool {
        let found = self.peek() == Some(byte);
        self.pos += usize::from(found);
        found
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<Json<'a>, String> {
        match self.peek() {
            Some(b'{') => self.container(b'}'),
            Some(b'[') => self.container(b']'),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, value: Json<'a>) -> Result<Json<'a>, String> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    /// Skips whitespace; if `byte` comes next, steps over it and the
    /// whitespace behind it.
    fn punct(&mut self, byte: u8) -> bool {
        self.skip_ws();
        let found = self.eat(byte);
        if found {
            self.skip_ws();
        }
        found
    }

    /// An array (`close` is `]`) or an object (`close` is `}`), positioned
    /// on its opening bracket.
    fn container(&mut self, close: u8) -> Result<Json<'a>, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        self.pos += 1;
        let (mut items, mut members) = (Vec::new(), Vec::new());
        let mut more = !self.punct(close);
        while more {
            if close == b'}' {
                let key = self.string()?;
                if !self.punct(b':') {
                    return Err(self.err("expected ':'"));
                }
                members.push((key, self.value()?));
            } else {
                items.push(self.value()?);
            }
            more = self.punct(b',');
            if !more && !self.punct(close) {
                return Err(self.err(&format!("expected ',' or '{}'", close as char)));
            }
        }
        self.depth -= 1;
        Ok(if close == b'}' {
            Json::Obj(members)
        } else {
            Json::Arr(items)
        })
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Json<'a>, String> {
        let start = self.pos;
        self.eat(b'-');
        if !self.eat(b'0') && self.digits() == 0 {
            return Err(self.err("expected a digit"));
        }
        if self.eat(b'.') && self.digits() == 0 {
            return Err(self.err("expected a digit after '.'"));
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            if self.digits() == 0 {
                return Err(self.err("expected a digit in the exponent"));
            }
        }
        // Of what the grammar lets through, `u64` parses the plain digit
        // runs that fit and nothing else.
        let text = &self.text[start..self.pos];
        Ok(match text.parse() {
            Ok(n) => Json::Int(n),
            Err(_) => Json::Num(Cow::Borrowed(text)),
        })
    }

    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        if !self.eat(b'"') {
            return Err(self.err("expected '\"'"));
        }
        // A string with no escape in it is borrowed from the input; the
        // first escape moves what was read so far into an owned buffer.
        let mut owned: Option<String> = None;
        loop {
            // The input is UTF-8 already: a run of characters that are not
            // `"`, `\` or a control is taken as one slice. Those three are
            // ASCII, so both ends of the run are character boundaries.
            let rest = &self.text[self.pos..];
            let stop = |c: u8| c == b'"' || c == b'\\' || c < 0x20;
            let run = &rest[..rest.bytes().position(stop).unwrap_or(rest.len())];
            self.pos += run.len();
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        Some(text) => Cow::Owned(text + run),
                        None => Cow::Borrowed(run),
                    });
                }
                Some(b'\\') => {
                    let text = owned.get_or_insert_with(String::new);
                    text.push_str(run);
                    text.push(self.escape()?);
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// The character an escape sequence (positioned on its backslash)
    /// stands for. A `\u` escape of a high surrogate must be followed by
    /// one of a low surrogate; the pair is one character.
    fn escape(&mut self) -> Result<char, String> {
        let simple = match self.text.as_bytes().get(self.pos + 1) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let mut code = self.hex4()?;
                if (0xd800..0xdc00).contains(&code) && self.peek() == Some(b'\\') {
                    let low = self.hex4()?;
                    if !(0xdc00..0xe000).contains(&low) {
                        return Err(self.err("invalid \\u escape: unpaired surrogate"));
                    }
                    code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                }
                return char::from_u32(code)
                    .ok_or_else(|| self.err("invalid \\u escape: unpaired surrogate"));
            }
            _ => return Err(self.err("invalid escape sequence")),
        };
        self.pos += 2;
        Ok(simple)
    }

    /// Reads a `\uXXXX` escape, positioned on its backslash.
    fn hex4(&mut self) -> Result<u32, String> {
        let code = self
            .text
            .as_bytes()
            .get(self.pos..self.pos + 6)
            .filter(|escape| escape.starts_with(b"\\u"))
            .and_then(|escape| {
                escape[2..]
                    .iter()
                    .try_fold(0, |code, &d| Some(code << 4 | char::from(d).to_digit(16)?))
            })
            .ok_or_else(|| self.err("expected \\u and 4 hex digits"))?;
        self.pos += 6;
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Trace;

    #[test]
    fn accepts_well_formed_documents() {
        for ok in [
            "{}",
            "[]",
            "null",
            "true",
            "0",
            "-0.5",
            "-12.5e+3",
            "1E9",
            r#"{"a": [1, 2.0, {"b": "c\nd"}], "e": null}"#,
            "  {\n  \"x\": [false]\n}\n",
            r#""é""#,
            r#""\/\b\f\u00e9""#,
        ] {
            assert!(Json::parse(ok).is_ok(), "{ok}");
        }
    }

    /// The one grammar table: everything either of the two former parsers
    /// rejected, plus what the trace-private one wrongly accepted (`01`,
    /// `1.`, `1e`). `Trace::from_json` reads through the same parser.
    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "   ",
            "{",
            "[1,]",
            "[1 2]",
            "{\"a\": 1,}",
            "{\"a\" 1}",
            "{a: 1}",
            "\"unterminated",
            "\"bad \\x escape\"",
            "\"short \\u12\"",
            "01",
            "[01]",
            "1.",
            "1.e3",
            "1e",
            "1e+",
            "-",
            "+1",
            ".5",
            "nul",
            "tru",
            "{} {}",
            "[1,2,3] x",
            "{\"a\": \"\u{1}\"}",
            "\"tab\there\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should be rejected");
            assert!(Trace::from_json(bad).is_err(), "{bad:?} is not a trace");
        }
    }

    #[test]
    fn nesting_is_bounded_not_recursed() {
        // 100 000 levels overflowed the stack of both former parsers.
        for open in ["[", "{\"a\":"] {
            let err = Json::parse(&open.repeat(100_000)).unwrap_err();
            assert!(err.contains("nesting deeper than 64 levels"), "{err}");
        }
        let nested = |levels: usize| "[".repeat(levels) + &"]".repeat(levels);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_err());
        // Depth is nesting, not a count of containers seen.
        assert!(Json::parse(&format!("[{}]", "[[]],".repeat(500) + "[]")).is_ok());
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_do_not() {
        let parsed = Json::parse(r#"{"s": "\ud83d\ude00 \u00e9"}"#).unwrap();
        assert_eq!(parsed.str("s"), Ok("\u{1F600} é"));
        assert_eq!(parsed, Json::parse("{\"s\": \"\u{1F600} é\"}").unwrap());
        for lone in [
            r#""\ud83d""#,
            r#""\ud83d x""#,
            r#""\ud83d\n""#,
            r#""\ud83d\u0041""#,
            r#""\ude00""#,
            r#""\ude00\ud83d""#,
        ] {
            assert!(Json::parse(lone).is_err(), "{lone}");
        }
    }

    #[test]
    fn escapes_round_trip_through_the_parser() {
        let tricky = "quote \" backslash \\ newline \n return \r tab \t bell \u{7} é \u{1F600}";
        let doc = Json::object([("s", tricky.into())]);
        assert_eq!(
            doc.compact(),
            "{\"s\":\"quote \\\" backslash \\\\ newline \\n return \\r tab \\t bell \\u0007 é \u{1F600}\"}"
        );
        for text in [doc.compact(), doc.block()] {
            assert_eq!(Json::parse(&text).unwrap().str("s"), Ok(tricky));
        }
    }

    #[test]
    fn keyed_accessors_report_what_is_wrong() {
        let doc = Json::parse(r#"{"n": 18446744073709551615, "f": -1.5, "s": "x", "z": null}"#);
        let doc = doc.unwrap();
        assert_eq!(doc.u64("n"), Ok(u64::MAX));
        assert_eq!(doc.f64("f"), Ok(-1.5));
        assert_eq!(doc.opt_str("s"), Ok(Some("x")));
        assert_eq!(doc.opt_str("z"), Ok(None));
        assert_eq!(doc.opt_str("gone"), Ok(None));
        assert!(doc.opt_str("n").is_err());
        assert_eq!(doc.u64("gone").unwrap_err(), "missing \"gone\"");
        assert_eq!(
            doc.u64("f").unwrap_err(),
            "\"f\" must be a non-negative integer"
        );
        assert_eq!(doc.str("n").unwrap_err(), "\"n\" must be a string");
        assert_eq!(doc.arr("s").unwrap_err(), "\"s\" must be an array");
        // `within` holds a document to the members a template has.
        let template = Json::object([("n", 0u64.into()), ("s", "".into())]);
        let fewer = Json::object([("s", "".into())]);
        assert_eq!(fewer.within(&template), Ok(()));
        assert_eq!(doc.within(&template).unwrap_err(), "unknown key 'f'");
        assert!(Json::Null.within(&template).is_err());
        assert!(Json::Null.get("k").is_err());
    }

    #[test]
    fn block_layout_inlines_scalar_containers_and_breaks_the_rest() {
        let doc = Json::object([
            ("schema", "demo".into()),
            ("none", Json::Null),
            ("rate", Json::fixed(2.0 / 3.0, 4)),
            ("nan", Json::fixed(f64::NAN, 1)),
            ("empty", Json::Arr(Vec::new())),
            ("names", Json::Arr(vec!["a".into(), "b".into()])),
            (
                "rows",
                Json::Arr(vec![
                    Json::object([("k", 1u64.into()), ("ok", true.into())]),
                    Json::object([("k", 2u64.into()), ("ok", false.into())]),
                ]),
            ),
            (
                "trace",
                Json::Compact(Box::new(Json::object([("steps", Json::Arr(vec![]))]))),
            ),
        ]);
        let expected = "{\n  \"schema\": \"demo\",\n  \"none\": null,\n  \"rate\": 0.6667,\n  \
             \"nan\": null,\n  \"empty\": [],\n  \"names\": [\"a\", \"b\"],\n  \"rows\": [\n    \
             {\"k\": 1, \"ok\": true},\n    {\"k\": 2, \"ok\": false}\n  ],\n  \
             \"trace\": {\"steps\":[]}\n}";
        assert_eq!(doc.block(), expected);
        assert_eq!(
            Json::parse(expected).unwrap().compact(),
            doc.compact(),
            "both layouts carry the same value"
        );
    }
}
