//! A minimal JSON value type with a parser and an emitter.
//!
//! The workspace builds without a crates registry, so the service surface
//! (`SolveRequest` / `SolveReport`) cannot lean on `serde`. This module is
//! the stand-in: a plain [`Json`] tree, one tokenizer, [`JsonReader`]
//! (nesting capped at 128 levels, so hostile input is an error, not a
//! stack overflow), which either builds a tree ([`Json::parse`]) or hands
//! a decoder the document member by member, and one deterministic
//! emitter, [`JsonWriter`], which writes either a tree or a document
//! streamed straight from the caller's data.
//! It covers the JSON the workspace produces and
//! consumes — objects, arrays, strings with standard escapes (including
//! `\uXXXX` with surrogate pairs), finite numbers, booleans and `null` —
//! and nothing more exotic (no comments, no trailing commas).
//!
//! Numbers are emitted with Rust's `{:?}` float formatting, which is the
//! shortest representation that round-trips bit-for-bit through
//! `str::parse::<f64>`; re-encoding a parsed document is therefore stable.
//! Non-finite numbers have no JSON spelling, so [`Json::Num`] emits them as
//! `null` — encoders with a meaningful infinity (e.g. unbounded memory
//! capacities) must map it explicitly before building the tree.

use std::borrow::Cow;
use std::fmt;
use std::io;

/// A parsed (or to-be-emitted) JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (JSON has a single number type).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved by the emitter.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: byte offset into the input and a description.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset at which parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (impl Into<String>, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// The value of `key` if `self` is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number value, if `self` is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The number value as a non-negative integer (rejects fractions and
    /// anything above 2⁵³, where `f64` stops being exact).
    pub fn as_u64(&self) -> Option<u64> {
        let x = self.as_f64()?;
        ((0.0..=9_007_199_254_740_992.0).contains(&x) && x.fract() == 0.0).then_some(x as u64)
    }

    /// The number value as a `usize` (via [`Json::as_u64`]).
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().map(|x| x as usize)
    }

    /// The string value, if `self` is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if `self` is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if `self` is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// `true` if `self` is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Parses a JSON document (the whole input must be one value). Arrays
    /// and objects nested more than 128 levels deep are an error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut reader = JsonReader::new(text);
        let value = reader.value()?;
        reader.finish()?;
        Ok(value)
    }

    /// Emits the document without whitespace.
    pub fn to_compact(&self) -> String {
        let mut w = JsonWriter::compact(String::new());
        w.value(self).expect("writing to a String cannot fail");
        w.into_inner()
    }

    /// Emits the document with 2-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut w = JsonWriter::pretty(String::new());
        w.value(self).expect("writing to a String cannot fail");
        let mut out = w.into_inner();
        out.push('\n');
        out
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        JsonWriter::compact(f).value(self)
    }
}

/// The one JSON emitter of the workspace: writes a document token by token
/// into any [`fmt::Write`] sink, compact or with 2-space indentation.
///
/// [`Json::to_compact`] / [`Json::to_pretty`] drive it over a tree, and
/// large documents (a 10⁵-task schedule report) drive it directly from
/// their own data, so no tree and no intermediate text is built. Both
/// paths share the number formatting, escaping and indentation here, so
/// they emit the same bytes. Numbers are written in place: exactly
/// integral values below 2⁵³ as integers, other finite values with `{:?}`
/// (shortest round-tripping decimal), non-finite values as `null`.
///
/// The caller keeps the token sequence well formed (a [`JsonWriter::key`]
/// before every object member, balanced `begin_*` / `end_*`); the writer
/// only places separators and whitespace.
#[derive(Debug)]
pub struct JsonWriter<W> {
    out: W,
    /// Spaces per nesting level; 0 for compact output.
    indent: usize,
    depth: usize,
    /// No item has been written yet into the innermost open container.
    empty: bool,
    /// A key was just written, so the next value follows it directly.
    after_key: bool,
}

impl<W: fmt::Write> JsonWriter<W> {
    /// A writer emitting no whitespace (as [`Json::to_compact`]).
    pub fn compact(out: W) -> Self {
        Self::with_indent(out, 0)
    }

    /// A writer emitting 2-space indentation (as [`Json::to_pretty`],
    /// without its trailing newline).
    pub fn pretty(out: W) -> Self {
        Self::with_indent(out, 2)
    }

    fn with_indent(out: W, indent: usize) -> Self {
        JsonWriter {
            out,
            indent,
            depth: 0,
            empty: true,
            after_key: false,
        }
    }

    /// The sink, with everything written so far.
    pub fn into_inner(self) -> W {
        self.out
    }

    /// Line break plus indentation for nesting `level` (pretty mode only).
    fn newline(&mut self, level: usize) -> fmt::Result {
        const SPACES: &str = "                                ";
        if self.indent == 0 {
            return Ok(());
        }
        self.out.write_char('\n')?;
        let mut n = self.indent * level;
        while n > 0 {
            let k = n.min(SPACES.len());
            self.out.write_str(&SPACES[..k])?;
            n -= k;
        }
        Ok(())
    }

    /// Separator and indentation before an array item or object key.
    fn item(&mut self) -> fmt::Result {
        if std::mem::take(&mut self.after_key) {
            return Ok(());
        }
        if self.depth > 0 {
            if !self.empty {
                self.out.write_char(',')?;
            }
            self.newline(self.depth)?;
        }
        self.empty = false;
        Ok(())
    }

    fn open(&mut self, bracket: char) -> fmt::Result {
        self.item()?;
        self.out.write_char(bracket)?;
        self.depth += 1;
        self.empty = true;
        Ok(())
    }

    fn close(&mut self, bracket: char) -> fmt::Result {
        self.depth -= 1;
        if !self.empty {
            self.newline(self.depth)?;
        }
        // The container just closed is an item of its parent.
        self.empty = false;
        self.out.write_char(bracket)
    }

    /// Opens an object.
    pub fn begin_object(&mut self) -> fmt::Result {
        self.open('{')
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> fmt::Result {
        self.close('}')
    }

    /// Opens an array.
    pub fn begin_array(&mut self) -> fmt::Result {
        self.open('[')
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> fmt::Result {
        self.close(']')
    }

    /// Writes an object member's key; the next value written is its value.
    pub fn key(&mut self, key: &str) -> fmt::Result {
        self.item()?;
        write_escaped(&mut self.out, key)?;
        self.out
            .write_str(if self.indent > 0 { ": " } else { ":" })?;
        self.after_key = true;
        Ok(())
    }

    /// Writes `null`.
    pub fn null(&mut self) -> fmt::Result {
        self.item()?;
        self.out.write_str("null")
    }

    /// Writes `true` / `false`.
    pub fn bool(&mut self, b: bool) -> fmt::Result {
        self.item()?;
        self.out.write_str(if b { "true" } else { "false" })
    }

    /// Writes a number (`null` when not finite).
    pub fn number(&mut self, x: f64) -> fmt::Result {
        self.item()?;
        if !x.is_finite() {
            self.out.write_str("null")
        } else if x.fract() == 0.0
            && x.abs() < 9_007_199_254_740_992.0
            && !(x == 0.0 && x.is_sign_negative())
        {
            // Exactly-integral values print without the `.0` (counts, ids,
            // thread numbers); parsing restores the same f64.
            write!(self.out, "{}", x as i64)
        } else {
            // `{:?}` prints the shortest round-tripping decimal and always
            // includes a `.0` or exponent, which is valid JSON.
            write!(self.out, "{x:?}")
        }
    }

    /// Writes a string, escaped.
    pub fn string(&mut self, s: &str) -> fmt::Result {
        self.item()?;
        write_escaped(&mut self.out, s)
    }

    /// Writes a whole [`Json`] value.
    pub fn value(&mut self, json: &Json) -> fmt::Result {
        match json {
            Json::Null => self.null(),
            Json::Bool(b) => self.bool(*b),
            Json::Num(x) => self.number(*x),
            Json::Str(s) => self.string(s),
            Json::Arr(items) => {
                self.begin_array()?;
                for item in items {
                    self.value(item)?;
                }
                self.end_array()
            }
            Json::Obj(pairs) => {
                self.begin_object()?;
                for (key, value) in pairs {
                    self.key(key)?;
                    self.value(value)?;
                }
                self.end_object()
            }
        }
    }
}

/// Writes `s` as a JSON string literal, copying unescaped runs wholesale.
fn write_escaped(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut run = 0;
    // Every byte that needs escaping is ASCII, and ASCII bytes never occur
    // inside a multi-byte UTF-8 sequence, so `i` is a char boundary.
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escaped = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.write_str(&s[run..i])?;
        if escaped.is_empty() {
            write!(out, "\\u{b:04x}")?;
        } else {
            out.write_str(escaped)?;
        }
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

/// Adapts an [`io::Write`] to the [`fmt::Write`] sink of a [`JsonWriter`],
/// so a document can be streamed to a file or socket. The first I/O error
/// is kept (the writer sees only [`fmt::Error`]) and returned by
/// [`IoSink::finish`].
#[derive(Debug)]
pub struct IoSink<W> {
    inner: W,
    error: Option<io::Error>,
}

impl<W: io::Write> IoSink<W> {
    /// Wraps `inner` (buffer it: the writer emits many small pieces).
    pub fn new(inner: W) -> Self {
        IoSink { inner, error: None }
    }

    /// Flushes and returns the inner writer, or the first I/O error.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.inner.flush()?;
        Ok(self.inner)
    }
}

impl<W: io::Write> fmt::Write for IoSink<W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        if self.error.is_some() {
            return Err(fmt::Error);
        }
        self.inner.write_all(s.as_bytes()).map_err(|e| {
            self.error = Some(e);
            fmt::Error
        })
    }
}

/// Deepest array/object nesting [`JsonReader`] (and so [`Json::parse`])
/// accepts. Tree parsing is recursive, so without a cap a hostile document
/// of a few kilobytes of `[` overflows the thread stack and aborts the
/// process; the service's documents nest fewer than ten levels.
const MAX_NESTING: usize = 128;

/// The one JSON tokenizer of the workspace: a pull reader over a document.
///
/// [`Json::parse`] drives it to build a tree. A decoder that knows the shape
/// it expects (the service's request reader) drives it member by member and
/// keeps only the values it needs, with no tree in between. Both share all
/// of the lexing here, so they accept the same documents and fail with the
/// same offset and message, nesting cap included.
///
/// An object is read as [`JsonReader::begin_object`], then
/// [`JsonReader::next_key`] until it returns `None`; an array as
/// [`JsonReader::begin_array`], then [`JsonReader::next_item`] until it
/// returns `false`. After each key or item comes exactly one value: a nested
/// container, [`JsonReader::value`], [`JsonReader::read_f64`],
/// [`JsonReader::read_str`] or [`JsonReader::skip_value`]. Once the
/// top-level value is read, [`JsonReader::finish`] rejects trailing
/// characters. After an error the position is unspecified; stop reading.
#[derive(Debug, Clone)]
pub struct JsonReader<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
    /// A container was just opened: its first item or its closing bracket
    /// comes next, with no separator before it.
    opened: bool,
}

impl<'a> JsonReader<'a> {
    /// A reader positioned at the document's first value.
    pub fn new(text: &'a str) -> Self {
        let mut reader = JsonReader {
            text,
            pos: 0,
            depth: 0,
            opened: false,
        };
        reader.skip_ws();
        reader
    }

    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes().get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    /// The first byte of the next value (`None` at the end of the input).
    pub fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    /// Opens the object at the cursor.
    pub fn begin_object(&mut self) -> Result<(), JsonError> {
        self.open(b'{')
    }

    /// Opens the array at the cursor.
    pub fn begin_array(&mut self) -> Result<(), JsonError> {
        self.open(b'[')
    }

    fn open(&mut self, bracket: u8) -> Result<(), JsonError> {
        if self.peek() == Some(bracket) && self.depth == MAX_NESTING {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.expect(bracket)?;
        self.depth += 1;
        self.opened = true;
        Ok(())
    }

    /// Steps to the next member of the innermost open object and returns
    /// its key, leaving the cursor at the member's value; `None` once the
    /// object has closed. Keys without escapes are borrowed from the input.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        if !self.more(b'}')? {
            return Ok(None);
        }
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(Some(key))
    }

    /// Steps to the next item of the innermost open array: `true` with the
    /// cursor at the item, `false` once the array has closed.
    pub fn next_item(&mut self) -> Result<bool, JsonError> {
        self.more(b']')
    }

    /// Consumes the separator before the next item of the innermost
    /// container (`true`), or its closing bracket (`false`).
    fn more(&mut self, close: u8) -> Result<bool, JsonError> {
        self.skip_ws();
        if std::mem::take(&mut self.opened) {
            if self.peek() != Some(close) {
                return Ok(true);
            }
        } else {
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    self.skip_ws();
                    return Ok(true);
                }
                Some(b) if b == close => {}
                _ => return Err(self.err(format!("expected `,` or `{}`", close as char))),
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(false)
    }

    /// Reads the value at the cursor as a tree.
    pub fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(b'[') => {
                self.begin_array()?;
                let mut items = Vec::new();
                while self.next_item()? {
                    items.push(self.value()?);
                }
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                self.begin_object()?;
                let mut pairs = Vec::new();
                while let Some(key) = self.next_key()? {
                    let value = self.value()?;
                    pairs.push((key.into_owned(), value));
                }
                Ok(Json::Obj(pairs))
            }
            Some(b'-' | b'0'..=b'9') => self.number().map(Json::Num),
            Some(other) => Err(self.err(format!("unexpected `{}`", other as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Reads the value at the cursor; `Some` when it is a number (what
    /// [`Json::as_f64`] of [`JsonReader::value`] gives, without the tree).
    pub fn read_f64(&mut self) -> Result<Option<f64>, JsonError> {
        if matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            self.number().map(Some)
        } else {
            self.skip_value().map(|()| None)
        }
    }

    /// Reads the value at the cursor; `Some` when it is a string.
    pub fn read_str(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        if self.peek() == Some(b'"') {
            self.string().map(Some)
        } else {
            self.skip_value().map(|()| None)
        }
    }

    /// Reads past the value at the cursor, checking it as
    /// [`JsonReader::value`] does.
    pub fn skip_value(&mut self) -> Result<(), JsonError> {
        self.value().map(drop)
    }

    /// Ends the document: only whitespace may follow the top-level value.
    pub fn finish(mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.err("trailing characters after the document"))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let mut owned: Option<String> = None;
        loop {
            let run = self.plain_run();
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(run),
                        Some(mut out) => {
                            out.push_str(run);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(b'\\') => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(run);
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// Skips the unescaped run at the cursor and returns it. The run stops
    /// at an ASCII byte or the end of the input, and ASCII bytes never
    /// occur inside a multi-byte UTF-8 sequence, so both ends are char
    /// boundaries.
    fn plain_run(&mut self) -> &'a str {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b'"' || b == b'\\' || b < 0x20 {
                break;
            }
            self.pos += 1;
        }
        &self.text[start..self.pos]
    }

    fn escape(&mut self) -> Result<char, JsonError> {
        let c = self.peek().ok_or_else(|| self.err("dangling escape"))?;
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: a second `\uXXXX` must follow.
                    if self.bytes()[self.pos..].starts_with(b"\\u") {
                        self.pos += 2;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(self.err("invalid low surrogate"));
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    } else {
                        return Err(self.err("unpaired surrogate"));
                    }
                } else {
                    hi
                };
                char::from_u32(code).ok_or_else(|| self.err("invalid unicode escape"))?
            }
            other => return Err(self.err(format!("unknown escape `\\{}`", other as char))),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let slice = self
            .bytes()
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let text = std::str::from_utf8(slice).map_err(|_| self.err("invalid \\u escape"))?;
        let code = u32::from_str_radix(text, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    /// Lexes a number token and converts it as `str::parse::<f64>` does,
    /// rejecting what that rejects and any non-finite result.
    fn number(&mut self) -> Result<f64, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let int_start = self.pos;
        let mut int = 0u64;
        while let Some(b @ b'0'..=b'9') = self.peek() {
            int = int.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
            self.pos += 1;
        }
        let int_digits = self.pos - int_start;
        let mut plain = true;
        if self.peek() == Some(b'.') {
            plain = false;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            plain = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if plain && (1..=15).contains(&int_digits) {
            // An integer below 10¹⁵ < 2⁵³ converts to f64 exactly, which is
            // the correctly rounded value `str::parse` returns; the sign is
            // applied after, so `-0` stays `-0.0`.
            let x = int as f64;
            return Ok(if negative { -x } else { x });
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .ok()
            .filter(|x| x.is_finite())
            .ok_or_else(|| self.err(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(Json::parse("-1.5e3").unwrap(), Json::Num(-1500.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::str("hi"));
    }

    #[test]
    fn parses_nested_structures() {
        let doc = Json::parse(r#"{"a": [1, 2, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(doc.get("c").unwrap().as_str(), Some("x"));
        let arr = doc.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert!(arr[2].get("b").unwrap().is_null());
    }

    #[test]
    fn compact_roundtrip() {
        let doc = Json::obj([
            ("name", Json::str("T4 \"final\"\n")),
            ("items", Json::Arr(vec![Json::Num(1.25), Json::Null])),
            ("ok", Json::Bool(true)),
            ("empty", Json::Obj(Vec::new())),
        ]);
        let text = doc.to_compact();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn pretty_roundtrip_and_shape() {
        let doc = Json::obj([("a", Json::Arr(vec![Json::Num(1.0), Json::Num(1.5)]))]);
        let text = doc.to_pretty();
        assert!(
            text.contains("\n  \"a\": [\n    1,\n    1.5\n  ]\n"),
            "{text}"
        );
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn float_formatting_roundtrips_exactly() {
        for x in [0.1, 1.0 / 3.0, 1e300, 5e-324, -0.0, 123456789.123456] {
            let text = Json::Num(x).to_compact();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} re-read as {back}");
        }
    }

    #[test]
    fn non_finite_numbers_emit_null() {
        assert_eq!(Json::Num(f64::INFINITY).to_compact(), "null");
        assert_eq!(Json::Num(f64::NAN).to_compact(), "null");
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(Json::parse(r#""é€""#).unwrap().as_str(), Some("é€"));
        // Surrogate pair for 🦀 (U+1F980).
        assert_eq!(Json::parse(r#""🦀""#).unwrap().as_str(), Some("🦀"));
        assert!(Json::parse(r#""\ud83e""#).is_err());
        // Control characters are escaped on output and re-read.
        let doc = Json::str("a\u{1}b");
        assert_eq!(Json::parse(&doc.to_compact()).unwrap(), doc);
    }

    #[test]
    fn integer_accessors() {
        assert_eq!(Json::parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(Json::parse("7.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-7").unwrap().as_u64(), None);
        assert_eq!(Json::parse("7").unwrap().as_usize(), Some(7));
        assert_eq!(Json::parse("\"7\"").unwrap().as_u64(), None);
    }

    #[test]
    fn errors_carry_positions() {
        let err = Json::parse("{\"a\": }").unwrap_err();
        assert_eq!(err.offset, 6);
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("01x").is_err());
        assert!(Json::parse("{\"a\":1} extra").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(err.to_string().contains("byte 6"));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_NESTING)).is_ok());
        let err = Json::parse(&nested(MAX_NESTING + 1)).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        assert!(Json::parse(&format!("{}1{}", "{\"a\":".repeat(200), "}".repeat(200))).is_err());
        // 10⁵ brackets on a 2 MiB thread (the daemon's reader threads):
        // without the cap this aborts the process.
        let deep = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| Json::parse(&"[".repeat(100_000)).is_err())
            .unwrap()
            .join()
            .unwrap();
        assert!(deep);
    }

    /// Streams `doc` token by token through the public writer API, the way
    /// a caller without a tree does.
    fn stream(w: &mut JsonWriter<&mut String>, doc: &Json) {
        match doc {
            Json::Arr(items) => {
                w.begin_array().unwrap();
                for item in items {
                    stream(w, item);
                }
                w.end_array().unwrap();
            }
            Json::Obj(pairs) => {
                w.begin_object().unwrap();
                for (key, value) in pairs {
                    w.key(key).unwrap();
                    stream(w, value);
                }
                w.end_object().unwrap();
            }
            Json::Null => w.null().unwrap(),
            Json::Bool(b) => w.bool(*b).unwrap(),
            Json::Num(x) => w.number(*x).unwrap(),
            Json::Str(s) => w.string(s).unwrap(),
        }
    }

    #[test]
    fn streamed_documents_match_the_tree_emitter() {
        let doc = Json::obj([
            ("esc\"aped\tkey", Json::str("a\u{1}b\\c\r\né€🦀")),
            ("empty_arr", Json::Arr(Vec::new())),
            ("empty_obj", Json::Obj(Vec::new())),
            (
                "nums",
                Json::Arr(
                    [
                        0.0,
                        -0.0,
                        1.0,
                        -3.0,
                        0.1,
                        1e300,
                        9_007_199_254_740_992.0,
                        f64::NAN,
                    ]
                    .map(Json::Num)
                    .to_vec(),
                ),
            ),
            (
                "nested",
                Json::Arr(vec![
                    Json::obj([("x", Json::Null)]),
                    Json::Arr(vec![]),
                    Json::Bool(false),
                ]),
            ),
        ]);
        for pretty in [false, true] {
            let mut text = String::new();
            let mut w = if pretty {
                JsonWriter::pretty(&mut text)
            } else {
                JsonWriter::compact(&mut text)
            };
            stream(&mut w, &doc);
            let tree = if pretty {
                doc.to_pretty().trim_end_matches('\n').to_string()
            } else {
                doc.to_compact()
            };
            assert_eq!(text, tree, "pretty = {pretty}");
        }
        assert_eq!(doc.to_string(), doc.to_compact());
        assert_eq!(Json::str("\u{1f}\u{7f}").to_compact(), "\"\\u001f\u{7f}\"");
    }

    #[test]
    fn io_sink_streams_and_reports_errors() {
        let doc = Json::obj([("a", Json::Arr(vec![Json::Num(1.5)]))]);
        let mut sink = IoSink::new(Vec::new());
        JsonWriter::pretty(&mut sink).value(&doc).unwrap();
        let bytes = sink.finish().unwrap();
        assert_eq!(String::from_utf8(bytes).unwrap() + "\n", doc.to_pretty());

        #[derive(Debug)]
        struct Broken;
        impl io::Write for Broken {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "gone"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = IoSink::new(Broken);
        assert!(JsonWriter::compact(&mut sink).value(&doc).is_err());
        assert_eq!(sink.finish().unwrap_err().kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn integer_fast_path_matches_str_parse_bit_for_bit() {
        let mut tokens: Vec<String> = [
            "0",
            "-0",
            "7",
            "-7",
            "007",
            "-007",
            "00",
            "1.",
            "-.5",
            "1e5",
            "1E+2",
            "2e-1",
            "999999999999999",
            "-999999999999999",
            "1000000000000000",
            "9007199254740993",
            "123456789012345678901234567890",
            "1e308",
            "5e-324",
        ]
        .map(String::from)
        .to_vec();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let digits = (x % 18) as u32 + 1;
            let magnitude = x % 10u64.pow(digits);
            let sign = if x & (1 << 40) == 0 { "" } else { "-" };
            tokens.push(format!("{sign}{magnitude}"));
        }
        for token in &tokens {
            let expected = token.parse::<f64>().unwrap();
            let got = Json::parse(token).unwrap().as_f64().unwrap();
            assert_eq!(got.to_bits(), expected.to_bits(), "{token}");
        }
        // The accepted set is unchanged: what `str::parse` rejects (or
        // takes to infinity) is still an error, at the end of the token.
        for bad in ["-", "1e", "1e+", "-e5", "1e999", "-1e999"] {
            let err = Json::parse(bad).unwrap_err();
            assert_eq!(err.offset, bad.len(), "{bad}");
            assert_eq!(err.message, format!("invalid number `{bad}`"));
        }
    }

    #[test]
    fn pull_reader_walks_a_document_without_a_tree() {
        let text = r#" {"a": [1, -2.5, "x"], "b\u0021": {"c": null}, "d": "e\"f"} "#;
        let mut r = JsonReader::new(text);
        r.begin_object().unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("a"));
        r.begin_array().unwrap();
        assert!(r.next_item().unwrap());
        assert_eq!(r.read_f64().unwrap(), Some(1.0));
        assert!(r.next_item().unwrap());
        assert_eq!(r.read_f64().unwrap(), Some(-2.5));
        assert!(r.next_item().unwrap());
        assert_eq!(r.read_f64().unwrap(), None); // a string, read past
        assert!(!r.next_item().unwrap());
        let key = r.next_key().unwrap().unwrap();
        assert_eq!(key, "b!");
        assert!(matches!(key, Cow::Owned(_)));
        assert_eq!(r.value().unwrap(), Json::obj([("c", Json::Null)]));
        let key = r.next_key().unwrap().unwrap();
        assert!(matches!(key, Cow::Borrowed("d")));
        assert_eq!(r.read_str().unwrap().as_deref(), Some("e\"f"));
        assert_eq!(r.next_key().unwrap(), None);
        r.finish().unwrap();

        // The reader reports what `Json::parse` reports, where it reports it.
        for bad in ["{\"a\": 1,}", "{\"a\" 1}", "[1 2]", "{\"a\": [}", "{} x"] {
            let expected = Json::parse(bad).unwrap_err();
            let mut r = JsonReader::new(bad);
            let got = (|| {
                r.begin_object().or_else(|_| r.begin_array())?;
                loop {
                    if bad.starts_with('{') {
                        if r.next_key()?.is_none() {
                            break;
                        }
                    } else if !r.next_item()? {
                        break;
                    }
                    r.skip_value()?;
                }
                r.clone().finish()
            })()
            .unwrap_err();
            assert_eq!(got, expected, "{bad}");
        }
    }

    #[test]
    fn object_lookup_misses() {
        let doc = Json::parse(r#"{"a": 1}"#).unwrap();
        assert!(doc.get("b").is_none());
        assert!(Json::Null.get("a").is_none());
        assert_eq!(doc.get("a").unwrap().as_f64(), Some(1.0));
    }
}
