//! Equivalence oracle for the request decoder.
//!
//! `SolveRequest::parse` (the `schedule` binary) and the `malsd` reader now
//! decode request text through one pull tokenizer (`JsonReader`), streaming
//! the graph into `GraphBuilder` with no `Json` tree. That must not change
//! a single accepted request or error. This suite keeps the tree decoder it
//! replaced *verbatim* as the reference: the recursive-descent parser that
//! `Json::parse` used, then `SolveRequest::from_json` and
//! `serialize::from_json` walking the tree. On every document of the shared
//! corpus (`tests/support/decode_corpus.rs`: dex, daggen and LU requests,
//! reordered members, duplicate keys, missing and mistyped fields, bad
//! edges, byte flips and truncations) both must give the same `Ok` request
//! or the same `ServiceError`, code and message.

use mals::dag::serialize::ParseError;
use mals::experiments::service::{check_version, MAX_REQUEST_THREADS};
use mals::prelude::*;
use mals::util::{JsonError, JsonReader};

#[path = "support/decode_corpus.rs"]
mod decode_corpus;

// ---------------------------------------------------------------------------
// The reference: the tree decoder as it stood before the streaming reader.
// ---------------------------------------------------------------------------

/// `Json::parse` before it ran on `JsonReader`.
fn reference_parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(value)
}

// The recursive-descent parser, verbatim.

/// Deepest array/object nesting [`Json::parse`] accepts. The parser is
/// recursive, so without a cap a hostile document of a few kilobytes of
/// `[` overflows the thread stack and aborts the process; the service's
/// documents nest fewer than ten levels.
const MAX_NESTING: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'[' | b'{') if self.depth == MAX_NESTING => {
                Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")))
            }
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.depth += 1;
                let array = self.array();
                self.depth -= 1;
                array
            }
            Some(b'{') => {
                self.depth += 1;
                let object = self.object();
                self.depth -= 1;
                object
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected `{}`", other as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
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
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Copy unescaped runs wholesale (the common case).
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?,
                );
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
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
                    if self.bytes[self.pos..].starts_with(b"\\u") {
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
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let text = std::str::from_utf8(slice).map_err(|_| self.err("invalid \\u escape"))?;
        let code = u32::from_str_radix(text, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
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
        text.parse::<f64>()
            .ok()
            .filter(|x| x.is_finite())
            .map(Json::Num)
            .ok_or_else(|| self.err(format!("invalid number `{text}`")))
    }
}

fn json_f64(obj: &Json, key: &str, what: &str) -> Result<f64, ParseError> {
    obj.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| ParseError::Json(format!("{what}: missing or non-numeric `{key}`")))
}

/// `serialize::from_json` before the streaming reader.
fn reference_graph_from_json(json: &Json) -> Result<TaskGraph, ParseError> {
    let tasks = json
        .get("tasks")
        .and_then(Json::as_arr)
        .ok_or_else(|| ParseError::Json("missing `tasks` array".into()))?;
    let edges = json
        .get("edges")
        .and_then(Json::as_arr)
        .ok_or_else(|| ParseError::Json("missing `edges` array".into()))?;
    let mut graph = TaskGraph::new();
    for (i, task) in tasks.iter().enumerate() {
        let what = format!("task {i}");
        let name = task
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| ParseError::Json(format!("{what}: missing `name`")))?;
        let blue = json_f64(task, "blue", &what)?;
        let red = json_f64(task, "red", &what)?;
        graph.add_task(name, blue, red);
    }
    for (i, edge) in edges.iter().enumerate() {
        let what = format!("edge {i}");
        let src = edge
            .get("src")
            .and_then(Json::as_usize)
            .ok_or_else(|| ParseError::Json(format!("{what}: missing `src`")))?;
        let dst = edge
            .get("dst")
            .and_then(Json::as_usize)
            .ok_or_else(|| ParseError::Json(format!("{what}: missing `dst`")))?;
        let size = json_f64(edge, "size", &what)?;
        let comm = json_f64(edge, "comm", &what)?;
        if src >= graph.n_tasks() || dst >= graph.n_tasks() {
            return Err(ParseError::Json(format!("{what}: references unknown task")));
        }
        graph
            .add_edge(TaskId::from_index(src), TaskId::from_index(dst), size, comm)
            .map_err(|e| ParseError::Json(format!("{what}: {e}")))?;
    }
    Ok(graph)
}

/// Parses either encoding produced by `u64_to_json`.
fn json_to_u64(value: &Json) -> Option<u64> {
    value
        .as_u64()
        .or_else(|| value.as_str().and_then(|s| s.parse().ok()))
}

/// `SolveRequest::from_json` before it became a wrapper over the decoder.
fn reference_request_from_json(json: &Json) -> Result<SolveRequest, ServiceError> {
    check_version(json)?;
    let solver = json
        .get("solver")
        .and_then(Json::as_str)
        .ok_or_else(|| ServiceError::BadRequest("missing `solver` name".into()))?
        .to_string();
    let threads = match json.get("threads") {
        None => 1,
        Some(value) => value.as_usize().ok_or_else(|| {
            ServiceError::BadRequest("`threads` must be a non-negative integer".into())
        })?,
    };
    // A portfolio race spawns up to one OS thread per requested thread;
    // an absurd count from an untrusted document must fail as a named
    // error, not as a thread-spawn abort.
    if threads > MAX_REQUEST_THREADS {
        return Err(ServiceError::BadRequest(format!(
            "`threads` must be at most {MAX_REQUEST_THREADS} (0 = all cores)"
        )));
    }
    let seed = match json.get("seed") {
        None | Some(Json::Null) => None,
        Some(value) => Some(json_to_u64(value).ok_or_else(|| {
            ServiceError::BadRequest("`seed` must be a non-negative integer".into())
        })?),
    };
    let solvers = match json.get("solvers") {
        None | Some(Json::Null) => Vec::new(),
        Some(value) => value
            .as_arr()
            .ok_or_else(|| {
                ServiceError::BadRequest("`solvers` must be an array of registry keys".into())
            })?
            .iter()
            .map(|item| {
                item.as_str().map(str::to_string).ok_or_else(|| {
                    ServiceError::BadRequest("`solvers` entries must be strings".into())
                })
            })
            .collect::<Result<Vec<_>, _>>()?,
    };
    let deadline_ms = match json.get("deadline_ms") {
        None | Some(Json::Null) => None,
        Some(value) => Some(json_to_u64(value).ok_or_else(|| {
            ServiceError::BadRequest("`deadline_ms` must be a non-negative integer".into())
        })?),
    };
    let mut limits = SolveLimits::default();
    if let Some(doc) = json.get("limits") {
        if let Some(n) = doc.get("node_limit") {
            limits.node_limit = json_to_u64(n).ok_or_else(|| {
                ServiceError::BadRequest("`limits.node_limit` must be an integer".into())
            })?;
        }
        if let Some(n) = doc.get("lp_iteration_limit") {
            limits.lp_iteration_limit = json_to_u64(n).ok_or_else(|| {
                ServiceError::BadRequest("`limits.lp_iteration_limit` must be an integer".into())
            })?;
        }
    }
    let graph = json
        .get("graph")
        .ok_or_else(|| ServiceError::BadRequest("missing `graph`".into()))
        .and_then(|doc| {
            reference_graph_from_json(doc).map_err(|e| ServiceError::BadRequest(e.to_string()))
        })?;
    let platform = json
        .get("platform")
        .ok_or_else(|| ServiceError::BadRequest("missing `platform`".into()))
        .and_then(|doc| {
            Platform::from_json(doc)
                .map_err(|e| ServiceError::BadRequest(format!("bad platform: {e}")))
        })?;
    Ok(SolveRequest {
        graph,
        platform,
        solver,
        threads,
        limits,
        seed,
        solvers,
        deadline_ms,
    })
}

/// `SolveRequest::parse` before the streaming decoder.
fn reference_request_parse(text: &str) -> Result<SolveRequest, ServiceError> {
    let json = reference_parse(text).map_err(|e| ServiceError::BadRequest(e.to_string()))?;
    reference_request_from_json(&json)
}

// ---------------------------------------------------------------------------
// The oracle.
// ---------------------------------------------------------------------------

#[test]
fn decoder_matches_the_tree_reference_on_the_corpus() {
    let corpus = decode_corpus::corpus();
    assert!(corpus.len() > 300, "{} documents", corpus.len());
    let (mut accepted, mut rejected) = (0, 0);
    for case in &corpus {
        let expected = reference_request_parse(&case.text);
        let got = SolveRequest::parse(&case.text);
        assert_eq!(got, expected, "{}", case.label);
        match got {
            Ok(_) => accepted += 1,
            Err(e) => {
                assert_eq!(e.code(), ErrorCode::BadRequest, "{}", case.label);
                rejected += 1;
            }
        }
    }
    // The corpus exercises both sides (flips inside digits or names leave
    // a valid request).
    assert!(
        accepted > 50 && rejected > 200,
        "{accepted} ok, {rejected} rejected"
    );
}

#[test]
fn tree_entry_points_match_the_reference() {
    for case in decode_corpus::corpus() {
        let Ok(tree) = reference_parse(&case.text) else {
            continue;
        };
        assert_eq!(
            SolveRequest::from_json(&tree),
            reference_request_from_json(&tree),
            "{}",
            case.label
        );
        if let Some(graph) = tree.get("graph") {
            assert_eq!(
                mals::dag::serialize::from_json(graph),
                reference_graph_from_json(graph),
                "{}",
                case.label
            );
        }
    }
}

#[test]
fn json_parse_matches_the_reference_tokenizer() {
    let mut texts: Vec<String> = decode_corpus::corpus()
        .into_iter()
        .map(|case| case.text)
        .collect();
    texts.extend(
        [
            r#""\u00e9\ud83e\udd80\/\b\f""#,
            r#""\ud83e""#,
            r#""\ud83e\u0041""#,
            r#""\u12""#,
            r#""\q""#,
            "\"a\u{1}b\"",
            "\"é€🦀\"",
            "[-0, 0.0, 1e-7, 12345678901234567, 007, -]",
            "[1.e5, -.5, 1e, 2E+, 9e999]",
            "[tru, nul, fals]",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "[1,]",
            " \t\n ",
        ]
        .map(String::from),
    );
    texts.push(format!("{}1{}", "{\"a\":".repeat(128), "}".repeat(128)));
    texts.push(format!("{}1{}", "{\"a\":".repeat(129), "}".repeat(129)));
    for text in &texts {
        let expected = reference_parse(text);
        let got = Json::parse(text);
        match (&got, &expected) {
            // Compare numbers bit for bit (`-0.0 == 0.0` under `PartialEq`).
            (Ok(a), Ok(b)) => assert_eq!(a.to_compact(), b.to_compact(), "{text}"),
            _ => assert_eq!(got, expected, "{text}"),
        }
    }
}

#[test]
fn pull_reader_skips_what_the_tree_parser_accepts() {
    // `skip_value` and a full tree walk agree on where every corpus
    // document ends and on its first syntax error.
    for case in decode_corpus::corpus() {
        let mut reader = JsonReader::new(&case.text);
        let skipped = reader.skip_value().and_then(|()| reader.finish());
        assert_eq!(
            skipped.err(),
            reference_parse(&case.text).err(),
            "{}",
            case.label
        );
    }
}

#[test]
fn reference_graph_decoder_errors_keep_their_wording() {
    // A few fixed points, so a change in both decoders at once shows too.
    let doc = |edges: &str| {
        format!(
            r#"{{"solver":"memheft","platform":{{"blue_procs":1,"red_procs":1}},"graph":{{"edges":[{edges}],"tasks":[{{"name":"a","blue":1,"red":1}},{{"name":"b","blue":1,"red":1}}]}}}}"#
        )
    };
    for (edges, message) in [
        (
            r#"{"src":0,"dst":1,"size":1,"comm":1},{"src":0,"dst":1,"size":2,"comm":2}"#,
            "bad request: bad graph JSON: edge 1: duplicate edge T0 -> T1",
        ),
        (
            r#"{"src":0,"dst":9,"size":1,"comm":1}"#,
            "bad request: bad graph JSON: edge 0: references unknown task",
        ),
        (
            r#"{"src":1,"dst":1,"size":1,"comm":1}"#,
            "bad request: bad graph JSON: edge 0: self loop on task T1",
        ),
        (
            r#"{"src":0,"dst":1,"size":1,"comm":1},{"src":1.5,"dst":0,"size":1,"comm":1}"#,
            "bad request: bad graph JSON: edge 1: missing `src`",
        ),
    ] {
        let text = doc(edges);
        let err = SolveRequest::parse(&text).unwrap_err();
        assert_eq!(err.to_string(), message);
        assert_eq!(Err(err), reference_request_parse(&text));
    }
}
