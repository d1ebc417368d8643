//! Plain-text and JSON serialisation of task graphs.
//!
//! Two formats are provided:
//!
//! * a tiny line-oriented format ("MTG" — MALS task graph) so DAG sets can
//!   be archived next to experiment results and re-loaded bit-for-bit,
//!   without pulling a serialisation framework into the workspace:
//!
//!   ```text
//!   # comment
//!   mtg 1
//!   task <id> <work_blue> <work_red> <name with spaces allowed>
//!   edge <src> <dst> <size> <comm_cost>
//!   ```
//!
//!   Task ids must be `0..n` in order (they are arena indices); edges may
//!   appear in any order after the tasks they reference.
//!
//! * a JSON shape used by the solver-service request/report surface
//!   (`SolveRequest` embeds the graph), written as a tree ([`to_json`]) and
//!   read from text by [`read_json`] straight into a [`GraphBuilder`]
//!   ([`from_json`] reads a tree through it):
//!
//!   ```json
//!   {"tasks": [{"name": "T1", "blue": 3.0, "red": 1.0}, …],
//!    "edges": [{"src": 0, "dst": 1, "size": 1.0, "comm": 1.0}, …]}
//!   ```

use crate::builder::{BuildError, GraphBuilder};
use crate::error::GraphError;
use crate::graph::TaskGraph;
use crate::ids::TaskId;
use mals_util::{Json, JsonError, JsonReader};

/// Errors raised while parsing the text or JSON formats.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// The `mtg <version>` header is missing or unsupported.
    BadHeader,
    /// A line could not be parsed; the payload is the 1-based line number and
    /// a description.
    BadLine(usize, String),
    /// A JSON document does not describe a valid graph.
    Json(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::BadHeader => write!(f, "missing or unsupported `mtg` header"),
            ParseError::BadLine(line, reason) => write!(f, "line {line}: {reason}"),
            ParseError::Json(reason) => write!(f, "bad graph JSON: {reason}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Serialises a graph to the MTG text format.
pub fn to_text(graph: &TaskGraph) -> String {
    let mut out = String::with_capacity(32 * (graph.n_tasks() + graph.n_edges()) + 16);
    out.push_str("mtg 1\n");
    for t in graph.task_ids() {
        let data = graph.task(t);
        out.push_str(&format!(
            "task {} {} {} {}\n",
            t.index(),
            data.work_blue,
            data.work_red,
            data.name
        ));
    }
    for e in graph.edge_ids() {
        let edge = graph.edge(e);
        out.push_str(&format!(
            "edge {} {} {} {}\n",
            edge.src.index(),
            edge.dst.index(),
            edge.size,
            edge.comm_cost
        ));
    }
    out
}

/// Parses a graph from the MTG text format.
pub fn from_text(text: &str) -> Result<TaskGraph, ParseError> {
    let mut graph = TaskGraph::new();
    let mut saw_header = false;
    for (idx, raw_line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if !saw_header {
            if line == "mtg 1" {
                saw_header = true;
                continue;
            }
            return Err(ParseError::BadHeader);
        }
        let mut parts = line.splitn(2, ' ');
        let keyword = parts.next().unwrap_or_default();
        let rest = parts.next().unwrap_or_default();
        match keyword {
            "task" => {
                let mut fields = rest.splitn(4, ' ');
                let id: usize = parse_field(&mut fields, line_no, "task id")?;
                let work_blue: f64 = parse_field(&mut fields, line_no, "blue time")?;
                let work_red: f64 = parse_field(&mut fields, line_no, "red time")?;
                let name = fields.next().unwrap_or("").to_string();
                if id != graph.n_tasks() {
                    return Err(ParseError::BadLine(
                        line_no,
                        format!("task ids must be consecutive, expected {}", graph.n_tasks()),
                    ));
                }
                graph.add_task(name, work_blue, work_red);
            }
            "edge" => {
                let mut fields = rest.split(' ');
                let src: usize = parse_field(&mut fields, line_no, "source id")?;
                let dst: usize = parse_field(&mut fields, line_no, "destination id")?;
                let size: f64 = parse_field(&mut fields, line_no, "file size")?;
                let comm: f64 = parse_field(&mut fields, line_no, "communication cost")?;
                if src >= graph.n_tasks() || dst >= graph.n_tasks() {
                    return Err(ParseError::BadLine(
                        line_no,
                        "edge references unknown task".into(),
                    ));
                }
                graph
                    .add_edge(TaskId::from_index(src), TaskId::from_index(dst), size, comm)
                    .map_err(|e| ParseError::BadLine(line_no, e.to_string()))?;
            }
            other => {
                return Err(ParseError::BadLine(
                    line_no,
                    format!("unknown record `{other}`"),
                ));
            }
        }
    }
    if !saw_header {
        return Err(ParseError::BadHeader);
    }
    Ok(graph)
}

/// Serialises a graph to the JSON shape of the service surface.
pub fn to_json(graph: &TaskGraph) -> Json {
    let tasks = graph
        .task_ids()
        .map(|t| {
            let data = graph.task(t);
            Json::obj([
                ("name", Json::str(&data.name)),
                ("blue", Json::Num(data.work_blue)),
                ("red", Json::Num(data.work_red)),
            ])
        })
        .collect();
    let edges = graph
        .edge_ids()
        .map(|e| {
            let edge = graph.edge(e);
            Json::obj([
                ("src", Json::Num(edge.src.index() as f64)),
                ("dst", Json::Num(edge.dst.index() as f64)),
                ("size", Json::Num(edge.size)),
                ("comm", Json::Num(edge.comm_cost)),
            ])
        })
        .collect();
    Json::obj([("tasks", Json::Arr(tasks)), ("edges", Json::Arr(edges))])
}

/// Parses a graph from the JSON shape produced by [`to_json`].
///
/// A thin wrapper: the tree is rendered and read back through
/// [`read_json`], the one graph decoder. (A tree holding a non-finite
/// number reads it back as `null`, as its text spells it.)
pub fn from_json(json: &Json) -> Result<TaskGraph, ParseError> {
    let text = json.to_compact();
    let mut reader = JsonReader::new(&text);
    let draft = read_json(&mut reader).map_err(|e| ParseError::Json(e.to_string()))?;
    draft.finish()
}

/// Reads the graph value at the reader's cursor straight into a
/// [`GraphBuilder`], with no tree: the graph member of a service request.
///
/// A syntax error is returned at once. Every other check waits for
/// [`GraphDraft::finish`], so that a caller can first lex the rest of its
/// document (a syntax error anywhere wins). The checks and their messages
/// are those of a tree reading of the value: the first occurrence of a key
/// counts, members may come in any order, unknown members are skipped, and
/// the error reported is the first of `tasks`, `edges`, then `task i`,
/// then `edge i` (fields, endpoints, then the rules of
/// [`TaskGraph::add_edge`]) in document order.
pub fn read_json(reader: &mut JsonReader<'_>) -> Result<GraphDraft, JsonError> {
    let mut draft = GraphDraft::default();
    if reader.peek() != Some(b'{') {
        reader.skip_value()?;
        return Ok(draft);
    }
    reader.begin_object()?;
    while let Some(key) = reader.next_key()? {
        match &*key {
            "tasks" if draft.tasks.is_none() => {
                draft.tasks = Some(read_array(reader, |reader, i| draft.read_task(reader, i))?);
            }
            "edges" if draft.edges.is_none() => {
                draft.edges = Some(read_array(reader, |reader, i| draft.read_edge(reader, i))?);
            }
            _ => reader.skip_value()?,
        }
    }
    Ok(draft)
}

/// Reads the value at the cursor, calling `item` on each item if it is an
/// array; returns whether it was one.
fn read_array<'a>(
    reader: &mut JsonReader<'a>,
    mut item: impl FnMut(&mut JsonReader<'a>, usize) -> Result<(), JsonError>,
) -> Result<bool, JsonError> {
    if reader.peek() != Some(b'[') {
        reader.skip_value()?;
        return Ok(false);
    }
    reader.begin_array()?;
    let mut i = 0;
    while reader.next_item()? {
        item(reader, i)?;
        i += 1;
    }
    Ok(true)
}

/// A graph read by [`read_json`] whose checks have not run yet.
#[derive(Debug, Default)]
pub struct GraphDraft {
    builder: GraphBuilder,
    /// Whether `tasks` / `edges` were seen, and were arrays.
    tasks: Option<bool>,
    edges: Option<bool>,
    /// The first task whose fields fail, rendered; no task is added after
    /// it.
    task_error: Option<String>,
    /// The first edge whose fields fail, rendered; no edge is added from
    /// it on, so the builder's edge indices stay the document's.
    edge_error: Option<String>,
}

impl GraphDraft {
    /// Runs the deferred checks (see [`read_json`]) and assembles the graph.
    pub fn finish(self) -> Result<TaskGraph, ParseError> {
        let fail = |message: String| Err(ParseError::Json(message));
        if self.tasks != Some(true) {
            return fail("missing `tasks` array".into());
        }
        if self.edges != Some(true) {
            return fail("missing `edges` array".into());
        }
        if let Some(message) = self.task_error {
            return fail(message);
        }
        // The builder holds the edges before the first field error, so a
        // failing edge among them comes first.
        match (self.builder.build(), self.edge_error) {
            (Err(BuildError { edge, error }), _) => fail(match error {
                GraphError::UnknownTask(_) => format!("edge {edge}: references unknown task"),
                error => format!("edge {edge}: {error}"),
            }),
            (Ok(_), Some(message)) => fail(message),
            (Ok(graph), None) => Ok(graph),
        }
    }

    /// Reads task `i`: `name`, `blue` and `red`, first occurrence each.
    fn read_task(&mut self, reader: &mut JsonReader<'_>, i: usize) -> Result<(), JsonError> {
        let (mut name, mut blue, mut red) = (None, None, None);
        if reader.peek() == Some(b'{') {
            reader.begin_object()?;
            while let Some(key) = reader.next_key()? {
                match &*key {
                    "name" if name.is_none() => name = Some(reader.read_str()?),
                    "blue" if blue.is_none() => blue = Some(reader.read_f64()?),
                    "red" if red.is_none() => red = Some(reader.read_f64()?),
                    _ => reader.skip_value()?,
                }
            }
        } else {
            reader.skip_value()?;
        }
        if self.task_error.is_some() {
            return Ok(());
        }
        match (name.flatten(), blue.flatten(), red.flatten()) {
            (Some(name), Some(blue), Some(red)) => {
                self.builder.add_task(name, blue, red);
            }
            (None, _, _) => self.task_error = Some(format!("task {i}: missing `name`")),
            (_, None, _) => self.task_error = Some(non_numeric("task", i, "blue")),
            (_, _, None) => self.task_error = Some(non_numeric("task", i, "red")),
        }
        Ok(())
    }

    /// Reads edge `i`: `src`, `dst`, `size` and `comm`, first occurrence
    /// each.
    fn read_edge(&mut self, reader: &mut JsonReader<'_>, i: usize) -> Result<(), JsonError> {
        let (mut src, mut dst, mut size, mut comm) = (None, None, None, None);
        if reader.peek() == Some(b'{') {
            reader.begin_object()?;
            while let Some(key) = reader.next_key()? {
                match &*key {
                    "src" if src.is_none() => src = Some(reader.read_f64()?),
                    "dst" if dst.is_none() => dst = Some(reader.read_f64()?),
                    "size" if size.is_none() => size = Some(reader.read_f64()?),
                    "comm" if comm.is_none() => comm = Some(reader.read_f64()?),
                    _ => reader.skip_value()?,
                }
            }
        } else {
            reader.skip_value()?;
        }
        if self.edge_error.is_some() {
            return Ok(());
        }
        // An id is what `Json::as_usize` accepts; one beyond `u32` saturates
        // to an index no graph reaches, so the builder reports it unknown.
        let id = |x: Option<Option<f64>>| {
            let index = Json::Num(x.flatten()?).as_usize()?;
            Some(TaskId(u32::try_from(index).unwrap_or(u32::MAX)))
        };
        match (id(src), id(dst), size.flatten(), comm.flatten()) {
            (Some(src), Some(dst), Some(size), Some(comm)) => {
                self.builder.add_edge(src, dst, size, comm);
            }
            (None, ..) => self.edge_error = Some(format!("edge {i}: missing `src`")),
            (_, None, ..) => self.edge_error = Some(format!("edge {i}: missing `dst`")),
            (_, _, None, _) => self.edge_error = Some(non_numeric("edge", i, "size")),
            (.., None) => self.edge_error = Some(non_numeric("edge", i, "comm")),
        }
        Ok(())
    }
}

fn non_numeric(what: &str, i: usize, key: &str) -> String {
    format!("{what} {i}: missing or non-numeric `{key}`")
}

fn parse_field<'a, T: std::str::FromStr>(
    fields: &mut impl Iterator<Item = &'a str>,
    line_no: usize,
    what: &str,
) -> Result<T, ParseError> {
    let raw = fields
        .next()
        .ok_or_else(|| ParseError::BadLine(line_no, format!("missing {what}")))?;
    raw.parse::<T>()
        .map_err(|_| ParseError::BadLine(line_no, format!("invalid {what}: `{raw}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dex() -> TaskGraph {
        let mut g = TaskGraph::new();
        let t1 = g.add_task("T1", 3.0, 1.0);
        let t2 = g.add_task("T2", 2.0, 2.0);
        let t3 = g.add_task("T3", 6.0, 3.0);
        let t4 = g.add_task("T4 final", 1.0, 1.0);
        g.add_edge(t1, t2, 1.0, 1.0).unwrap();
        g.add_edge(t1, t3, 2.0, 1.0).unwrap();
        g.add_edge(t2, t4, 1.0, 1.0).unwrap();
        g.add_edge(t3, t4, 2.0, 1.0).unwrap();
        g
    }

    #[test]
    fn roundtrip_preserves_graph() {
        let original = dex();
        let text = to_text(&original);
        let parsed = from_text(&text).unwrap();
        assert_eq!(original, parsed);
    }

    #[test]
    fn names_with_spaces_survive() {
        let parsed = from_text(&to_text(&dex())).unwrap();
        assert_eq!(parsed.task(TaskId::from_index(3)).name, "T4 final");
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# a comment\n\nmtg 1\n# another\ntask 0 1 2 a\n\ntask 1 3 4 b\nedge 0 1 5 6\n";
        let g = from_text(text).unwrap();
        assert_eq!(g.n_tasks(), 2);
        assert_eq!(g.n_edges(), 1);
        assert_eq!(g.edge(g.edge_ids().next().unwrap()).size, 5.0);
    }

    #[test]
    fn missing_header_rejected() {
        assert_eq!(from_text("task 0 1 2 a\n"), Err(ParseError::BadHeader));
        assert_eq!(from_text(""), Err(ParseError::BadHeader));
        assert_eq!(from_text("mtg 2\n"), Err(ParseError::BadHeader));
    }

    #[test]
    fn malformed_lines_rejected_with_position() {
        let err = from_text("mtg 1\ntask 0 1 2 a\nedge 0 5 1 1\n").unwrap_err();
        assert!(matches!(err, ParseError::BadLine(3, _)));
        let err = from_text("mtg 1\ntask 7 1 2 a\n").unwrap_err();
        assert!(matches!(err, ParseError::BadLine(2, _)));
        let err = from_text("mtg 1\ntask 0 x 2 a\n").unwrap_err();
        assert!(matches!(err, ParseError::BadLine(2, _)));
        let err = from_text("mtg 1\nblob 0\n").unwrap_err();
        assert!(matches!(err, ParseError::BadLine(2, _)));
    }

    #[test]
    fn duplicate_edge_rejected_via_graph_error() {
        let text = "mtg 1\ntask 0 1 1 a\ntask 1 1 1 b\nedge 0 1 1 1\nedge 0 1 2 2\n";
        let err = from_text(text).unwrap_err();
        assert!(matches!(err, ParseError::BadLine(5, _)));
    }

    #[test]
    fn error_display() {
        assert!(ParseError::BadHeader.to_string().contains("header"));
        assert!(ParseError::BadLine(3, "oops".into())
            .to_string()
            .contains("line 3"));
    }

    #[test]
    fn empty_graph_roundtrip() {
        let g = TaskGraph::new();
        let parsed = from_text(&to_text(&g)).unwrap();
        assert_eq!(parsed.n_tasks(), 0);
    }

    #[test]
    fn json_roundtrip_preserves_graph() {
        let original = dex();
        let json = to_json(&original);
        assert_eq!(from_json(&json).unwrap(), original);
        // And through the textual JSON representation.
        let reparsed = Json::parse(&json.to_pretty()).unwrap();
        assert_eq!(from_json(&reparsed).unwrap(), original);
    }

    #[test]
    fn json_empty_graph_roundtrip() {
        let g = TaskGraph::new();
        assert_eq!(from_json(&to_json(&g)).unwrap(), g);
    }

    #[test]
    fn json_errors_are_descriptive() {
        let missing = Json::parse(r#"{"edges": []}"#).unwrap();
        assert!(matches!(from_json(&missing), Err(ParseError::Json(_))));
        let bad_edge =
            Json::parse(r#"{"tasks": [{"name": "a", "blue": 1, "red": 1}], "edges": [{"src": 0, "dst": 5, "size": 1, "comm": 1}]}"#)
                .unwrap();
        let err = from_json(&bad_edge).unwrap_err();
        assert!(err.to_string().contains("unknown task"), "{err}");
        let bad_task =
            Json::parse(r#"{"tasks": [{"name": "a", "blue": "x", "red": 1}], "edges": []}"#)
                .unwrap();
        assert!(from_json(&bad_task).is_err());
    }
}
