//! JSON serialisation of schedules and validation reports.
//!
//! The solver-service surface (`SolveRequest` → `SolveReport`) ships
//! schedules and their validation verdicts as JSON; this module owns those
//! encodings so every consumer agrees on one shape:
//!
//! ```json
//! {"n_tasks": 4, "n_edges": 4,
//!  "tasks": [{"task": 0, "proc": 1, "start": 0.0, "finish": 1.0}, …],
//!  "comms": [{"edge": 0, "start": 1.0, "finish": 2.0}, …]}
//! ```
//!
//! The sizes are embedded so a schedule can be reconstructed without the
//! graph at hand; placements are emitted in id order, making the encoding
//! deterministic. Floats round-trip bit-for-bit (see `mals_util::json`).

use crate::memory::MemoryPeaks;
use crate::schedule::{CommPlacement, Schedule, TaskPlacement};
use crate::validate::ValidationReport;
use mals_dag::{EdgeId, TaskId};
use mals_util::{Json, JsonWriter};
use std::fmt;

/// Errors raised while decoding a schedule from JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportError(pub String);

impl std::fmt::Display for ReportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad schedule JSON: {}", self.0)
    }
}

impl std::error::Error for ReportError {}

fn field_f64(obj: &Json, key: &str, what: &str) -> Result<f64, ReportError> {
    obj.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| ReportError(format!("{what}: missing or non-numeric `{key}`")))
}

fn field_usize(obj: &Json, key: &str, what: &str) -> Result<usize, ReportError> {
    obj.get(key)
        .and_then(Json::as_usize)
        .ok_or_else(|| ReportError(format!("{what}: missing or non-integer `{key}`")))
}

/// Serialises a schedule (placements in id order).
pub fn schedule_to_json(schedule: &Schedule) -> Json {
    let tasks = schedule
        .task_placements()
        .map(|p| {
            Json::obj([
                ("task", Json::Num(p.task.index() as f64)),
                ("proc", Json::Num(p.proc as f64)),
                ("start", Json::Num(p.start)),
                ("finish", Json::Num(p.finish)),
            ])
        })
        .collect();
    let comms = schedule
        .comm_placements()
        .map(|c| {
            Json::obj([
                ("edge", Json::Num(c.edge.index() as f64)),
                ("start", Json::Num(c.start)),
                ("finish", Json::Num(c.finish)),
            ])
        })
        .collect();
    Json::obj([
        ("n_tasks", Json::Num(schedule.n_tasks() as f64)),
        ("n_edges", Json::Num(schedule.n_edges() as f64)),
        ("tasks", Json::Arr(tasks)),
        ("comms", Json::Arr(comms)),
    ])
}

/// Streams the [`schedule_to_json`] encoding of `schedule` into `w` without
/// building the tree — the same bytes, at a fraction of the memory for a
/// 10⁵-task schedule.
pub fn write_schedule_json<W: fmt::Write>(
    w: &mut JsonWriter<W>,
    schedule: &Schedule,
) -> fmt::Result {
    w.begin_object()?;
    w.key("n_tasks")?;
    w.number(schedule.n_tasks() as f64)?;
    w.key("n_edges")?;
    w.number(schedule.n_edges() as f64)?;
    w.key("tasks")?;
    w.begin_array()?;
    for p in schedule.task_placements() {
        w.begin_object()?;
        w.key("task")?;
        w.number(p.task.index() as f64)?;
        w.key("proc")?;
        w.number(p.proc as f64)?;
        w.key("start")?;
        w.number(p.start)?;
        w.key("finish")?;
        w.number(p.finish)?;
        w.end_object()?;
    }
    w.end_array()?;
    w.key("comms")?;
    w.begin_array()?;
    for c in schedule.comm_placements() {
        w.begin_object()?;
        w.key("edge")?;
        w.number(c.edge.index() as f64)?;
        w.key("start")?;
        w.number(c.start)?;
        w.key("finish")?;
        w.number(c.finish)?;
        w.end_object()?;
    }
    w.end_array()?;
    w.end_object()
}

/// Parses the shape produced by [`schedule_to_json`].
pub fn schedule_from_json(json: &Json) -> Result<Schedule, ReportError> {
    let n_tasks = field_usize(json, "n_tasks", "schedule")?;
    let n_edges = field_usize(json, "n_edges", "schedule")?;
    let mut schedule = Schedule::empty(n_tasks, n_edges);
    let tasks = json
        .get("tasks")
        .and_then(Json::as_arr)
        .ok_or_else(|| ReportError("missing `tasks` array".into()))?;
    for (i, p) in tasks.iter().enumerate() {
        let what = format!("task placement {i}");
        let task = field_usize(p, "task", &what)?;
        if task >= n_tasks {
            return Err(ReportError(format!("{what}: task {task} out of range")));
        }
        schedule.place_task(TaskPlacement {
            task: TaskId::from_index(task),
            proc: field_usize(p, "proc", &what)?,
            start: field_f64(p, "start", &what)?,
            finish: field_f64(p, "finish", &what)?,
        });
    }
    let comms = json
        .get("comms")
        .and_then(Json::as_arr)
        .ok_or_else(|| ReportError("missing `comms` array".into()))?;
    for (i, c) in comms.iter().enumerate() {
        let what = format!("comm placement {i}");
        let edge = field_usize(c, "edge", &what)?;
        if edge >= n_edges {
            return Err(ReportError(format!("{what}: edge {edge} out of range")));
        }
        schedule.place_comm(CommPlacement {
            edge: EdgeId::from_index(edge),
            start: field_f64(c, "start", &what)?,
            finish: field_f64(c, "finish", &what)?,
        });
    }
    Ok(schedule)
}

/// Serialises memory peaks as `{"blue": …, "red": …}`.
pub fn peaks_to_json(peaks: &MemoryPeaks) -> Json {
    Json::obj([
        ("blue", Json::Num(peaks.blue)),
        ("red", Json::Num(peaks.red)),
    ])
}

/// Parses the shape produced by [`peaks_to_json`].
pub fn peaks_from_json(json: &Json) -> Result<MemoryPeaks, ReportError> {
    Ok(MemoryPeaks {
        blue: field_f64(json, "blue", "peaks")?,
        red: field_f64(json, "red", "peaks")?,
    })
}

/// Serialises a validation verdict: makespan, peaks, validity flag and the
/// rendered constraint violations (empty for a valid schedule).
pub fn validation_to_json(report: &ValidationReport) -> Json {
    Json::obj([
        ("makespan", Json::Num(report.makespan)),
        ("peaks", peaks_to_json(&report.peaks)),
        ("valid", Json::Bool(report.is_valid())),
        (
            "errors",
            Json::Arr(
                report
                    .errors
                    .iter()
                    .map(|e| Json::str(e.to_string()))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate;
    use mals_dag::TaskGraph;
    use mals_platform::Platform;

    fn dex_schedule() -> (TaskGraph, Schedule) {
        let mut g = TaskGraph::new();
        let t1 = g.add_task("T1", 3.0, 1.0);
        let t2 = g.add_task("T2", 2.0, 2.0);
        let t3 = g.add_task("T3", 6.0, 3.0);
        let t4 = g.add_task("T4", 1.0, 1.0);
        g.add_edge(t1, t2, 1.0, 1.0).unwrap();
        g.add_edge(t1, t3, 2.0, 1.0).unwrap();
        g.add_edge(t2, t4, 1.0, 1.0).unwrap();
        g.add_edge(t3, t4, 2.0, 1.0).unwrap();
        let mut s = Schedule::for_graph(&g);
        for (task, proc, start, finish) in [
            (t1, 1, 0.0, 1.0),
            (t3, 1, 1.0, 4.0),
            (t2, 0, 2.0, 4.0),
            (t4, 1, 5.0, 6.0),
        ] {
            s.place_task(TaskPlacement {
                task,
                proc,
                start,
                finish,
            });
        }
        let e12 = g.edge_between(t1, t2).unwrap();
        let e24 = g.edge_between(t2, t4).unwrap();
        s.place_comm(CommPlacement {
            edge: e12,
            start: 1.0,
            finish: 2.0,
        });
        s.place_comm(CommPlacement {
            edge: e24,
            start: 4.0,
            finish: 5.0,
        });
        (g, s)
    }

    #[test]
    fn schedule_json_roundtrip() {
        let (_, s) = dex_schedule();
        let json = schedule_to_json(&s);
        assert_eq!(schedule_from_json(&json).unwrap(), s);
        // Through text, too.
        let reparsed = Json::parse(&json.to_pretty()).unwrap();
        assert_eq!(schedule_from_json(&reparsed).unwrap(), s);
    }

    #[test]
    fn streamed_schedule_matches_the_tree() {
        let (g, full) = dex_schedule();
        let empty = Schedule::for_graph(&g);
        for s in [&full, &empty] {
            let tree = schedule_to_json(s);
            let mut compact = String::new();
            write_schedule_json(&mut JsonWriter::compact(&mut compact), s).unwrap();
            assert_eq!(compact, tree.to_compact());
            let mut pretty = String::new();
            write_schedule_json(&mut JsonWriter::pretty(&mut pretty), s).unwrap();
            assert_eq!(pretty + "\n", tree.to_pretty());
        }
    }

    #[test]
    fn partial_schedule_roundtrip() {
        let (g, _) = dex_schedule();
        let mut s = Schedule::for_graph(&g);
        s.place_task(TaskPlacement {
            task: TaskId::from_index(0),
            proc: 0,
            start: 0.0,
            finish: 3.0,
        });
        let back = schedule_from_json(&schedule_to_json(&s)).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.n_placed(), 1);
    }

    #[test]
    fn roundtripped_schedule_revalidates() {
        let (g, s) = dex_schedule();
        let platform = Platform::single_pair(5.0, 5.0);
        let back = schedule_from_json(&schedule_to_json(&s)).unwrap();
        let report = validate(&g, &platform, &back);
        assert!(report.is_valid(), "{:?}", report.errors);
        assert_eq!(report.makespan, 6.0);
    }

    #[test]
    fn validation_json_shape() {
        let (g, s) = dex_schedule();
        let report = validate(&g, &Platform::single_pair(4.0, 4.0), &s);
        let json = validation_to_json(&report);
        assert_eq!(json.get("valid").unwrap().as_bool(), Some(false));
        assert_eq!(json.get("makespan").unwrap().as_f64(), Some(6.0));
        let errors = json.get("errors").unwrap().as_arr().unwrap();
        assert!(!errors.is_empty());
        assert!(errors[0].as_str().unwrap().contains("memory"));
        let peaks = peaks_from_json(json.get("peaks").unwrap()).unwrap();
        assert_eq!(peaks.red, 5.0);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(schedule_from_json(&Json::Null).is_err());
        let missing_arrays = Json::parse(r#"{"n_tasks": 1, "n_edges": 0}"#).unwrap();
        assert!(schedule_from_json(&missing_arrays).is_err());
        let out_of_range = Json::parse(
            r#"{"n_tasks": 1, "n_edges": 0,
                "tasks": [{"task": 5, "proc": 0, "start": 0, "finish": 1}], "comms": []}"#,
        )
        .unwrap();
        let err = schedule_from_json(&out_of_range).unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }
}
