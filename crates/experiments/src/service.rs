//! The embeddable service surface: `SolveRequest` in, `SolveReport` out.
//!
//! This is the library-first "endpoint" shape of the workspace: a request
//! names a solver (a registry key of `mals_exact::solver_registry()`),
//! carries the task graph, the platform, the thread budget and the solve
//! limits, and a [`Service`] session turns it into a provenance-stamped
//! report — the schedule, its makespan and memory peaks, an *independent*
//! validation verdict from `mals_sim::validate`, the optimality status, the
//! wall time and the solver/engine identity. Both types round-trip through
//! JSON ([`SolveRequest::to_json`] / [`SolveRequest::from_json`], same for
//! the report), and the `schedule` binary and the `malsd` daemon wire the
//! same session to a file / stdin / TCP socket, so any process that can
//! write JSON can use every solver in the registry through one code path.
//!
//! The JSON wire format is **versioned**: both documents carry a top-level
//! `"v"` field ([`PROTOCOL_VERSION`]); an absent field means version 1
//! (back-compat with pre-versioning documents), an unknown version is a
//! structured [`ServiceError::UnsupportedVersion`] error. Failures are
//! machine-readable: every [`ServiceError`] maps onto an [`ErrorCode`]
//! (`bad_request`, `unknown_solver`, `queue_full`, `deadline_exceeded`,
//! `internal`), carried as [`CodedError`] objects in the report's `errors`
//! array and in the daemon's reject frames.

use mals_dag::{serialize, TaskGraph};
use mals_exact::solver_registry;
use mals_platform::Platform;
use mals_sched::portfolio::panic_message;
use mals_sched::{
    Engine, EngineConfig, MemberReport, OptimalityStatus, Portfolio, SolveLimits, Solver,
};
use mals_sim::{
    peaks_from_json, peaks_to_json, schedule_from_json, schedule_to_json, validate,
    write_schedule_json, MemoryPeaks, Schedule,
};
use mals_util::{Deadline, IoSink, Json, JsonWriter, ParallelConfig};
use std::fmt::{self, Write as _};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Version of the JSON wire protocol spoken by [`SolveRequest`] /
/// [`SolveReport`] and the `malsd` daemon. Documents without a `"v"` field
/// are interpreted as version 1.
pub const PROTOCOL_VERSION: u64 = 1;

/// Encodes a `u64` losslessly: as a JSON number while `f64` is exact
/// (≤ 2⁵³), as a decimal string beyond (seeds are arbitrary 64-bit values).
fn u64_to_json(x: u64) -> Json {
    if x <= 9_007_199_254_740_992 {
        Json::Num(x as f64)
    } else {
        Json::Str(x.to_string())
    }
}

/// Parses either encoding produced by [`u64_to_json`].
fn json_to_u64(value: &Json) -> Option<u64> {
    value
        .as_u64()
        .or_else(|| value.as_str().and_then(|s| s.parse().ok()))
}

/// Checks the top-level `"v"` field of a wire document: absent (or null)
/// means version 1, anything other than [`PROTOCOL_VERSION`] is a
/// structured error.
pub fn check_version(json: &Json) -> Result<(), ServiceError> {
    match json.get("v") {
        None | Some(Json::Null) => Ok(()),
        Some(value) => match value.as_u64() {
            Some(PROTOCOL_VERSION) => Ok(()),
            _ => Err(ServiceError::UnsupportedVersion {
                got: value.to_compact(),
            }),
        },
    }
}

/// Largest worker-thread count a JSON request may ask for (`0` = all
/// cores is always allowed); guards the endpoint against thread-spawn
/// exhaustion from untrusted documents.
pub const MAX_REQUEST_THREADS: usize = 512;

/// A solve request: everything needed to reproduce one solver run.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveRequest {
    /// The task graph to schedule.
    pub graph: TaskGraph,
    /// The platform to schedule on.
    pub platform: Platform,
    /// Registry key of the solver (`"memheft"`, `"milp"`, …).
    pub solver: String,
    /// Worker threads for within-schedule parallelism (`0` = all cores;
    /// results are bit-identical for every setting).
    pub threads: usize,
    /// Budgets for exact solvers.
    pub limits: SolveLimits,
    /// Seed for randomised solvers (`None` = 0); echoed in the report.
    pub seed: Option<u64>,
    /// Member keys when `solver` is `"portfolio"` (empty: the default
    /// member set); ignored for ordinary solvers.
    pub solvers: Vec<String>,
    /// Wall-clock deadline for the solve in milliseconds (`None`: no
    /// deadline). Every solver polls it cooperatively; a portfolio returns
    /// the best member result available when it passes. The daemon stamps
    /// the deadline at *admission*, so queueing delay counts against it.
    pub deadline_ms: Option<u64>,
}

impl SolveRequest {
    /// A sequential request with default limits and no seed.
    pub fn new(graph: TaskGraph, platform: Platform, solver: impl Into<String>) -> Self {
        SolveRequest {
            graph,
            platform,
            solver: solver.into(),
            threads: 1,
            limits: SolveLimits::default(),
            seed: None,
            solvers: Vec::new(),
            deadline_ms: None,
        }
    }

    /// Serialises the request (wire version [`PROTOCOL_VERSION`]).
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("v".to_string(), Json::Num(PROTOCOL_VERSION as f64)),
            ("solver".to_string(), Json::str(&self.solver)),
            ("threads".to_string(), Json::Num(self.threads as f64)),
        ];
        if let Some(seed) = self.seed {
            pairs.push(("seed".into(), u64_to_json(seed)));
        }
        if !self.solvers.is_empty() {
            pairs.push((
                "solvers".into(),
                Json::Arr(self.solvers.iter().map(Json::str).collect()),
            ));
        }
        if let Some(ms) = self.deadline_ms {
            pairs.push(("deadline_ms".into(), u64_to_json(ms)));
        }
        pairs.push((
            "limits".into(),
            Json::obj([
                ("node_limit", u64_to_json(self.limits.node_limit)),
                (
                    "lp_iteration_limit",
                    u64_to_json(self.limits.lp_iteration_limit),
                ),
            ]),
        ));
        pairs.push(("graph".into(), serialize::to_json(&self.graph)));
        pairs.push(("platform".into(), self.platform.to_json()));
        Json::Obj(pairs)
    }

    /// Parses the shape produced by [`SolveRequest::to_json`]. `v`,
    /// `threads`, `limits` and `seed` are optional (defaults: version 1,
    /// 1 thread, default limits, no seed); `solver`, `graph` and `platform`
    /// are required.
    pub fn from_json(json: &Json) -> Result<Self, ServiceError> {
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
        // The pool spawns one OS thread per requested worker; an absurd
        // count from an untrusted document must fail as a named error, not
        // as a thread-spawn abort.
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
                    ServiceError::BadRequest(
                        "`limits.lp_iteration_limit` must be an integer".into(),
                    )
                })?;
            }
        }
        let graph = json
            .get("graph")
            .ok_or_else(|| ServiceError::BadRequest("missing `graph`".into()))
            .and_then(|doc| {
                serialize::from_json(doc).map_err(|e| ServiceError::BadRequest(e.to_string()))
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

    /// Parses a request from JSON text.
    pub fn parse(text: &str) -> Result<Self, ServiceError> {
        let json = Json::parse(text).map_err(|e| ServiceError::BadRequest(e.to_string()))?;
        SolveRequest::from_json(&json)
    }
}

/// One portfolio member's outcome, echoed in a portfolio [`SolveReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct MemberOutcome {
    /// Registry key of the member.
    pub key: String,
    /// Display name of the member.
    pub name: String,
    /// The member's own claimed status.
    pub status: OptimalityStatus,
    /// Makespan of the member's schedule, if it produced one.
    pub makespan: Option<f64>,
    /// Search effort the member spent.
    pub nodes: u64,
    /// Wall time the member ran for, in milliseconds.
    pub wall_time_ms: u64,
    /// `true` when the member was cooperatively cancelled.
    pub cancelled: bool,
    /// A contained panic, solver error, or validation exclusion.
    pub error: Option<String>,
}

impl From<&MemberReport> for MemberOutcome {
    fn from(member: &MemberReport) -> Self {
        MemberOutcome {
            key: member.key.clone(),
            name: member.name.clone(),
            status: member.status,
            makespan: member.makespan,
            nodes: member.nodes,
            wall_time_ms: member.wall_time_ms,
            cancelled: member.cancelled,
            error: member.error.clone(),
        }
    }
}

impl MemberOutcome {
    /// Serialises the member outcome.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("key".to_string(), Json::str(&self.key)),
            ("name".to_string(), Json::str(&self.name)),
            ("status".to_string(), Json::str(self.status.as_str())),
            (
                "makespan".to_string(),
                self.makespan.map(Json::Num).unwrap_or(Json::Null),
            ),
            ("nodes".to_string(), u64_to_json(self.nodes)),
            ("wall_time_ms".to_string(), u64_to_json(self.wall_time_ms)),
            ("cancelled".to_string(), Json::Bool(self.cancelled)),
        ];
        if let Some(error) = &self.error {
            pairs.push(("error".into(), Json::str(error)));
        }
        Json::Obj(pairs)
    }

    /// Parses the shape produced by [`MemberOutcome::to_json`].
    pub fn from_json(json: &Json) -> Result<Self, ServiceError> {
        let text = |key: &str| {
            json.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| ServiceError::BadRequest(format!("member missing `{key}`")))
        };
        Ok(MemberOutcome {
            key: text("key")?,
            name: text("name")?,
            status: OptimalityStatus::parse(&text("status")?)
                .ok_or_else(|| ServiceError::BadRequest("unknown member `status`".into()))?,
            makespan: json.get("makespan").and_then(Json::as_f64),
            nodes: json.get("nodes").and_then(json_to_u64).unwrap_or(0),
            wall_time_ms: json.get("wall_time_ms").and_then(json_to_u64).unwrap_or(0),
            cancelled: json
                .get("cancelled")
                .and_then(Json::as_bool)
                .unwrap_or(false),
            error: json.get("error").and_then(Json::as_str).map(str::to_string),
        })
    }
}

/// The provenance-stamped result of a [`SolveRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReport {
    /// Display name of the solver that ran (`"MemHEFT"`, `"Optimal(MILP)"`).
    pub solver: String,
    /// Registry key it was resolved from.
    pub solver_key: String,
    /// Version of the engine (the workspace crate version).
    pub engine_version: String,
    /// What the solve proved.
    pub status: OptimalityStatus,
    /// The schedule, when the status carries one.
    pub schedule: Option<Schedule>,
    /// Its makespan.
    pub makespan: Option<f64>,
    /// Its memory peaks, replayed by the independent validator.
    pub peaks: Option<MemoryPeaks>,
    /// Verdict of `mals_sim::validate` (memory-oblivious baselines are
    /// checked against the unbounded platform — their declared contract).
    pub valid: Option<bool>,
    /// Rendered validation errors (empty for a valid schedule).
    pub validation_errors: Vec<String>,
    /// Machine-readable errors: why a request was rejected (bad request,
    /// unknown solver), why a solve fell short (deadline exceeded), or a
    /// contained internal failure. Empty for clean solves.
    pub errors: Vec<CodedError>,
    /// Search effort (0 for heuristics).
    pub nodes: u64,
    /// Wall-clock solve time in milliseconds.
    pub wall_time_ms: f64,
    /// Worker threads used.
    pub threads: usize,
    /// The request's seed, echoed for provenance.
    pub seed: Option<u64>,
    /// The request's deadline, echoed for provenance.
    pub deadline_ms: Option<u64>,
    /// Per-member outcomes of a portfolio race (empty for ordinary solves).
    pub members: Vec<MemberOutcome>,
    /// Registry key of the winning portfolio member, if any.
    pub winner: Option<String>,
    /// Why the instance was rejected, when it never reached the solver
    /// (human-readable twin of the first [`CodedError`] in `errors`).
    pub error: Option<String>,
}

impl SolveReport {
    /// A rejection report: the request never reached a solver. Status is
    /// [`OptimalityStatus::LimitHit`] (nothing was proven), the coded cause
    /// is in [`SolveReport::errors`] and its rendering in
    /// [`SolveReport::error`].
    pub fn rejection(solver_key: &str, error: &ServiceError) -> Self {
        SolveReport {
            solver: solver_key.to_string(),
            solver_key: solver_key.to_string(),
            engine_version: env!("CARGO_PKG_VERSION").to_string(),
            status: OptimalityStatus::LimitHit,
            schedule: None,
            makespan: None,
            peaks: None,
            valid: None,
            validation_errors: Vec::new(),
            errors: vec![CodedError::from(error)],
            nodes: 0,
            wall_time_ms: 0.0,
            threads: 0,
            seed: None,
            deadline_ms: None,
            members: Vec::new(),
            winner: None,
            error: Some(error.to_string()),
        }
    }

    /// Serialises the report (the schedule is embedded, so the report is
    /// self-contained and can be re-validated downstream). To emit the text
    /// of a large report, [`SolveReport::write_json`] produces the same
    /// bytes without building this tree.
    pub fn to_json(&self) -> Json {
        let mut pairs = self.fields_before_schedule();
        if let Some(schedule) = &self.schedule {
            pairs.push(("schedule".into(), schedule_to_json(schedule)));
        }
        Json::Obj(pairs)
    }

    /// Streams the report into `w`: byte-identical to writing
    /// [`SolveReport::to_json`] with the same writer, but the schedule —
    /// nearly all of a large report — goes straight from the [`Schedule`]
    /// to the sink. `id`, when given, is written as the first member (the
    /// daemon's reply frame).
    pub fn write_json<W: fmt::Write>(
        &self,
        w: &mut JsonWriter<W>,
        id: Option<&Json>,
    ) -> fmt::Result {
        w.begin_object()?;
        if let Some(id) = id {
            w.key("id")?;
            w.value(id)?;
        }
        for (key, value) in &self.fields_before_schedule() {
            w.key(key)?;
            w.value(value)?;
        }
        if let Some(schedule) = &self.schedule {
            w.key("schedule")?;
            write_schedule_json(w, schedule)?;
        }
        w.end_object()
    }

    /// Streams the report to `out`, compact or pretty, followed by a
    /// newline: the text of `to_json().to_compact()` plus `\n`, or of
    /// `to_json().to_pretty()`, without the tree or the string.
    pub fn write_to(&self, out: impl io::Write, pretty: bool) -> io::Result<()> {
        let mut sink = IoSink::new(out);
        let mut w = if pretty {
            JsonWriter::pretty(&mut sink)
        } else {
            JsonWriter::compact(&mut sink)
        };
        // A write error is kept by the sink and returned by `finish`.
        let _ = self
            .write_json(&mut w, None)
            .and_then(|()| w.into_inner().write_str("\n"));
        sink.finish().map(drop)
    }

    /// Every member of the report document except the trailing schedule.
    fn fields_before_schedule(&self) -> Vec<(String, Json)> {
        let mut pairs = vec![
            ("v".to_string(), Json::Num(PROTOCOL_VERSION as f64)),
            ("solver".to_string(), Json::str(&self.solver)),
            ("solver_key".to_string(), Json::str(&self.solver_key)),
            (
                "engine_version".to_string(),
                Json::str(&self.engine_version),
            ),
            ("status".to_string(), Json::str(self.status.as_str())),
            (
                "makespan".to_string(),
                self.makespan.map(Json::Num).unwrap_or(Json::Null),
            ),
            (
                "peaks".to_string(),
                self.peaks.as_ref().map(peaks_to_json).unwrap_or(Json::Null),
            ),
            (
                "valid".to_string(),
                self.valid.map(Json::Bool).unwrap_or(Json::Null),
            ),
            (
                "validation_errors".to_string(),
                Json::Arr(self.validation_errors.iter().map(Json::str).collect()),
            ),
            ("nodes".to_string(), u64_to_json(self.nodes)),
            ("wall_time_ms".to_string(), Json::Num(self.wall_time_ms)),
            ("threads".to_string(), Json::Num(self.threads as f64)),
        ];
        if !self.errors.is_empty() {
            pairs.push((
                "errors".into(),
                Json::Arr(self.errors.iter().map(CodedError::to_json).collect()),
            ));
        }
        if let Some(seed) = self.seed {
            pairs.push(("seed".into(), u64_to_json(seed)));
        }
        if let Some(ms) = self.deadline_ms {
            pairs.push(("deadline_ms".into(), u64_to_json(ms)));
        }
        if !self.members.is_empty() {
            pairs.push((
                "portfolio".into(),
                Json::Arr(self.members.iter().map(MemberOutcome::to_json).collect()),
            ));
        }
        if let Some(winner) = &self.winner {
            pairs.push(("winner".into(), Json::str(winner)));
        }
        if let Some(error) = &self.error {
            pairs.push(("error".into(), Json::str(error)));
        }
        pairs
    }

    /// Parses the shape produced by [`SolveReport::to_json`].
    pub fn from_json(json: &Json) -> Result<Self, ServiceError> {
        check_version(json)?;
        let text = |key: &str| {
            json.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| ServiceError::BadRequest(format!("missing `{key}`")))
        };
        let status = OptimalityStatus::parse(&text("status")?)
            .ok_or_else(|| ServiceError::BadRequest("unknown `status`".into()))?;
        let schedule = match json.get("schedule") {
            None | Some(Json::Null) => None,
            Some(doc) => {
                Some(schedule_from_json(doc).map_err(|e| ServiceError::BadRequest(e.to_string()))?)
            }
        };
        let peaks = match json.get("peaks") {
            None | Some(Json::Null) => None,
            Some(doc) => {
                Some(peaks_from_json(doc).map_err(|e| ServiceError::BadRequest(e.to_string()))?)
            }
        };
        Ok(SolveReport {
            solver: text("solver")?,
            solver_key: text("solver_key")?,
            engine_version: text("engine_version")?,
            status,
            schedule,
            makespan: json.get("makespan").and_then(Json::as_f64),
            peaks,
            valid: json.get("valid").and_then(Json::as_bool),
            validation_errors: json
                .get("validation_errors")
                .and_then(Json::as_arr)
                .map(|items| {
                    items
                        .iter()
                        .filter_map(|e| e.as_str().map(str::to_string))
                        .collect()
                })
                .unwrap_or_default(),
            errors: match json.get("errors") {
                None | Some(Json::Null) => Vec::new(),
                Some(doc) => doc
                    .as_arr()
                    .ok_or_else(|| ServiceError::BadRequest("`errors` must be an array".into()))?
                    .iter()
                    .map(CodedError::from_json)
                    .collect::<Result<Vec<_>, _>>()?,
            },
            nodes: json.get("nodes").and_then(json_to_u64).unwrap_or(0),
            wall_time_ms: json
                .get("wall_time_ms")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            threads: json.get("threads").and_then(Json::as_usize).unwrap_or(1),
            seed: json.get("seed").and_then(json_to_u64),
            deadline_ms: json.get("deadline_ms").and_then(json_to_u64),
            members: match json.get("portfolio") {
                None | Some(Json::Null) => Vec::new(),
                Some(doc) => doc
                    .as_arr()
                    .ok_or_else(|| ServiceError::BadRequest("`portfolio` must be an array".into()))?
                    .iter()
                    .map(MemberOutcome::from_json)
                    .collect::<Result<Vec<_>, _>>()?,
            },
            winner: json
                .get("winner")
                .and_then(Json::as_str)
                .map(str::to_string),
            error: json.get("error").and_then(Json::as_str).map(str::to_string),
        })
    }

    /// Parses a report from JSON text.
    pub fn parse(text: &str) -> Result<Self, ServiceError> {
        let json = Json::parse(text).map_err(|e| ServiceError::BadRequest(e.to_string()))?;
        SolveReport::from_json(&json)
    }
}

/// Machine-readable failure categories of the service surface and the
/// daemon's wire protocol. Stable strings; clients switch on these instead
/// of parsing messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request document is malformed, inconsistent, or speaks an
    /// unsupported protocol version.
    BadRequest,
    /// The requested solver key is not in the registry.
    UnknownSolver,
    /// The daemon's bounded request queue is full (or the daemon is
    /// draining for shutdown): admission refused, try again later.
    QueueFull,
    /// The request's deadline passed before a schedule was found.
    DeadlineExceeded,
    /// A contained internal failure (solver error, panic, I/O).
    Internal,
}

impl ErrorCode {
    /// Stable lower-case identifier used on the wire.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownSolver => "unknown_solver",
            ErrorCode::QueueFull => "queue_full",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parses [`ErrorCode::as_str`] output.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "bad_request" => ErrorCode::BadRequest,
            "unknown_solver" => ErrorCode::UnknownSolver,
            "queue_full" => ErrorCode::QueueFull,
            "deadline_exceeded" => ErrorCode::DeadlineExceeded,
            "internal" => ErrorCode::Internal,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A machine-readable error: a stable [`ErrorCode`] plus a human-readable
/// message. Carried in [`SolveReport::errors`] and in the daemon's reject
/// frames as `{"code": "...", "message": "..."}`.
#[derive(Debug, Clone, PartialEq)]
pub struct CodedError {
    /// The stable category.
    pub code: ErrorCode,
    /// Human-readable detail (free-form; never parse this).
    pub message: String,
}

impl CodedError {
    /// A coded error from its parts.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        CodedError {
            code,
            message: message.into(),
        }
    }

    /// Serialises as `{"code": ..., "message": ...}`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("code", Json::str(self.code.as_str())),
            ("message", Json::str(&self.message)),
        ])
    }

    /// Parses the shape produced by [`CodedError::to_json`].
    pub fn from_json(json: &Json) -> Result<Self, ServiceError> {
        let code = json
            .get("code")
            .and_then(Json::as_str)
            .and_then(ErrorCode::parse)
            .ok_or_else(|| ServiceError::BadRequest("error entry missing a known `code`".into()))?;
        Ok(CodedError {
            code,
            message: json
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
        })
    }
}

impl std::fmt::Display for CodedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.code, self.message)
    }
}

impl From<&ServiceError> for CodedError {
    fn from(error: &ServiceError) -> Self {
        CodedError {
            code: error.code(),
            message: error.to_string(),
        }
    }
}

/// Errors raised by the service surface. Every variant maps onto a stable
/// [`ErrorCode`] via [`ServiceError::code`].
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The request document is malformed or inconsistent.
    BadRequest(String),
    /// The document declares a wire-protocol version this engine does not
    /// speak. The payload is the rendered `"v"` value.
    UnsupportedVersion {
        /// The rendered version value that failed to match.
        got: String,
    },
    /// The requested solver is not registered; the payload lists the keys
    /// that are.
    UnknownSolver {
        /// The name that failed to resolve.
        name: String,
        /// Every registered key.
        known: Vec<&'static str>,
    },
    /// The daemon's bounded queue rejected the request (admission control).
    QueueFull {
        /// The queue capacity that was exhausted.
        capacity: usize,
    },
    /// The daemon is draining for shutdown and refuses new work.
    ShuttingDown,
    /// The request's deadline passed before any schedule was found.
    DeadlineExceeded,
    /// A contained internal failure.
    Internal(String),
}

impl ServiceError {
    /// The stable machine-readable category of this error.
    pub fn code(&self) -> ErrorCode {
        match self {
            ServiceError::BadRequest(_) | ServiceError::UnsupportedVersion { .. } => {
                ErrorCode::BadRequest
            }
            ServiceError::UnknownSolver { .. } => ErrorCode::UnknownSolver,
            // Shutdown refusal is admission control too: the client-visible
            // contract ("try again later, possibly elsewhere") is the same.
            ServiceError::QueueFull { .. } | ServiceError::ShuttingDown => ErrorCode::QueueFull,
            ServiceError::DeadlineExceeded => ErrorCode::DeadlineExceeded,
            ServiceError::Internal(_) => ErrorCode::Internal,
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::BadRequest(reason) => write!(f, "bad request: {reason}"),
            ServiceError::UnsupportedVersion { got } => write!(
                f,
                "unsupported protocol version {got} (this engine speaks v{PROTOCOL_VERSION})"
            ),
            ServiceError::UnknownSolver { name, known } => {
                write!(f, "unknown solver `{name}` (known: {})", known.join(", "))
            }
            ServiceError::QueueFull { capacity } => {
                write!(
                    f,
                    "request queue full ({capacity} pending); try again later"
                )
            }
            ServiceError::ShuttingDown => write!(f, "daemon is shutting down; refusing new work"),
            ServiceError::DeadlineExceeded => {
                write!(f, "deadline passed before a schedule was found")
            }
            ServiceError::Internal(reason) => write!(f, "internal error: {reason}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// A window of prepared solves: one request plus its admission-stamped
/// deadline (the daemon stamps [`Deadline`]s when requests are *queued*, so
/// time spent waiting counts against the budget).
pub type PreparedRequest<'a> = (&'a SolveRequest, Option<Deadline>);

/// Cache of instantiated solvers, keyed by `(registry key, seed)` — the
/// cross-request batch-formation machinery: one solver instance serves
/// every request in a drained queue window that names the same solver.
type SolverCache = Vec<((String, u64), Box<dyn Solver>)>;

/// A service session: owns the [`Engine`] (registry + worker pool + default
/// limits) and turns [`SolveRequest`]s into [`SolveReport`]s.
///
/// Create one `Service` per process (or per daemon) and call
/// [`Service::handle`] for every request — the worker pool is spawned once
/// and amortised across the session, which is what the
/// `engine/batch-solve-16x12-t2` bench quantifies (~7× over per-solve
/// setup). The request's `threads` field is honoured only by
/// [`Service::once`]; a long-lived session's pool is fixed at construction.
pub struct Service {
    engine: Engine,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("engine", &self.engine)
            .finish()
    }
}

impl Service {
    /// A session over the full solver registry (heuristics + exact
    /// backends) with the given engine configuration.
    pub fn new(config: EngineConfig) -> Self {
        Service {
            engine: Engine::new(solver_registry(), config),
        }
    }

    /// A session around an existing engine (custom registry, shared pool).
    pub fn with_engine(engine: Engine) -> Self {
        Service { engine }
    }

    /// A session sized to one request: pool threads from the request's
    /// `threads` field (`0` = all cores), default limits from its `limits`.
    /// For anything beyond a one-shot, create a `Service` once and reuse it.
    pub fn for_request(request: &SolveRequest) -> Self {
        Service::new(EngineConfig {
            parallel: ParallelConfig::with_threads(request.threads),
            limits: request.limits,
        })
    }

    /// Handles a single request on a throwaway [`Service::for_request`]
    /// session (pool spun up for this one call).
    pub fn once(request: &SolveRequest) -> SolveReport {
        Service::for_request(request).handle(request)
    }

    /// The engine backing this session.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Handles one request; failures become *rejection reports* (status
    /// `limit_hit`, coded cause in [`SolveReport::errors`]) so the caller
    /// always has one report per request. A solver panic is contained and
    /// reported as an `internal` error.
    pub fn handle(&self, request: &SolveRequest) -> SolveReport {
        self.handle_at(request, request.deadline_ms.map(Deadline::after_millis))
    }

    /// [`Service::handle`] with an explicit absolute deadline (overriding
    /// the request's relative `deadline_ms`). The daemon stamps deadlines
    /// at admission and passes them here, so queueing delay is on the
    /// clock.
    pub fn handle_at(&self, request: &SolveRequest, deadline: Option<Deadline>) -> SolveReport {
        self.handle_window(&[(request, deadline)])
            .pop()
            .expect("one report per request")
    }

    /// Handles one request, surfacing rejections as `Err` instead of a
    /// rejection report.
    pub fn try_handle(&self, request: &SolveRequest) -> Result<SolveReport, ServiceError> {
        let mut cache = SolverCache::new();
        solve_on_engine(
            &self.engine,
            request,
            request.deadline_ms.map(Deadline::after_millis),
            &mut cache,
        )
    }

    /// Handles a *window* of prepared requests back to back — the daemon's
    /// cross-request batch formation. Solver instances are built once per
    /// distinct `(solver, seed)` in the window and reused (the same
    /// amortisation as [`Engine::solve_batch`], but across requests that
    /// may mix solvers, platforms and deadlines). Reports come back in
    /// window order, one per request, rejections included.
    ///
    /// A panic inside one solve is contained to its request, as
    /// [`Portfolio`] contains it per member: that request gets a rejection
    /// report with an `internal` coded error, the solver cache is dropped
    /// (the panicking instance may be left inconsistent), and the rest of
    /// the window is solved normally. The daemon's single solver thread
    /// relies on this to keep serving.
    pub fn handle_window(&self, window: &[PreparedRequest<'_>]) -> Vec<SolveReport> {
        let mut cache = SolverCache::new();
        window
            .iter()
            .map(|(request, deadline)| {
                let solved = catch_unwind(AssertUnwindSafe(|| {
                    solve_on_engine(&self.engine, request, *deadline, &mut cache)
                }));
                let result = solved.unwrap_or_else(|payload| {
                    cache.clear();
                    Err(ServiceError::Internal(format!(
                        "solver `{}` panicked: {}",
                        request.solver,
                        panic_message(payload.as_ref())
                    )))
                });
                result.unwrap_or_else(|error| SolveReport::rejection(&request.solver, &error))
            })
            .collect()
    }
}

/// The solve core shared by [`Service`] and the deprecated free functions:
/// resolves the solver (through `cache`, so a window of same-solver
/// requests builds it once), runs it under the engine's pool with the
/// prepared deadline, validates the schedule independently, and stamps the
/// report.
fn solve_on_engine(
    engine: &Engine,
    request: &SolveRequest,
    deadline: Option<Deadline>,
    cache: &mut SolverCache,
) -> Result<SolveReport, ServiceError> {
    let entry =
        engine
            .registry()
            .entry(&request.solver)
            .ok_or_else(|| ServiceError::UnknownSolver {
                name: request.solver.clone(),
                known: engine.registry().keys(),
            })?;
    let info = entry.info;
    let seed = request.seed.unwrap_or(0);
    let ctx = engine.ctx_with(Some(request.limits), deadline);

    // The `portfolio` key is dispatched through `Portfolio::solve_race`
    // directly (not through the registry factory) so the request can select
    // the member set and the report can echo the per-member breakdown.
    let started = std::time::Instant::now();
    let (solver_name, outcome, members, winner) = if info.key == "portfolio" {
        let portfolio = Portfolio::from_registry(engine.registry(), &request.solvers, seed)
            .map_err(|key| ServiceError::UnknownSolver {
                name: key,
                known: engine.registry().keys(),
            })?;
        let race = portfolio.solve_race(&request.graph, &request.platform, &ctx);
        let members: Vec<MemberOutcome> = race.members.iter().map(MemberOutcome::from).collect();
        let winner = race.winner_key().map(str::to_string);
        ("Portfolio".to_string(), race.outcome, members, winner)
    } else {
        let cache_key = (info.key.to_string(), seed);
        let solver = match cache.iter().position(|(k, _)| *k == cache_key) {
            Some(at) => &cache[at].1,
            None => {
                cache.push((cache_key, entry.build(seed)));
                &cache.last().expect("just pushed").1
            }
        };
        let outcome = solver.solve(&request.graph, &request.platform, &ctx);
        (solver.name().to_string(), outcome, Vec::new(), None)
    };
    let wall_time_ms = started.elapsed().as_secs_f64() * 1e3;

    // Machine-readable failure annotations: a deadline that expired with
    // nothing proven, and any instance-rejection the solver reported.
    let mut errors = Vec::new();
    if outcome.status == OptimalityStatus::LimitHit && deadline.is_some_and(|d| d.expired()) {
        errors.push(CodedError::new(
            ErrorCode::DeadlineExceeded,
            ServiceError::DeadlineExceeded.to_string(),
        ));
    }
    if let Some(cause) = &outcome.error {
        errors.push(CodedError::new(ErrorCode::Internal, cause.clone()));
    }

    // Memory-oblivious baselines schedule on the unbounded platform by
    // contract, so their schedules are validated against it; everything
    // else must honour the request's bounds.
    let validation_platform = if info.memory_aware {
        request.platform.clone()
    } else {
        request.platform.unbounded()
    };
    let validation = outcome
        .schedule
        .as_ref()
        .map(|s| validate(&request.graph, &validation_platform, s));
    Ok(SolveReport {
        solver: solver_name,
        solver_key: info.key.to_string(),
        engine_version: env!("CARGO_PKG_VERSION").to_string(),
        status: outcome.status,
        makespan: outcome.makespan(),
        peaks: validation.as_ref().map(|v| v.peaks),
        valid: validation.as_ref().map(|v| v.is_valid()),
        validation_errors: validation
            .as_ref()
            .map(|v| v.errors.iter().map(|e| e.to_string()).collect())
            .unwrap_or_default(),
        errors,
        schedule: outcome.schedule,
        nodes: outcome.nodes,
        wall_time_ms,
        threads: engine.threads(),
        seed: request.seed,
        deadline_ms: request.deadline_ms,
        members,
        winner,
        error: outcome.error,
    })
}

/// A ready-made example request (the paper's `D_ex` toy DAG on a 1+1
/// platform with 5 memory units per side), used by `schedule
/// --print-request` and the docs.
pub fn example_request() -> SolveRequest {
    let (graph, _) = mals_gen::dex();
    SolveRequest::new(graph, Platform::single_pair(5.0, 5.0), "memheft")
}

/// A generated request: a seeded LargeRandSet-shaped DAG of `tasks` tasks
/// with both memory bounds pinned at the memory-oblivious HEFT schedule's
/// own requirement — the `α = 1` campaign point, where MemHEFT is
/// guaranteed feasible. Used by `schedule --gen-tasks`, the `loadgen`
/// request mix, and the CI large-DAG smoke path.
pub fn generated_request(tasks: usize, seed: u64) -> SolveRequest {
    use mals_gen::{daggen, DaggenParams, WeightRanges};
    let mut rng = mals_util::Pcg64::new(seed);
    let graph = daggen::generate(
        &DaggenParams::large_rand().with_size(tasks),
        &WeightRanges::large_rand(),
        &mut rng,
    );
    let platform = Platform::single_pair(0.0, 0.0);
    let bound = crate::heft_baseline(&graph, &platform).peaks.max();
    let platform = platform.with_memory_bounds(bound, bound);
    let mut request = SolveRequest::new(graph, platform, "memheft");
    // Echo the generation seed through the request so the report's
    // provenance names the instance it solved.
    request.seed = Some(seed);
    request
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `Service`-session equivalent of the old `solve_request` free
    /// function: a throwaway session sized to the request.
    fn solve(request: &SolveRequest) -> Result<SolveReport, ServiceError> {
        Service::for_request(request).try_handle(request)
    }

    #[test]
    fn request_json_roundtrip() {
        let mut request = example_request();
        request.threads = 4;
        request.seed = Some(99);
        request.limits = SolveLimits::with_node_limit(1234);
        request.solvers = vec!["memheft".into(), "memminmin".into()];
        request.deadline_ms = Some(750);
        let json = request.to_json();
        assert_eq!(SolveRequest::from_json(&json).unwrap(), request);
        // Through text (pretty and compact).
        assert_eq!(SolveRequest::parse(&json.to_pretty()).unwrap(), request);
        assert_eq!(SolveRequest::parse(&json.to_compact()).unwrap(), request);
    }

    #[test]
    fn wire_documents_carry_the_protocol_version() {
        let request = example_request();
        let json = request.to_json();
        assert_eq!(json.get("v").and_then(Json::as_u64), Some(PROTOCOL_VERSION));
        let report = solve(&request).unwrap();
        assert_eq!(
            report.to_json().get("v").and_then(Json::as_u64),
            Some(PROTOCOL_VERSION)
        );
    }

    #[test]
    fn absent_version_means_v1_and_unknown_versions_are_structured_errors() {
        // Pre-versioning documents (no "v") still parse.
        let mut json = example_request().to_json();
        {
            let Json::Obj(pairs) = &mut json else {
                unreachable!()
            };
            pairs.retain(|(k, _)| k != "v");
        }
        assert!(SolveRequest::from_json(&json).is_ok());
        // An unknown version is refused with the bad_request code, for
        // requests and reports alike.
        {
            let Json::Obj(pairs) = &mut json else {
                unreachable!()
            };
            pairs.insert(0, ("v".into(), Json::Num(2.0)));
        }
        let err = SolveRequest::from_json(&json).unwrap_err();
        assert!(matches!(err, ServiceError::UnsupportedVersion { .. }));
        assert_eq!(err.code(), ErrorCode::BadRequest);
        assert!(err.to_string().contains("v1"), "{err}");
        let report_json = Json::parse(r#"{"v": "vFuture"}"#).unwrap();
        assert!(matches!(
            SolveReport::from_json(&report_json),
            Err(ServiceError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn error_codes_round_trip_and_cover_every_service_error() {
        for code in [
            ErrorCode::BadRequest,
            ErrorCode::UnknownSolver,
            ErrorCode::QueueFull,
            ErrorCode::DeadlineExceeded,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
        }
        assert_eq!(ErrorCode::parse("no_such_code"), None);
        let cases: Vec<(ServiceError, ErrorCode)> = vec![
            (ServiceError::BadRequest("x".into()), ErrorCode::BadRequest),
            (
                ServiceError::UnsupportedVersion { got: "9".into() },
                ErrorCode::BadRequest,
            ),
            (
                ServiceError::UnknownSolver {
                    name: "x".into(),
                    known: vec!["memheft"],
                },
                ErrorCode::UnknownSolver,
            ),
            (
                ServiceError::QueueFull { capacity: 4 },
                ErrorCode::QueueFull,
            ),
            (ServiceError::ShuttingDown, ErrorCode::QueueFull),
            (ServiceError::DeadlineExceeded, ErrorCode::DeadlineExceeded),
            (ServiceError::Internal("x".into()), ErrorCode::Internal),
        ];
        for (error, expected) in cases {
            assert_eq!(error.code(), expected, "{error}");
            let coded = CodedError::from(&error);
            let back = CodedError::from_json(&coded.to_json()).unwrap();
            assert_eq!(back, coded);
        }
        assert!(CodedError::from_json(&Json::parse(r#"{"code": "nope"}"#).unwrap()).is_err());
    }

    #[test]
    fn rejection_reports_carry_coded_errors_and_round_trip() {
        let mut request = example_request();
        request.solver = "cplex".into();
        let report = Service::for_request(&request).handle(&request);
        assert_eq!(report.status, OptimalityStatus::LimitHit);
        assert!(report.schedule.is_none());
        assert_eq!(report.errors.len(), 1);
        assert_eq!(report.errors[0].code, ErrorCode::UnknownSolver);
        assert_eq!(report.solver_key, "cplex");
        assert!(report.error.as_deref().unwrap().contains("memheft"));
        let back = SolveReport::parse(&report.to_json().to_compact()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn minimal_request_document_uses_defaults() {
        let text = r#"{
            "solver": "memminmin",
            "graph": {"tasks": [{"name": "a", "blue": 1, "red": 1}], "edges": []},
            "platform": {"blue_procs": 1, "red_procs": 1, "mem_blue": 5, "mem_red": 5}
        }"#;
        let request = SolveRequest::parse(text).unwrap();
        assert_eq!(request.threads, 1);
        assert_eq!(request.seed, None);
        assert_eq!(request.limits, SolveLimits::default());
        let report = solve(&request).unwrap();
        assert_eq!(report.solver, "MemMinMin");
        assert_eq!(report.valid, Some(true));
        assert!(report.errors.is_empty());
    }

    #[test]
    fn heuristic_and_exact_share_the_code_path() {
        let request = example_request();
        for (key, status) in [
            ("memheft", OptimalityStatus::Heuristic),
            ("bb", OptimalityStatus::Optimal),
            ("milp", OptimalityStatus::Optimal),
        ] {
            let report = solve(&SolveRequest {
                solver: key.into(),
                ..request.clone()
            })
            .unwrap();
            assert_eq!(report.status, status, "{key}");
            assert_eq!(report.solver_key, key);
            assert_eq!(report.valid, Some(true), "{key}");
            assert!(report.validation_errors.is_empty(), "{key}");
            assert!(report.makespan.unwrap() >= 6.0 - 1e-9, "{key}");
            assert!(report.peaks.unwrap().max() <= 5.0 + 1e-9, "{key}");
            assert!(report.wall_time_ms >= 0.0);
            assert_eq!(report.engine_version, env!("CARGO_PKG_VERSION"));
        }
    }

    #[test]
    fn memory_oblivious_solver_validates_against_unbounded_platform() {
        let mut request = example_request();
        request.solver = "heft".into();
        request.platform = Platform::single_pair(1.0, 1.0); // hopeless bounds
        let report = solve(&request).unwrap();
        // HEFT ignores the bounds and its schedule is valid on the
        // unbounded platform it actually targets.
        assert_eq!(report.valid, Some(true));
        assert!(report.peaks.unwrap().max() > 1.0);
    }

    #[test]
    fn infeasible_request_reports_without_schedule() {
        let mut request = example_request();
        request.platform = Platform::single_pair(2.0, 2.0);
        request.solver = "bb".into();
        let report = solve(&request).unwrap();
        assert_eq!(report.status, OptimalityStatus::Infeasible);
        assert!(report.schedule.is_none());
        assert_eq!(report.valid, None);
        // The report still round-trips.
        let back = SolveReport::parse(&report.to_json().to_pretty()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn report_json_roundtrip() {
        let report = solve(&example_request()).unwrap();
        let json = report.to_json();
        let back = SolveReport::from_json(&json).unwrap();
        assert_eq!(back, report);
        // The embedded schedule re-validates independently.
        let request = example_request();
        let verdict = validate(
            &request.graph,
            &request.platform,
            back.schedule.as_ref().unwrap(),
        );
        assert!(verdict.is_valid());
    }

    #[test]
    fn unknown_solver_is_reported_with_known_keys() {
        let mut request = example_request();
        request.solver = "cplex".into();
        let err = solve(&request).unwrap_err();
        assert!(matches!(err, ServiceError::UnknownSolver { .. }));
        assert!(err.to_string().contains("memheft"));
    }

    #[test]
    fn malformed_requests_are_rejected() {
        assert!(SolveRequest::parse("{").is_err());
        assert!(SolveRequest::parse("{}").is_err());
        let no_platform = r#"{"solver": "memheft", "graph": {"tasks": [], "edges": []}}"#;
        let err = SolveRequest::parse(no_platform).unwrap_err();
        assert!(err.to_string().contains("platform"));
    }

    #[test]
    fn absurd_thread_counts_are_named_errors_not_spawn_aborts() {
        let mut request = example_request();
        request.threads = 500_000;
        let err = SolveRequest::from_json(&request.to_json()).unwrap_err();
        assert!(err.to_string().contains("at most"), "{err}");
        // `0` (= all cores) is always allowed and resolves in the pool.
        request.threads = 0;
        let reparsed = SolveRequest::from_json(&request.to_json()).unwrap();
        assert_eq!(reparsed.threads, 0);
        let report = solve(&reparsed).unwrap();
        assert_eq!(report.valid, Some(true));
        assert!(report.threads >= 1); // 0 resolved to the actual core count
    }

    #[test]
    fn portfolio_request_reports_member_breakdown() {
        let mut request = example_request();
        request.solver = "portfolio".into();
        let report = solve(&request).unwrap();
        assert_eq!(report.solver, "Portfolio");
        assert_eq!(report.solver_key, "portfolio");
        assert_eq!(report.status, OptimalityStatus::Heuristic);
        assert_eq!(report.valid, Some(true));
        assert_eq!(report.members.len(), mals_sched::DEFAULT_MEMBERS.len());
        let winner = report
            .winner
            .as_deref()
            .expect("dex at bound 5 is feasible");
        let winning = report.members.iter().find(|m| m.key == winner).unwrap();
        assert_eq!(winning.makespan, report.makespan);
        // The member breakdown and deadline echo survive the JSON round-trip.
        let back = SolveReport::parse(&report.to_json().to_pretty()).unwrap();
        assert_eq!(back, report);

        // A custom member set may mix heuristics and exact backends; the
        // aggregate inherits the winner's status (`bb` first so a makespan
        // tie resolves to the exact proof).
        request.solvers = vec!["bb".into(), "memheft".into()];
        let report = solve(&request).unwrap();
        assert_eq!(report.members.len(), 2);
        assert_eq!(report.status, OptimalityStatus::Optimal);
        assert_eq!(report.makespan, Some(6.0));

        // Unknown member keys are named errors.
        request.solvers = vec!["memheft".into(), "cplex".into()];
        let err = solve(&request).unwrap_err();
        assert!(matches!(err, ServiceError::UnknownSolver { .. }));
    }

    #[test]
    fn expired_deadline_yields_limit_hit_with_coded_error() {
        let mut request = example_request();
        request.solver = "portfolio".into();
        request.deadline_ms = Some(0);
        let report = solve(&request).unwrap();
        assert_eq!(report.status, OptimalityStatus::LimitHit);
        assert!(report.schedule.is_none());
        assert_eq!(report.deadline_ms, Some(0));
        assert!(report.members.iter().all(|m| m.cancelled));
        assert_eq!(report.winner, None);
        assert!(
            report
                .errors
                .iter()
                .any(|e| e.code == ErrorCode::DeadlineExceeded),
            "{:?}",
            report.errors
        );
        let back = SolveReport::parse(&report.to_json().to_compact()).unwrap();
        assert_eq!(back, report);
        // Ordinary solvers honour the deadline through the same field.
        request.solver = "memheft".into();
        let report = solve(&request).unwrap();
        assert_eq!(report.status, OptimalityStatus::LimitHit);
        assert!(report.members.is_empty());
        assert!(report
            .errors
            .iter()
            .any(|e| e.code == ErrorCode::DeadlineExceeded));
    }

    #[test]
    fn admission_stamped_deadline_overrides_the_request_field() {
        let request = example_request();
        let service = Service::for_request(&request);
        // An already-expired admission deadline loses even though the
        // request itself carries none.
        let report = service.handle_at(&request, Some(Deadline::after_millis(0)));
        assert_eq!(report.status, OptimalityStatus::LimitHit);
        assert!(report
            .errors
            .iter()
            .any(|e| e.code == ErrorCode::DeadlineExceeded));
        // No deadline at all solves normally on the same session.
        let report = service.handle_at(&request, None);
        assert_eq!(report.valid, Some(true));
    }

    #[test]
    fn session_reuse_matches_one_shot_solves() {
        let service = Service::new(EngineConfig::sequential());
        let request = example_request();
        let one_shot = Service::once(&request);
        for _ in 0..3 {
            let reused = service.handle(&request);
            assert_eq!(reused.schedule, one_shot.schedule);
            assert_eq!(reused.status, one_shot.status);
        }
    }

    #[test]
    fn handle_window_matches_individual_handles_in_order() {
        let service = Service::new(EngineConfig::sequential());
        let base = example_request();
        let memminmin = SolveRequest {
            solver: "memminmin".into(),
            ..base.clone()
        };
        let unknown = SolveRequest {
            solver: "cplex".into(),
            ..base.clone()
        };
        // A window mixing solvers (with a repeat, exercising the per-window
        // solver cache) and a rejection.
        let window: Vec<PreparedRequest<'_>> = vec![
            (&base, None),
            (&memminmin, None),
            (&base, None),
            (&unknown, None),
        ];
        let reports = service.handle_window(&window);
        assert_eq!(reports.len(), 4);
        assert_eq!(reports[0].schedule, service.handle(&base).schedule);
        assert_eq!(reports[1].schedule, service.handle(&memminmin).schedule);
        assert_eq!(reports[2].schedule, reports[0].schedule);
        assert_eq!(reports[3].errors[0].code, ErrorCode::UnknownSolver);
    }

    #[test]
    fn session_equals_one_shot() {
        let engine = mals_exact::engine(EngineConfig::sequential());
        let request = example_request();
        let one_shot = Service::once(&request);
        let via_session = Service::with_engine(engine).handle(&request);
        assert_eq!(one_shot.schedule, via_session.schedule);
        assert_eq!(one_shot.status, via_session.status);
    }
}
