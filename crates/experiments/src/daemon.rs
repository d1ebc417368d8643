//! `malsd` — the persistent scheduling daemon: the [`Service`] session
//! behind a TCP socket.
//!
//! # Wire protocol (version [`PROTOCOL_VERSION`])
//!
//! Newline-delimited JSON frames (see [`mals_util::frame`]). A client sends
//! a [`SolveRequest`] document with an extra top-level `"id"` field (any
//! JSON scalar, echoed verbatim) and receives exactly one frame back per
//! request, in one of two shapes:
//!
//! * a [`SolveReport`](crate::service::SolveReport) document plus the
//!   echoed `"id"` — the request was
//!   admitted and solved (rejected *solves* are still reports, with the
//!   coded cause in the report's `errors` array);
//! * a reject frame `{"v": 1, "id": ..., "error": {"code": ..., "message":
//!   ...}}` — the request never reached the solver: unparseable or
//!   oversized frame (`bad_request`), queue full or daemon draining
//!   (`queue_full`).
//!
//! Responses to *pipelined* requests on one connection come back in
//! admission order; requests from different connections interleave through
//! the shared queue. Two control frames exist: `{"op": "ping"}` answers
//! `{"op": "pong", "v": 1}` (liveness), and `{"op": "shutdown"}` starts a
//! graceful shutdown (drain queued work, refuse new) — the same path
//! SIGTERM takes in the `malsd` binary.
//!
//! # Architecture
//!
//! ```text
//!                        ┌────────────────────────── malsd ─┐
//!  client ──┐            │  acceptor ──spawns──▶ reader ─┐  │
//!  client ──┼── TCP ───▶ │            (one per connection)│  │
//!  client ──┘            │                 ▼ admission    │  │
//!                        │     [bounded queue ≤ capacity] │  │
//!                        │                 ▼ drain window │  │
//!                        │   solver thread → Service      │  │
//!                        │     └─ responses → per-conn    │  │
//!                        │        writer (shared mutex) ──┼──▶ client
//!                        └─────────────────────────────────┘
//! ```
//!
//! One **acceptor** (non-blocking, polls the shutdown token) spawns one
//! **reader** thread per connection; readers parse frames and *admit*
//! requests into a bounded queue — admission stamps the request's
//! `deadline_ms` into an absolute [`Deadline`], so queueing delay counts
//! against the budget, and a full queue answers `queue_full` immediately
//! instead of blocking (backpressure by rejection, never by hanging). One
//! **solver** thread drains the queue in windows of up to `batch_max` jobs
//! and hands them to [`Service::handle_window`], which builds each distinct
//! solver once per window (cross-request batch formation — the same
//! amortisation `Engine::solve_batch` gives a homogeneous batch) and
//! contains a panicking solve to its own request (an `internal` error
//! report), so the one solver thread survives it. A portfolio request
//! races its members on up to the session's thread budget, so a single
//! solver thread is the correct concurrency: two windows in flight would
//! contend for the same cores.

use crate::service::{
    PreparedRequest, RequestDoc, Service, ServiceError, SolveRequest, PROTOCOL_VERSION,
};
use mals_sched::EngineConfig;
use mals_util::{
    write_frame, CancelToken, Deadline, FrameError, FrameReader, Json, JsonWriter, ParallelConfig,
    DEFAULT_MAX_FRAME_BYTES,
};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long blocking socket reads wait before the reader re-polls the
/// shutdown token (partial frames survive the poll, see [`FrameReader`]).
const READ_POLL: Duration = Duration::from_millis(50);

/// How long the non-blocking acceptor sleeps when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Configuration of a [`Daemon`].
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Listen address (`"127.0.0.1:0"` picks a free port; the bound
    /// address is on the [`DaemonHandle`]).
    pub addr: String,
    /// Bounded queue capacity: requests admitted but not yet solved.
    /// Admission beyond this answers `queue_full` (backpressure).
    pub queue_capacity: usize,
    /// Largest window the solver thread drains per pass; within a window
    /// each distinct solver is built once (cross-request batching).
    pub batch_max: usize,
    /// Thread budget of the session: a portfolio request races its members
    /// on up to this many threads (`0` = all cores). Every other solve is
    /// sequential.
    pub threads: usize,
    /// Frame-size cap per connection; an oversized frame is rejected
    /// without killing the connection.
    pub max_frame_bytes: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            addr: "127.0.0.1:0".into(),
            queue_capacity: 64,
            batch_max: 8,
            threads: 0,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
        }
    }
}

/// One admitted request waiting in the queue.
struct Job {
    /// The client's `"id"`, echoed verbatim in the response frame.
    id: Json,
    request: SolveRequest,
    /// Absolute deadline stamped at admission (from `deadline_ms`).
    deadline: Option<Deadline>,
    /// Writer of the connection the request arrived on.
    writer: Arc<ConnWriter>,
}

/// Serialises response frames onto one connection: readers (rejects) and
/// the solver thread (reports) both write, so the stream sits behind a
/// mutex and every frame is written + flushed whole.
struct ConnWriter {
    stream: Mutex<TcpStream>,
}

impl ConnWriter {
    /// Writes one frame; errors are swallowed (a vanished client must not
    /// take the daemon down — its remaining queued jobs just solve into
    /// the void).
    fn send(&self, payload: &str) {
        if let Ok(mut stream) = self.stream.lock() {
            let _ = write_frame(&mut *stream, payload);
        }
    }
}

/// The bounded admission queue: `try_push` never blocks (backpressure is a
/// structured rejection), `pop_window` blocks until work or shutdown.
struct Queue {
    state: Mutex<QueueState>,
    cond: Condvar,
    capacity: usize,
}

struct QueueState {
    jobs: VecDeque<Job>,
    /// Set at shutdown: refuse new admissions, drain what is queued.
    draining: bool,
}

impl Queue {
    fn new(capacity: usize) -> Self {
        Queue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                draining: false,
            }),
            cond: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Admits a job, or answers *immediately* why it cannot.
    fn try_push(&self, job: Job) -> Result<(), ServiceError> {
        let mut state = self.state.lock().expect("queue poisoned");
        if state.draining {
            return Err(ServiceError::ShuttingDown);
        }
        if state.jobs.len() >= self.capacity {
            return Err(ServiceError::QueueFull {
                capacity: self.capacity,
            });
        }
        state.jobs.push_back(job);
        self.cond.notify_one();
        Ok(())
    }

    /// Blocks until at least one job is queued (returning up to `max` of
    /// them, admission order) or the queue is draining *and* empty
    /// (returning an empty window: time to exit).
    fn pop_window(&self, max: usize) -> Vec<Job> {
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if !state.jobs.is_empty() {
                let take = state.jobs.len().min(max.max(1));
                return state.jobs.drain(..take).collect();
            }
            if state.draining {
                return Vec::new();
            }
            state = self.cond.wait(state).expect("queue poisoned");
        }
    }

    /// Starts the drain: new admissions answer `queue_full`, queued jobs
    /// still solve.
    fn close(&self) {
        self.state.lock().expect("queue poisoned").draining = true;
        self.cond.notify_all();
    }
}

/// State shared by the acceptor, the readers and the solver thread.
struct Shared {
    queue: Queue,
    shutdown: CancelToken,
    max_frame_bytes: usize,
}

impl Shared {
    /// The one graceful-shutdown path: SIGTERM, ctrl-c, the in-band
    /// `{"op": "shutdown"}` frame and [`DaemonHandle::shutdown`] all end
    /// here. Idempotent.
    fn begin_shutdown(&self) {
        self.shutdown.cancel();
        self.queue.close();
    }
}

/// The persistent scheduling daemon. [`Daemon::start`] binds the socket
/// and spawns the acceptor + solver threads; the returned [`DaemonHandle`]
/// owns the shutdown token and the joins.
#[derive(Debug)]
pub struct Daemon;

/// A running daemon: bound address + graceful shutdown + join.
pub struct DaemonHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<Vec<JoinHandle<()>>>>,
    solver: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for DaemonHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DaemonHandle")
            .field("addr", &self.addr)
            .finish()
    }
}

impl Daemon {
    /// Binds `config.addr`, spawns the acceptor and solver threads, and
    /// returns the handle. The daemon serves until
    /// [`DaemonHandle::shutdown`] (or an in-band shutdown frame / the
    /// binary's signal handler) trips the token.
    pub fn start(config: DaemonConfig) -> io::Result<DaemonHandle> {
        let service = Service::new(EngineConfig {
            parallel: ParallelConfig::with_threads(config.threads),
            limits: Default::default(),
        });
        Self::start_with(config, service)
    }

    /// [`Daemon::start`] over a caller-built session (a custom registry,
    /// as in the fault-injection tests); `config.threads` is unused, the
    /// session's engine holds the thread budget.
    pub fn start_with(config: DaemonConfig, service: Service) -> io::Result<DaemonHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            queue: Queue::new(config.queue_capacity),
            shutdown: CancelToken::new(),
            max_frame_bytes: config.max_frame_bytes,
        });

        let solver = {
            let shared = Arc::clone(&shared);
            let batch_max = config.batch_max;
            std::thread::Builder::new()
                .name("malsd-solver".into())
                .spawn(move || solver_loop(&shared, &service, batch_max))?
        };

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("malsd-acceptor".into())
                .spawn(move || acceptor_loop(&shared, listener))?
        };

        Ok(DaemonHandle {
            addr,
            shared,
            acceptor: Some(acceptor),
            solver: Some(solver),
        })
    }
}

impl DaemonHandle {
    /// The bound listen address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Starts a graceful shutdown: stop accepting, refuse new admissions,
    /// drain queued work. Does not wait — call [`DaemonHandle::join`].
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// True once a shutdown (any path) has started.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.is_cancelled()
    }

    /// Waits for the acceptor, every reader, and the solver to exit. Call
    /// after [`DaemonHandle::shutdown`]; joining without it blocks until
    /// some other path (in-band frame, signal) trips the token.
    pub fn join(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            if let Ok(readers) = acceptor.join() {
                for reader in readers {
                    let _ = reader.join();
                }
            }
        }
        if let Some(solver) = self.solver.take() {
            let _ = solver.join();
        }
    }
}

impl Drop for DaemonHandle {
    fn drop(&mut self) {
        // A dropped handle must not leave detached threads serving a dead
        // address (tests create daemons freely).
        self.shared.begin_shutdown();
    }
}

/// Accepts connections until shutdown; returns the reader joins.
fn acceptor_loop(shared: &Arc<Shared>, listener: TcpListener) -> Vec<JoinHandle<()>> {
    let mut readers = Vec::new();
    while !shared.shutdown.is_cancelled() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let shared = Arc::clone(shared);
                if let Ok(reader) = std::thread::Builder::new()
                    .name("malsd-conn".into())
                    .spawn(move || connection_loop(&shared, stream))
                {
                    readers.push(reader);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
    readers
}

/// Reads frames off one connection until EOF, a fatal I/O error, or
/// shutdown. Admission rejections are written here; solve reports are
/// written by the solver thread through the shared [`ConnWriter`].
fn connection_loop(shared: &Arc<Shared>, stream: TcpStream) {
    // Two handles on one socket: the reader polls with a timeout (so it can
    // notice shutdown mid-silence), the writer half lives in `ConnWriter`
    // shared with queued jobs — the socket stays open for responses even
    // after this reader exits.
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_nodelay(true);
    let writer = match stream.try_clone() {
        Ok(clone) => Arc::new(ConnWriter {
            stream: Mutex::new(clone),
        }),
        Err(_) => return,
    };
    let mut reader = FrameReader::with_max_frame(stream, shared.max_frame_bytes);
    loop {
        if shared.shutdown.is_cancelled() {
            return;
        }
        match reader.read_frame() {
            Ok(Some(text)) => handle_frame(shared, &writer, &text),
            Ok(None) => return, // clean EOF
            Err(e) if e.is_retryable() => continue,
            Err(FrameError::Oversized(cap)) => {
                let error = ServiceError::BadRequest(format!(
                    "frame exceeds the {cap}-byte cap; request dropped"
                ));
                writer.send(&reject_frame(&Json::Null, &error).to_compact());
            }
            Err(FrameError::Io(_)) => return,
        }
    }
}

/// Decodes and dispatches one frame: control op, or request admission.
fn handle_frame(shared: &Arc<Shared>, writer: &Arc<ConnWriter>, text: &str) {
    let doc = match RequestDoc::parse(text) {
        Ok(doc) => doc,
        Err(e) => {
            let error = ServiceError::BadRequest(format!("unparseable frame: {e}"));
            writer.send(&reject_frame(&Json::Null, &error).to_compact());
            return;
        }
    };
    if let Some(op) = doc.get("op").and_then(Json::as_str) {
        match op {
            "ping" => writer.send(&control_frame("pong").to_compact()),
            "shutdown" => {
                shared.begin_shutdown();
                writer.send(&control_frame("shutting_down").to_compact());
            }
            other => {
                let error = ServiceError::BadRequest(format!("unknown op `{other}`"));
                writer
                    .send(&reject_frame(doc.get("id").unwrap_or(&Json::Null), &error).to_compact());
            }
        }
        return;
    }
    let id = doc.get("id").cloned().unwrap_or(Json::Null);
    let request = match doc.into_request() {
        Ok(request) => request,
        Err(e) => {
            writer.send(&reject_frame(&id, &e).to_compact());
            return;
        }
    };
    // Admission stamp: the deadline clock starts *now*, so time spent in
    // the queue is charged to the request.
    let deadline = request.deadline_ms.map(Deadline::after_millis);
    let job = Job {
        id: id.clone(),
        request,
        deadline,
        writer: Arc::clone(writer),
    };
    if let Err(e) = shared.queue.try_push(job) {
        writer.send(&reject_frame(&id, &e).to_compact());
    }
}

/// Drains queue windows into [`Service::handle_window`] until shutdown has
/// emptied the queue.
fn solver_loop(shared: &Arc<Shared>, service: &Service, batch_max: usize) {
    loop {
        let window = shared.queue.pop_window(batch_max);
        if window.is_empty() {
            return; // draining and drained
        }
        let prepared: Vec<PreparedRequest<'_>> = window
            .iter()
            .map(|job| (&job.request, job.deadline))
            .collect();
        let reports = service.handle_window(&prepared);
        for (job, report) in window.iter().zip(reports) {
            // The report document with the client's `id` as first member.
            let mut frame = String::new();
            report
                .write_json(&mut JsonWriter::compact(&mut frame), Some(&job.id))
                .expect("writing to a String cannot fail");
            job.writer.send(&frame);
        }
    }
}

/// A reject frame: the request never reached the solver.
pub fn reject_frame(id: &Json, error: &ServiceError) -> Json {
    Json::obj([
        ("v", Json::Num(PROTOCOL_VERSION as f64)),
        ("id", id.clone()),
        (
            "error",
            Json::obj([
                ("code", Json::str(error.code().as_str())),
                ("message", Json::str(error.to_string())),
            ]),
        ),
    ])
}

/// A control-op response frame (`pong`, `shutting_down`).
fn control_frame(op: &str) -> Json {
    Json::obj([
        ("op", Json::str(op)),
        ("v", Json::Num(PROTOCOL_VERSION as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::example_request;

    fn connect(handle: &DaemonHandle) -> (FrameReader<TcpStream>, TcpStream) {
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        let write_half = stream.try_clone().expect("clone");
        (FrameReader::new(stream), write_half)
    }

    fn request_frame(id: u64, request: &SolveRequest) -> String {
        let mut json = request.to_json();
        if let Json::Obj(pairs) = &mut json {
            pairs.insert(0, ("id".to_string(), Json::Num(id as f64)));
        }
        json.to_compact()
    }

    fn small_daemon() -> DaemonHandle {
        Daemon::start(DaemonConfig {
            threads: 1,
            ..DaemonConfig::default()
        })
        .expect("daemon start")
    }

    #[test]
    fn solves_a_request_end_to_end_and_echoes_the_id() {
        let handle = small_daemon();
        let (mut reader, mut write_half) = connect(&handle);
        write_frame(&mut write_half, &request_frame(42, &example_request())).unwrap();
        let response = reader.read_frame().unwrap().expect("a response frame");
        let json = Json::parse(&response).unwrap();
        assert_eq!(json.get("id").and_then(Json::as_u64), Some(42));
        assert_eq!(json.get("valid").and_then(Json::as_bool), Some(true));
        assert!(json.get("error").is_none());
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn ping_pong_and_graceful_inband_shutdown() {
        let handle = small_daemon();
        let (mut reader, mut write_half) = connect(&handle);
        write_frame(&mut write_half, r#"{"op":"ping"}"#).unwrap();
        let pong = Json::parse(&reader.read_frame().unwrap().unwrap()).unwrap();
        assert_eq!(pong.get("op").and_then(Json::as_str), Some("pong"));
        write_frame(&mut write_half, r#"{"op":"shutdown"}"#).unwrap();
        let ack = Json::parse(&reader.read_frame().unwrap().unwrap()).unwrap();
        assert_eq!(ack.get("op").and_then(Json::as_str), Some("shutting_down"));
        assert!(handle.is_shutting_down());
        handle.join();
    }

    #[test]
    fn full_queue_answers_queue_full_instead_of_hanging() {
        // Capacity 1 and a paused solver: park a slow job, then overflow.
        let handle = Daemon::start(DaemonConfig {
            queue_capacity: 1,
            batch_max: 1,
            threads: 1,
            ..DaemonConfig::default()
        })
        .expect("daemon start");
        let (mut reader, mut write_half) = connect(&handle);
        // A slow head job parks the solver thread, then a pipelined burst
        // far beyond capacity arrives while it runs: the daemon must answer
        // every frame (reject or report) immediately, never hang.
        let slow = crate::service::generated_request(3000, 1);
        write_frame(&mut write_half, &request_frame(0, &slow)).unwrap();
        let burst = 12;
        for id in 1..=burst {
            write_frame(&mut write_half, &request_frame(id, &example_request())).unwrap();
        }
        let mut reports = 0usize;
        let mut queue_full = 0usize;
        for _ in 0..=burst {
            let frame = loop {
                match reader.read_frame() {
                    Ok(Some(frame)) => break frame,
                    Ok(None) => panic!("connection closed early"),
                    Err(e) if e.is_retryable() => continue,
                    Err(e) => panic!("read failed: {e}"),
                }
            };
            let json = Json::parse(&frame).unwrap();
            match json.get("error") {
                Some(error) => {
                    assert_eq!(
                        error.get("code").and_then(Json::as_str),
                        Some("queue_full"),
                        "{frame}"
                    );
                    queue_full += 1;
                }
                None => reports += 1,
            }
        }
        assert_eq!(reports + queue_full, burst as usize + 1);
        assert!(reports >= 1, "at least the parked job must solve");
        assert!(queue_full >= 1, "the burst must overflow the 1-slot queue");
        handle.shutdown();
        handle.join();
    }
}
