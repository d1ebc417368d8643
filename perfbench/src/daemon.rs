//! `daemon-300-closed`: a `malsd` child with default flags (pool = all
//! cores) driven by 2 closed-loop connections, each sending the next
//! pre-rendered 300-task MemHEFT request only after the previous reply.
//! Request parsing, the small solve and report emission sit on this path;
//! instance generation and the reference do not (requests are
//! pre-rendered).
//!
//! The client is the benchmark's own, not `loadgen`: it keeps every round
//! trip exactly (the loadgen sketch has 10 ms bins) and writes each frame
//! in one call on a `TCP_NODELAY` socket. `mals_util::write_frame` writes
//! the payload and the newline separately; on a Nagle socket that costs a
//! delayed ACK per request (see README.md).

use crate::measure::{self, median, supported_tail, wait_with_rusage, ChildExit, Outcome};
use crate::trace::{Reduced, Tracer};
use crate::{span_metrics, Ctx};
use mals_experiments::{generated_request, Service, SolveReport, SolveRequest};
use mals_sched::{EngineConfig, Heft, Scheduler};
use mals_sim::validate;
use mals_util::{Json, ParallelConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

const TASKS: usize = 300;
const MIX: usize = 8;
const CONNECTIONS: usize = 2;
/// In-process requests per pass of the traced run.
const IN_PROCESS: usize = 200;

/// The request mix: 8 instances from the workload seed, rendered once.
fn render_mix(seed: u64) -> Vec<(SolveRequest, String)> {
    (0..MIX as u64)
        .map(|i| {
            let request = generated_request(TASKS, seed.wrapping_mul(MIX as u64).wrapping_add(i));
            let body = request.to_json().to_compact();
            (request, body)
        })
        .collect()
}

/// The frame of request `id` for a pre-rendered body, newline included.
fn frame(id: u64, body: &str) -> String {
    format!("{{\"id\":{id},{}\n", &body[1..])
}

/// One client connection: frames go out in one `write_all` each.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("TCP_NODELAY: {e}"))?;
        let reader = stream
            .try_clone()
            .map_err(|e| format!("socket clone: {e}"))?;
        Ok(Client {
            writer: stream,
            reader: BufReader::new(reader),
        })
    }

    /// Sends one newline-terminated frame and reads the reply into `line`.
    fn roundtrip(&mut self, frame: &str, line: &mut String) -> Result<(), String> {
        self.writer
            .write_all(frame.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        line.clear();
        match self.reader.read_line(line) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => Ok(()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// A running `malsd` child. Dropping it kills and reaps the child, so no
/// daemon outlives the run.
struct Malsd {
    child: Child,
    addr: String,
    control: Client,
    _stdout: BufReader<ChildStdout>,
    reaped: bool,
}

impl Malsd {
    /// Spawns `malsd`, reads its address, and waits for `pong`.
    fn start(ctx: &Ctx) -> Result<Malsd, String> {
        let mut child = Command::new(ctx.bin("malsd"))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start malsd: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = stdout.read_line(&mut line).ok().and_then(|_| {
            line.trim()
                .strip_prefix("listening on ")
                .map(str::to_string)
        });
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("malsd did not report its address: {line:?}"));
        };
        let control = match Client::connect(&addr) {
            Ok(control) => control,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        let mut daemon = Malsd {
            child,
            addr,
            control,
            _stdout: stdout,
            reaped: false,
        };
        let mut reply = String::new();
        daemon
            .control
            .roundtrip("{\"op\":\"ping\"}\n", &mut reply)?;
        if !reply.contains("\"pong\"") {
            return Err(format!("ping answered {reply:?}"));
        }
        Ok(daemon)
    }

    /// Graceful shutdown through the in-band frame; returns the daemon's
    /// exit and peak memory.
    fn stop(mut self) -> Result<ChildExit, String> {
        let mut reply = String::new();
        self.control
            .roundtrip("{\"op\":\"shutdown\"}\n", &mut reply)?;
        self.reaped = true;
        let exit = wait_with_rusage(&mut self.child).map_err(|e| format!("wait4: {e}"))?;
        if exit.success {
            Ok(exit)
        } else {
            Err("malsd exited with a failure status".into())
        }
    }
}

impl Drop for Malsd {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One valid reply.
struct Answer {
    /// When the request was sent, in seconds since the trace epoch.
    start: f64,
    rtt: f64,
    /// The report's `wall_time_ms`.
    solve_ms: f64,
    instance: usize,
    makespan: f64,
}

/// What one connection saw during the window.
#[derive(Default)]
struct ConnLog {
    sent: usize,
    answered: Vec<Answer>,
    /// The first full response per instance, for re-validation.
    first_text: Vec<Option<String>>,
    response_bytes: usize,
    failures: Vec<String>,
}

/// Checks a response's top-level fields without parsing its schedule:
/// everything before the `"schedule"` key is parsed as JSON. Returns the
/// makespan and the reported solve time.
fn check_header(text: &str, id: u64) -> Result<(f64, f64), String> {
    let text = text.trim_end();
    let head = match text.find(",\"schedule\":") {
        Some(at) => format!("{}}}", &text[..at]),
        None => text.to_string(),
    };
    let json = Json::parse(&head).map_err(|e| format!("unparseable response: {e}"))?;
    if json.get("id").and_then(Json::as_u64) != Some(id) {
        return Err(format!("response id {:?}, expected {id}", json.get("id")));
    }
    if let Some(error) = json.get("error") {
        return Err(format!("request refused: {error}"));
    }
    if json.get("valid").and_then(Json::as_bool) != Some(true) {
        return Err("response is not `valid: true`".into());
    }
    if json
        .get("errors")
        .and_then(Json::as_arr)
        .is_some_and(|e| !e.is_empty())
    {
        return Err("response carries errors".into());
    }
    let makespan = json
        .get("makespan")
        .and_then(Json::as_f64)
        .ok_or("response has no makespan")?;
    let wall_ms = json
        .get("wall_time_ms")
        .and_then(Json::as_f64)
        .ok_or("response has no wall_time_ms")?;
    Ok((makespan, wall_ms))
}

/// One connection's closed loop until `until`.
fn drive(
    conn: usize,
    client: &mut Client,
    mix: &[(SolveRequest, String)],
    epoch: Instant,
    until: Instant,
) -> ConnLog {
    let mut log = ConnLog {
        first_text: vec![None; MIX],
        ..ConnLog::default()
    };
    let mut makespan_of: Vec<Option<f64>> = vec![None; MIX];
    let mut line = String::new();
    let mut k = 0usize;
    while Instant::now() < until {
        let instance = (conn + k) % MIX;
        let id = conn as u64 * 1_000_000 + k as u64;
        let frame = frame(id, &mix[instance].1);
        k += 1;
        log.sent += 1;
        let sent_at = Instant::now();
        if let Err(e) = client.roundtrip(&frame, &mut line) {
            log.failures.push(format!("request {id}: {e}"));
            break;
        }
        let rtt = sent_at.elapsed().as_secs_f64();
        log.response_bytes += line.len();
        match check_header(&line, id) {
            Ok((makespan, wall_ms)) => {
                if *makespan_of[instance].get_or_insert(makespan) != makespan {
                    log.failures.push(format!(
                        "request {id}: makespan differs from earlier replies"
                    ));
                    continue;
                }
                log.answered.push(Answer {
                    start: sent_at.duration_since(epoch).as_secs_f64(),
                    rtt,
                    solve_ms: wall_ms,
                    instance,
                    makespan,
                });
                if log.first_text[instance].is_none() {
                    log.first_text[instance] = Some(line.clone());
                }
            }
            Err(e) => log.failures.push(format!("request {id}: {e}")),
        }
    }
    log
}

/// The running set-up: mix, daemon, connected clients.
struct Ready {
    mix: Vec<(SolveRequest, String)>,
    daemon: Malsd,
    clients: Vec<Client>,
}

fn set_up(ctx: &Ctx) -> Result<Ready, String> {
    let mix = render_mix(ctx.seed);
    let daemon = Malsd::start(ctx)?;
    let clients = (0..CONNECTIONS)
        .map(|_| Client::connect(&daemon.addr))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Ready {
        mix,
        daemon,
        clients,
    })
}

/// The closed-loop window: both connections for `budget`, then a graceful
/// daemon shutdown.
struct Window {
    logs: Vec<ConnLog>,
    elapsed_s: f64,
    daemon: Result<ChildExit, String>,
    mix: Vec<(SolveRequest, String)>,
}

fn window(ready: Ready, budget: Duration, epoch: Instant) -> Window {
    let Ready {
        mix,
        daemon,
        mut clients,
    } = ready;
    let started = Instant::now();
    let until = started + budget;
    let logs: Vec<ConnLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                let mix = &mix;
                scope.spawn(move || drive(conn, client, mix, epoch, until))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed_s = started.elapsed().as_secs_f64();
    drop(clients);
    Window {
        logs,
        elapsed_s,
        daemon: daemon.stop(),
        mix,
    }
}

/// Output checks outside the window: every connection's failures, and a
/// full parse and re-validation of one response per instance. Returns the
/// `sim.validate` call times (s).
fn check_window(w: &Window, out: &mut Outcome) -> Vec<f64> {
    out.attempted += w.logs.iter().map(|l| l.sent).sum::<usize>();
    for failure in w.logs.iter().flat_map(|l| &l.failures) {
        out.fail(failure.clone());
    }
    if let Err(e) = &w.daemon {
        out.fail(format!("malsd shutdown: {e}"));
    }
    let mut validate_s = Vec::new();
    for (i, (request, _)) in w.mix.iter().enumerate() {
        let Some(text) = w.logs.iter().find_map(|l| l.first_text[i].as_ref()) else {
            continue;
        };
        let checked = SolveReport::parse(text)
            .map_err(|e| format!("response does not parse: {e}"))
            .and_then(|report| {
                let schedule = report.schedule.as_ref().ok_or("response has no schedule")?;
                let started = Instant::now();
                let verdict = validate(&request.graph, &request.platform, schedule);
                validate_s.push(started.elapsed().as_secs_f64());
                if !verdict.is_valid() {
                    return Err("schedule fails re-validation".to_string());
                }
                if report.makespan != Some(schedule.makespan()) {
                    return Err("makespan differs from the schedule's".into());
                }
                Ok(())
            });
        if let Err(e) = checked {
            out.fail(format!("instance {i}: {e}"));
        }
    }
    validate_s
}

fn answers(w: &Window) -> impl Iterator<Item = &Answer> {
    w.logs.iter().flat_map(|l| &l.answered)
}

fn latency_notes(out: &mut Outcome, rtts: &[f64], elapsed_s: f64) {
    let ms: Vec<f64> = rtts.iter().map(|s| s * 1e3).collect();
    out.note(format!(
        "throughput {:.1} valid responses/s over {:.2} s (n={})",
        rtts.len() as f64 / elapsed_s,
        elapsed_s,
        rtts.len()
    ));
    if !ms.is_empty() {
        out.note(format!(
            "latency p50 {:.3} ms (n={})",
            median(&ms),
            ms.len()
        ));
    }
    match supported_tail(&ms) {
        Some((p, value)) => out.note(format!(
            "latency p{p} {value:.3} ms (n={}, >= 10 samples beyond it)",
            ms.len()
        )),
        None => out.note("latency tail: too few samples for any percentile"),
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    if ctx.trace {
        return traced(ctx);
    }
    let mut out = Outcome::default();
    // Set-up three times (the first two daemons are shut down again) and
    // keep the median.
    let mut setup_walls = Vec::new();
    let mut ready = None;
    for rep in 0..3 {
        let started = Instant::now();
        let attempt = set_up(ctx);
        setup_walls.push(started.elapsed().as_secs_f64());
        match attempt {
            Ok(r) if rep == 2 => ready = Some(r),
            Ok(r) => {
                if let Err(e) = r.daemon.stop() {
                    out.fail(format!("malsd shutdown: {e}"));
                }
            }
            Err(e) => {
                out.attempted = 1;
                out.fail(e);
                return out;
            }
        }
    }
    let ready = ready.expect("three set-ups ran");
    let w = window(ready, ctx.budget(), Instant::now());
    check_window(&w, &mut out);
    // The ratio's denominator, outside the window.
    let heft: Vec<f64> = w
        .mix
        .iter()
        .map(|(request, _)| {
            Heft::new()
                .schedule(&request.graph, &request.platform.unbounded())
                .expect("HEFT cannot fail")
                .makespan()
        })
        .collect();

    let rtts: Vec<f64> = answers(&w).map(|a| a.rtt).collect();
    let ratios: Vec<f64> = answers(&w).map(|a| a.makespan / heft[a.instance]).collect();
    out.metric("wall_s", median(&rtts), "s", rtts.len());
    out.metric("setup_s", median(&setup_walls), "s", setup_walls.len());
    out.metric(
        "peak_rss_mb",
        w.daemon.as_ref().map_or(0.0, |e| e.peak_rss_mb),
        "MiB",
        1,
    );
    out.metric(
        "makespan_ratio",
        measure::mean(&ratios),
        "ratio",
        ratios.len(),
    );
    out.metric(
        "success_share",
        rtts.len() as f64 / out.attempted.max(1) as f64,
        "share",
        out.attempted,
    );
    latency_notes(&mut out, &rtts, w.elapsed_s);
    out
}

/// The daemon's per-request work replayed in-process on the same mix:
/// `json.request_parse` (the frame → `SolveRequest`), `service.handle`
/// (with the report's `wall_time_ms` as its `sched.solve` child), then
/// `json.report_tree` (with the echoed id) and `json.report_text`.
/// Returns each reply's makespan per instance.
fn in_process(
    service: &Service,
    frames: &[String],
    tracer: &mut Tracer,
) -> Result<Vec<f64>, String> {
    let mut makespans = vec![0.0; MIX];
    for k in 0..IN_PROCESS {
        let instance = k % MIX;
        tracer.set_request(k as u64 + 1);
        let (id, request) = tracer.span("json.request_parse", |_| {
            let json = Json::parse(&frames[instance]).map_err(|e| e.to_string())?;
            let id = json.get("id").cloned().unwrap_or(Json::Null);
            SolveRequest::from_json(&json)
                .map(|request| (id, request))
                .map_err(|e| e.to_string())
        })?;
        let report = tracer.span("service.handle", |t| {
            let report = service.handle(&request);
            t.synthetic("sched.solve", report.wall_time_ms / 1e3);
            report
        });
        let tree = tracer.span("json.report_tree", |_| {
            let mut json = report.to_json();
            if let Json::Obj(pairs) = &mut json {
                pairs.insert(0, ("id".to_string(), id));
            }
            json
        });
        std::hint::black_box(tracer.span("json.report_text", |_| tree.to_compact()));
        makespans[instance] = report.makespan.ok_or("in-process report has no makespan")?;
    }
    Ok(makespans)
}

/// The closed-loop window with every round trip kept as a `daemon.rtt`
/// span (its `sched.solve` child is the reply's `wall_time_ms`), then an
/// untraced and a traced in-process pass over the same mix. The per-layer
/// split is over the traced pass; `daemon.overhead_ms` is what the round
/// trip adds to it (framing, queue wait behind the other connection,
/// wake-ups).
fn traced(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let ready = match set_up(ctx) {
        Ok(ready) => ready,
        Err(e) => {
            out.attempted = 1;
            out.fail(e);
            return out;
        }
    };
    let epoch = Instant::now();
    let w = window(ready, ctx.budget(), epoch);
    let validate_s = check_window(&w, &mut out);
    let rtts: Vec<f64> = answers(&w).map(|a| a.rtt).collect();
    let mut tracer = Tracer::new(epoch);
    for (k, a) in answers(&w).enumerate() {
        tracer.set_request(k as u64 + 1);
        let span = tracer.record("daemon.rtt", a.start, a.start + a.rtt);
        tracer.synthetic_in(span, "sched.solve", a.solve_ms / 1e3);
    }

    // The in-process passes, on a session like the daemon's.
    let service = Service::new(EngineConfig {
        parallel: ParallelConfig::with_threads(0),
        limits: Default::default(),
    });
    let frames: Vec<String> = w
        .mix
        .iter()
        .enumerate()
        .map(|(i, (_, body))| frame(i as u64, body).trim_end().to_string())
        .collect();
    out.attempted += 2 * IN_PROCESS;
    let started = Instant::now();
    let untraced = in_process(&service, &frames, &mut Tracer::off());
    let untraced_s = started.elapsed().as_secs_f64() / IN_PROCESS as f64;
    let mut local = Tracer::new(epoch);
    let started = Instant::now();
    let traced = in_process(&service, &frames, &mut local);
    let traced_s = started.elapsed().as_secs_f64();
    for result in [&untraced, &traced] {
        match result {
            Ok(makespans) => {
                if let Some(a) = answers(&w).find(|a| makespans[a.instance] != a.makespan) {
                    out.fail(format!(
                        "in-process makespan differs for instance {}",
                        a.instance
                    ));
                }
            }
            Err(e) => out.fail(format!("in-process request: {e}")),
        }
    }

    let reduced = Reduced::of(&local.spans);
    span_metrics(&mut out, &reduced, IN_PROCESS, traced_s, untraced_s);
    let rtt_mean_ms = measure::mean(&rtts) * 1e3;
    let rtt_ms: Vec<f64> = rtts.iter().map(|s| s * 1e3).collect();
    // The same statistic as the untraced run's `wall_s`, in ms: the
    // traced run reports no end-to-end metrics.
    out.metric("daemon.rtt_ms", median(&rtt_ms), "ms", rtt_ms.len());
    out.metric(
        "daemon.rtt_tail_ms",
        supported_tail(&rtt_ms).map_or(0.0, |t| t.1),
        "ms",
        rtt_ms.len(),
    );
    out.metric(
        "daemon.overhead_ms",
        rtt_mean_ms - reduced.covered_s * 1e3 / IN_PROCESS as f64,
        "ms",
        rtt_ms.len(),
    );
    out.metric(
        "daemon.throughput_rps",
        rtts.len() as f64 / w.elapsed_s,
        "1/s",
        rtts.len(),
    );
    out.metric(
        "json.request_bytes",
        measure::mean(&frames.iter().map(|f| f.len() as f64).collect::<Vec<_>>()),
        "bytes",
        MIX,
    );
    let answered = rtts.len();
    out.metric(
        "json.report_bytes",
        w.logs.iter().map(|l| l.response_bytes).sum::<usize>() as f64 / answered.max(1) as f64,
        "bytes",
        answered,
    );
    out.metric(
        "sim.validate_ms",
        measure::mean(&validate_s) * 1e3,
        "ms",
        validate_s.len(),
    );
    out.note(format!(
        "mean round trip {:.3} ms; daemon.rtt_ms is the median round trip, \
         the statistic the untraced run reports as wall_s; per-layer ms are \
         per in-process request; sim.validate_ms is the benchmark's \
         re-validation",
        rtt_mean_ms
    ));
    latency_notes(&mut out, &rtts, w.elapsed_s);
    tracer.absorb(local);
    ctx.write_trace("daemon-300-closed", &tracer, &mut out);
    out
}
