//! Load generator for the `malsd` daemon, closed- or open-loop.
//!
//! Opens N concurrent connections, each sending a configurable mix of
//! pre-rendered [`SolveRequest`](crate::service::SolveRequest) frames
//! ([`generated_request`] instances). By default each connection waits for
//! the matching response before sending the next (closed loop: offered load
//! adapts to service rate, so the measured latency is the daemon's, not a
//! coordinated-omission artefact). With
//! [`LoadgenConfig::arrival_rate`] set, the run is **open-loop** instead:
//! sends are paced by a Poisson arrival process
//! ([`mals_gen::exponential_gap`], the same draw the online scheduling
//! traces use) regardless of response progress — a reader thread per
//! connection matches responses back to their send instants by id, so the
//! measured latency includes queueing under the offered load. Every
//! response is checked — the `"id"` must match an outstanding request, a
//! report must carry `valid: true` — and per-request latency goes into a
//! [`QuantileSketch`] (p50/p95/p99) plus an [`OnlineStats`] accumulator,
//! merged across connections into one [`LoadgenReport`].
//!
//! The library entry point [`run_loadgen`] backs both the `loadgen` binary
//! (CI daemon-smoke) and the sustained-load entry in `bench_json`.

use crate::service::generated_request;
use mals_gen::exponential_gap;
use mals_util::{write_frame, FrameReader, Json, OnlineStats, Pcg64, QuantileSketch};
use std::collections::HashMap;
use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Latency-sketch grid: 0–60 s in 6000 bins (10 ms resolution — tail
/// quantiles of a local daemon sit well inside this).
const SKETCH_HI_MS: f64 = 60_000.0;
const SKETCH_BINS: usize = 6000;

/// Configuration of a load-generation run.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Daemon address, e.g. `"127.0.0.1:7459"`.
    pub addr: String,
    /// Concurrent connections (each its own OS thread).
    pub connections: usize,
    /// Requests sent per connection (closed loop).
    pub requests_per_conn: usize,
    /// Tasks per generated instance.
    pub tasks: usize,
    /// Distinct instances in the request mix (cycled round-robin; seeds
    /// `seed..seed+mix`).
    pub mix: usize,
    /// Solver key every request names.
    pub solver: String,
    /// Optional per-request deadline (admission-stamped by the daemon).
    pub deadline_ms: Option<u64>,
    /// Base seed of the instance mix.
    pub seed: u64,
    /// Open-loop mode: total offered arrival rate in requests/second,
    /// split evenly across the connections, with exponential (Poisson)
    /// inter-send gaps. `None` keeps the closed loop.
    pub arrival_rate: Option<f64>,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: String::new(),
            connections: 16,
            requests_per_conn: 200,
            tasks: 300,
            mix: 4,
            solver: "memheft".into(),
            deadline_ms: None,
            seed: 1,
            arrival_rate: None,
        }
    }
}

/// Aggregated outcome of a load-generation run.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Requests sent across all connections.
    pub sent: usize,
    /// Responses that were valid solve reports with the right id.
    pub ok: usize,
    /// Structured rejections (reject frames, or reports with a non-empty
    /// `errors` array — e.g. `deadline_exceeded`).
    pub rejected: usize,
    /// Responses whose `"id"` did not match the outstanding request, or
    /// reports that failed validation.
    pub mismatched: usize,
    /// Requests lost to I/O errors / early connection close.
    pub io_errors: usize,
    /// Median request latency in milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile latency.
    pub p95_ms: f64,
    /// 99th-percentile latency.
    pub p99_ms: f64,
    /// Mean latency.
    pub mean_ms: f64,
    /// Worst observed latency.
    pub max_ms: f64,
    /// Wall time of the whole run.
    pub wall_time_ms: f64,
    /// Completed responses per second over the run.
    pub throughput_rps: f64,
}

impl LoadgenReport {
    /// `true` when every sent request came back as a valid, id-matched
    /// response (the CI smoke's pass condition).
    pub fn is_clean(&self) -> bool {
        self.mismatched == 0 && self.io_errors == 0 && self.ok == self.sent
    }

    /// Serialises the report (the CI artifact / bench payload).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("sent", Json::Num(self.sent as f64)),
            ("ok", Json::Num(self.ok as f64)),
            ("rejected", Json::Num(self.rejected as f64)),
            ("mismatched", Json::Num(self.mismatched as f64)),
            ("io_errors", Json::Num(self.io_errors as f64)),
            ("p50_ms", Json::Num(self.p50_ms)),
            ("p95_ms", Json::Num(self.p95_ms)),
            ("p99_ms", Json::Num(self.p99_ms)),
            ("mean_ms", Json::Num(self.mean_ms)),
            ("max_ms", Json::Num(self.max_ms)),
            ("wall_time_ms", Json::Num(self.wall_time_ms)),
            ("throughput_rps", Json::Num(self.throughput_rps)),
        ])
    }
}

/// Per-connection tallies, merged after the join.
struct ConnResult {
    sent: usize,
    ok: usize,
    rejected: usize,
    mismatched: usize,
    io_errors: usize,
    sketch: QuantileSketch,
    stats: OnlineStats,
}

/// Runs the closed-loop load generation against a running daemon.
///
/// The request mix is pre-rendered once (graph generation and JSON
/// encoding off the timed path); each connection splices a unique `"id"`
/// into the frame per send. Returns an error only when a connection cannot
/// be *established*; mid-run I/O failures are counted per-request in
/// [`LoadgenReport::io_errors`].
pub fn run_loadgen(config: &LoadgenConfig) -> io::Result<LoadgenReport> {
    // Pre-render the mix: `{"v":1,...}` → the per-request frame is
    // `{"id":N,` + the body without its opening brace.
    let mix = config.mix.max(1);
    let bodies: Vec<String> = (0..mix)
        .map(|i| {
            let mut request = generated_request(config.tasks, config.seed + i as u64);
            request.solver = config.solver.clone();
            request.deadline_ms = config.deadline_ms;
            request.to_json().to_compact()
        })
        .collect();

    // Every connection must be connected before any starts sending, so the
    // run measures concurrent load, not a connect ramp. Nagle is off: a
    // request must leave as soon as it is written, not wait for the ACK of
    // the previous one.
    let streams: Vec<TcpStream> = (0..config.connections.max(1))
        .map(|_| {
            let stream = TcpStream::connect(&config.addr)?;
            stream.set_nodelay(true)?;
            Ok(stream)
        })
        .collect::<io::Result<_>>()?;

    // Open loop: the aggregate offered rate splits evenly over connections.
    let per_conn_rate = config
        .arrival_rate
        .map(|rate| rate / streams.len() as f64)
        .filter(|&r| r > 0.0 && r.is_finite());

    let started = Instant::now();
    let results: Vec<ConnResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(conn, stream)| {
                let bodies = &bodies;
                let per_conn = config.requests_per_conn;
                let seed = config.seed;
                scope.spawn(move || match per_conn_rate {
                    Some(rate) => connection_run_open(conn, stream, bodies, per_conn, rate, seed),
                    None => connection_run(conn, stream, bodies, per_conn),
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen connection thread panicked"))
            .collect()
    });
    let wall_time_ms = started.elapsed().as_secs_f64() * 1e3;

    let mut sketch = QuantileSketch::new(0.0, SKETCH_HI_MS, SKETCH_BINS);
    let mut stats = OnlineStats::new();
    let (mut sent, mut ok, mut rejected, mut mismatched, mut io_errors) = (0, 0, 0, 0, 0);
    for r in &results {
        sent += r.sent;
        ok += r.ok;
        rejected += r.rejected;
        mismatched += r.mismatched;
        io_errors += r.io_errors;
        sketch.merge(&r.sketch);
        stats.merge(&r.stats);
    }
    let answered = (ok + rejected) as f64;
    Ok(LoadgenReport {
        sent,
        ok,
        rejected,
        mismatched,
        io_errors,
        p50_ms: sketch.quantile(0.50).unwrap_or(0.0),
        p95_ms: sketch.quantile(0.95).unwrap_or(0.0),
        p99_ms: sketch.quantile(0.99).unwrap_or(0.0),
        mean_ms: if stats.count() > 0 { stats.mean() } else { 0.0 },
        max_ms: if stats.count() > 0 { stats.max() } else { 0.0 },
        wall_time_ms,
        throughput_rps: if wall_time_ms > 0.0 {
            answered / (wall_time_ms / 1e3)
        } else {
            0.0
        },
    })
}

/// One connection's closed loop: send a frame, wait for its response,
/// record, repeat.
fn connection_run(
    conn: usize,
    stream: TcpStream,
    bodies: &[String],
    requests: usize,
) -> ConnResult {
    let mut result = ConnResult {
        sent: 0,
        ok: 0,
        rejected: 0,
        mismatched: 0,
        io_errors: 0,
        sketch: QuantileSketch::new(0.0, SKETCH_HI_MS, SKETCH_BINS),
        stats: OnlineStats::new(),
    };
    let write_half = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => {
            result.io_errors = requests;
            result.sent = requests;
            return result;
        }
    };
    let mut write_half = write_half;
    let mut reader = FrameReader::new(stream);
    for i in 0..requests {
        // Ids are unique across the whole run so a cross-connection mixup
        // cannot alias back to a correct-looking id.
        let id = (conn as u64) * 1_000_000 + i as u64;
        let body = &bodies[i % bodies.len()];
        let frame = format!("{{\"id\":{id},{}", &body[1..]);
        result.sent += 1;
        let sent_at = Instant::now();
        if write_frame(&mut write_half, &frame).is_err() {
            result.io_errors += 1;
            break;
        }
        let response = loop {
            match reader.read_frame() {
                Ok(Some(text)) => break Some(text),
                Ok(None) => break None,
                Err(e) if e.is_retryable() => continue,
                Err(_) => break None,
            }
        };
        let Some(response) = response else {
            result.io_errors += 1;
            break;
        };
        let latency_ms = sent_at.elapsed().as_secs_f64() * 1e3;
        result.sketch.push(latency_ms);
        result.stats.push(latency_ms);
        match Json::parse(&response) {
            Ok(json) => {
                if json.get("id").and_then(Json::as_u64) != Some(id) {
                    result.mismatched += 1;
                } else if json.get("error").is_some() {
                    result.rejected += 1;
                } else if json.get("valid").and_then(Json::as_bool) == Some(true)
                    && json
                        .get("errors")
                        .and_then(Json::as_arr)
                        .is_none_or(|errs| errs.is_empty())
                {
                    result.ok += 1;
                } else if json
                    .get("errors")
                    .and_then(Json::as_arr)
                    .is_some_and(|errs| !errs.is_empty())
                {
                    // An admitted request that fell short (e.g. deadline
                    // exceeded) is a structured rejection, not a mismatch.
                    result.rejected += 1;
                } else {
                    result.mismatched += 1;
                }
            }
            Err(_) => result.mismatched += 1,
        }
    }
    result
}

/// Classifies one parsed response against the send-instant map: latency is
/// measured from the id's recorded send time; an unknown id is a mismatch.
fn tally_response(result: &mut ConnResult, sent_at: &Mutex<HashMap<u64, Instant>>, text: &str) {
    let Ok(json) = Json::parse(text) else {
        result.mismatched += 1;
        return;
    };
    let instant = json
        .get("id")
        .and_then(Json::as_u64)
        .and_then(|id| sent_at.lock().expect("sent-at map poisoned").remove(&id));
    let Some(instant) = instant else {
        result.mismatched += 1;
        return;
    };
    let latency_ms = instant.elapsed().as_secs_f64() * 1e3;
    result.sketch.push(latency_ms);
    result.stats.push(latency_ms);
    if json.get("error").is_some() {
        result.rejected += 1;
    } else if json.get("valid").and_then(Json::as_bool) == Some(true)
        && json
            .get("errors")
            .and_then(Json::as_arr)
            .is_none_or(|errs| errs.is_empty())
    {
        result.ok += 1;
    } else if json
        .get("errors")
        .and_then(Json::as_arr)
        .is_some_and(|errs| !errs.is_empty())
    {
        result.rejected += 1;
    } else {
        result.mismatched += 1;
    }
}

/// Sentinel in the shared send counter while the sender is still running.
const SENDING: usize = usize::MAX;

/// Reader poll interval; also bounds how fast the post-send idle cap ticks.
const OPEN_LOOP_POLL: Duration = Duration::from_millis(100);

/// Consecutive empty polls after the sender finished before the reader
/// declares the remaining responses lost (600 × 100 ms = 60 s of silence).
const OPEN_LOOP_IDLE_CAP: u32 = 600;

/// One connection's open loop: a Poisson-paced sender and a reader thread
/// matching responses back by id. Unanswered requests (daemon overload,
/// early close) are counted as I/O errors after an idle timeout rather than
/// hanging the run.
fn connection_run_open(
    conn: usize,
    stream: TcpStream,
    bodies: &[String],
    requests: usize,
    rate: f64,
    seed: u64,
) -> ConnResult {
    let mut result = ConnResult {
        sent: 0,
        ok: 0,
        rejected: 0,
        mismatched: 0,
        io_errors: 0,
        sketch: QuantileSketch::new(0.0, SKETCH_HI_MS, SKETCH_BINS),
        stats: OnlineStats::new(),
    };
    let Ok(mut write_half) = stream.try_clone() else {
        result.io_errors = requests;
        result.sent = requests;
        return result;
    };
    // The reader needs to wake up to observe sender completion.
    if stream.set_read_timeout(Some(OPEN_LOOP_POLL)).is_err() {
        result.io_errors = requests;
        result.sent = requests;
        return result;
    }
    let sent_at: Mutex<HashMap<u64, Instant>> = Mutex::new(HashMap::new());
    // Successful writes, i.e. how many responses the reader should expect;
    // `SENDING` until the sender finishes.
    let expected = AtomicUsize::new(SENDING);

    let (reader_result, sender) = std::thread::scope(|scope| {
        let sent_at = &sent_at;
        let expected = &expected;
        let reader = scope.spawn(move || {
            let mut part = ConnResult {
                sent: 0,
                ok: 0,
                rejected: 0,
                mismatched: 0,
                io_errors: 0,
                sketch: QuantileSketch::new(0.0, SKETCH_HI_MS, SKETCH_BINS),
                stats: OnlineStats::new(),
            };
            let mut reader = FrameReader::new(stream);
            let mut answered = 0usize;
            let mut idle = 0u32;
            loop {
                let target = expected.load(Ordering::Acquire);
                if target != SENDING && answered >= target {
                    break;
                }
                match reader.read_frame() {
                    Ok(Some(text)) => {
                        tally_response(&mut part, sent_at, &text);
                        answered += 1;
                        idle = 0;
                    }
                    Ok(None) => break,
                    Err(e) if e.is_retryable() => {
                        if target != SENDING {
                            idle += 1;
                            if idle >= OPEN_LOOP_IDLE_CAP {
                                break;
                            }
                        }
                    }
                    Err(_) => break,
                }
            }
            let target = expected.load(Ordering::Acquire);
            if target != SENDING {
                part.io_errors += target.saturating_sub(answered);
            }
            part
        });

        // Sender (this thread): Poisson-paced sends, ids recorded before the
        // write so the reader can never see a response before its instant.
        let mut rng = Pcg64::new(seed ^ (conn as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut sender = ConnResult {
            sent: 0,
            ok: 0,
            rejected: 0,
            mismatched: 0,
            io_errors: 0,
            sketch: QuantileSketch::new(0.0, SKETCH_HI_MS, SKETCH_BINS),
            stats: OnlineStats::new(),
        };
        let mut written = 0usize;
        for i in 0..requests {
            let gap = exponential_gap(&mut rng, rate);
            std::thread::sleep(Duration::from_secs_f64(gap));
            let id = (conn as u64) * 1_000_000 + i as u64;
            let body = &bodies[i % bodies.len()];
            let frame = format!("{{\"id\":{id},{}", &body[1..]);
            sender.sent += 1;
            sent_at
                .lock()
                .expect("sent-at map poisoned")
                .insert(id, Instant::now());
            if write_frame(&mut write_half, &frame).is_err() {
                sender.io_errors += 1;
                break;
            }
            written += 1;
        }
        expected.store(written, Ordering::Release);
        let reader_result = reader.join().expect("open-loop reader thread panicked");
        (reader_result, sender)
    });

    result.sent = sender.sent;
    result.io_errors = sender.io_errors + reader_result.io_errors;
    result.ok = reader_result.ok;
    result.rejected = reader_result.rejected;
    result.mismatched = reader_result.mismatched;
    result.sketch.merge(&reader_result.sketch);
    result.stats.merge(&reader_result.stats);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::{Daemon, DaemonConfig};

    #[test]
    fn loadgen_against_an_in_process_daemon_is_clean() {
        let handle = Daemon::start(DaemonConfig {
            queue_capacity: 256,
            threads: 1,
            ..DaemonConfig::default()
        })
        .expect("daemon start");
        let report = run_loadgen(&LoadgenConfig {
            addr: handle.addr().to_string(),
            connections: 4,
            requests_per_conn: 5,
            tasks: 60,
            mix: 2,
            ..LoadgenConfig::default()
        })
        .expect("loadgen run");
        assert_eq!(report.sent, 20);
        assert!(report.is_clean(), "{:?}", report);
        assert!(report.p50_ms <= report.p99_ms);
        assert!(report.throughput_rps > 0.0);
        let json = report.to_json();
        assert_eq!(json.get("ok").and_then(Json::as_u64), Some(20));
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn open_loop_loadgen_answers_every_request() {
        let handle = Daemon::start(DaemonConfig {
            queue_capacity: 256,
            threads: 1,
            ..DaemonConfig::default()
        })
        .expect("daemon start");
        let report = run_loadgen(&LoadgenConfig {
            addr: handle.addr().to_string(),
            connections: 2,
            requests_per_conn: 5,
            tasks: 60,
            mix: 2,
            // Fast enough that the test spends ~50 ms sleeping, slow enough
            // to exercise genuinely interleaved sends and reads.
            arrival_rate: Some(200.0),
            ..LoadgenConfig::default()
        })
        .expect("open-loop loadgen run");
        assert_eq!(report.sent, 10);
        assert!(report.is_clean(), "{:?}", report);
        assert!(report.p50_ms <= report.p99_ms);
        handle.shutdown();
        handle.join();
    }
}
