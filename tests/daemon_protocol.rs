//! Protocol conformance and multi-client integration tests for the `malsd`
//! daemon: hostile frames must answer structured errors without killing the
//! connection, version negotiation must round-trip, and concurrent clients
//! must each get back exactly their own responses.

use mals::experiments::daemon::{Daemon, DaemonConfig, DaemonHandle};
use mals::experiments::service::example_request;
use mals::prelude::*;
use mals::util::{write_frame, FrameReader};
use std::net::TcpStream;

fn start_daemon(config: DaemonConfig) -> DaemonHandle {
    Daemon::start(config).expect("daemon start")
}

fn connect(handle: &DaemonHandle) -> (FrameReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let write_half = stream.try_clone().expect("clone");
    (FrameReader::new(stream), write_half)
}

/// Reads one frame, retrying through timeouts (the client sockets here are
/// blocking, so retries only absorb interrupted reads).
fn read_one(reader: &mut FrameReader<TcpStream>) -> Json {
    loop {
        match reader.read_frame() {
            Ok(Some(text)) => return Json::parse(&text).expect("response frames are JSON"),
            Ok(None) => panic!("connection closed while a response was due"),
            Err(e) if e.is_retryable() => continue,
            Err(e) => panic!("read failed: {e}"),
        }
    }
}

fn request_frame(id: u64, request: &SolveRequest) -> String {
    let mut json = request.to_json();
    let Json::Obj(pairs) = &mut json else {
        unreachable!("requests serialise to objects")
    };
    pairs.insert(0, ("id".to_string(), Json::Num(id as f64)));
    json.to_compact()
}

fn error_code(response: &Json) -> Option<&str> {
    response.get("error")?.get("code")?.as_str()
}

#[test]
fn deeply_nested_frame_is_rejected_and_the_connection_survives() {
    let handle = start_daemon(DaemonConfig {
        threads: 1,
        ..DaemonConfig::default()
    });
    let (mut reader, mut write_half) = connect(&handle);
    // 10⁵ nested brackets: without the parser's nesting cap this overflows
    // the reader thread's stack and aborts the whole daemon.
    write_frame(&mut write_half, &"[".repeat(100_000)).unwrap();
    let response = read_one(&mut reader);
    assert_eq!(error_code(&response), Some("bad_request"), "{response}");
    write_frame(&mut write_half, r#"{"op":"ping"}"#).unwrap();
    let pong = read_one(&mut reader);
    assert_eq!(pong.get("op").and_then(Json::as_str), Some("pong"));
    handle.shutdown();
    handle.join();
}

#[test]
fn malformed_frames_answer_bad_request_without_killing_the_connection() {
    let handle = start_daemon(DaemonConfig {
        threads: 1,
        ..DaemonConfig::default()
    });
    let (mut reader, mut write_half) = connect(&handle);
    for hostile in [
        "this is not json",
        "{\"unterminated\": ",
        "[1, 2, 3]",                // an array is not a request object
        "{\"solver\": 42}",         // wrong type
        "{}",                       // no solver at all
        "{\"op\": \"no_such_op\"}", // unknown control op
    ] {
        write_frame(&mut write_half, hostile).unwrap();
        let response = read_one(&mut reader);
        assert_eq!(
            error_code(&response),
            Some("bad_request"),
            "for {hostile:?}"
        );
    }
    // The connection survived all of it: a well-formed request still solves.
    write_frame(&mut write_half, &request_frame(7, &example_request())).unwrap();
    let response = read_one(&mut reader);
    assert_eq!(response.get("id").and_then(Json::as_u64), Some(7));
    assert_eq!(response.get("valid").and_then(Json::as_bool), Some(true));
    handle.shutdown();
    handle.join();
}

#[test]
fn oversized_frames_are_rejected_and_the_next_frame_parses() {
    let handle = start_daemon(DaemonConfig {
        threads: 1,
        max_frame_bytes: 4 * 1024,
        ..DaemonConfig::default()
    });
    let (mut reader, mut write_half) = connect(&handle);
    let huge = format!("{{\"pad\": \"{}\"}}", "x".repeat(64 * 1024));
    write_frame(&mut write_half, &huge).unwrap();
    let response = read_one(&mut reader);
    assert_eq!(error_code(&response), Some("bad_request"));
    assert!(
        response
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap()
            .contains("byte"),
        "{response:?}"
    );
    write_frame(&mut write_half, &request_frame(1, &example_request())).unwrap();
    let response = read_one(&mut reader);
    assert_eq!(response.get("id").and_then(Json::as_u64), Some(1));
    assert_eq!(response.get("valid").and_then(Json::as_bool), Some(true));
    handle.shutdown();
    handle.join();
}

#[test]
fn truncated_final_frames_are_dropped_and_the_daemon_survives() {
    let handle = start_daemon(DaemonConfig {
        threads: 1,
        ..DaemonConfig::default()
    });
    {
        let (mut reader, mut write_half) = connect(&handle);
        write_frame(&mut write_half, &request_frame(3, &example_request())).unwrap();
        // A frame cut off mid-document, never terminated: the daemon must
        // not act on it (and must not crash).
        use std::io::Write;
        write_half.write_all(b"{\"solver\": \"memh").unwrap();
        let response = read_one(&mut reader);
        assert_eq!(response.get("id").and_then(Json::as_u64), Some(3));
        write_half.shutdown(std::net::Shutdown::Write).unwrap();
        // No second response: the truncated bytes were dropped at EOF.
        assert!(matches!(reader.read_frame(), Ok(None)), "expected EOF");
    }
    // The daemon still serves fresh connections afterwards.
    let (mut reader, mut write_half) = connect(&handle);
    write_frame(&mut write_half, &request_frame(4, &example_request())).unwrap();
    let response = read_one(&mut reader);
    assert_eq!(response.get("id").and_then(Json::as_u64), Some(4));
    handle.shutdown();
    handle.join();
}

#[test]
fn version_negotiation_round_trips() {
    let handle = start_daemon(DaemonConfig {
        threads: 1,
        ..DaemonConfig::default()
    });
    let (mut reader, mut write_half) = connect(&handle);

    // The canonical encoding declares v1 and the response echoes it.
    let framed = request_frame(10, &example_request());
    assert!(
        framed.contains("\"v\": 1") || framed.contains("\"v\":1"),
        "{framed}"
    );
    write_frame(&mut write_half, &framed).unwrap();
    let response = read_one(&mut reader);
    assert_eq!(
        response.get("v").and_then(Json::as_u64),
        Some(PROTOCOL_VERSION)
    );
    assert_eq!(response.get("valid").and_then(Json::as_bool), Some(true));

    // A pre-versioning document (no "v") is treated as v1.
    let mut json = example_request().to_json();
    if let Json::Obj(pairs) = &mut json {
        pairs.retain(|(k, _)| k != "v");
        pairs.insert(0, ("id".to_string(), Json::Num(11.0)));
    }
    write_frame(&mut write_half, &json.to_compact()).unwrap();
    let response = read_one(&mut reader);
    assert_eq!(response.get("id").and_then(Json::as_u64), Some(11));
    assert_eq!(response.get("valid").and_then(Json::as_bool), Some(true));

    // An unknown version is a structured bad_request, and the connection
    // survives to speak v1 again.
    let mut json = example_request().to_json();
    if let Json::Obj(pairs) = &mut json {
        pairs.retain(|(k, _)| k != "v");
        pairs.insert(0, ("v".to_string(), Json::Num(99.0)));
        pairs.insert(0, ("id".to_string(), Json::Num(12.0)));
    }
    write_frame(&mut write_half, &json.to_compact()).unwrap();
    let response = read_one(&mut reader);
    assert_eq!(response.get("id").and_then(Json::as_u64), Some(12));
    assert_eq!(error_code(&response), Some("bad_request"));
    write_frame(&mut write_half, &request_frame(13, &example_request())).unwrap();
    let response = read_one(&mut reader);
    assert_eq!(response.get("valid").and_then(Json::as_bool), Some(true));
    handle.shutdown();
    handle.join();
}

#[test]
fn eight_concurrent_clients_each_get_their_own_validated_responses() {
    let handle = start_daemon(DaemonConfig {
        queue_capacity: 256,
        threads: 1,
        ..DaemonConfig::default()
    });
    let addr = handle.addr();
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 6;
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            scope.spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                let mut write_half = stream.try_clone().expect("clone");
                let mut reader = FrameReader::new(stream);
                // Alternate solvers so the shared queue interleaves
                // genuinely different work across connections.
                for i in 0..PER_CLIENT {
                    let mut request = example_request();
                    if i % 2 == 1 {
                        request.solver = "memminmin".into();
                    }
                    let id = (client * 1000 + i) as u64;
                    write_frame(&mut write_half, &request_frame(id, &request)).unwrap();
                    let response = read_one(&mut reader);
                    assert_eq!(
                        response.get("id").and_then(Json::as_u64),
                        Some(id),
                        "client {client} got someone else's response"
                    );
                    assert_eq!(
                        response.get("valid").and_then(Json::as_bool),
                        Some(true),
                        "client {client} request {i} did not validate"
                    );
                    // The embedded schedule re-validates independently.
                    let report = SolveReport::from_json(&response).expect("a report frame");
                    let schedule = report.schedule.expect("a schedule");
                    let verdict = validate(&request.graph, &request.platform, &schedule);
                    assert!(verdict.is_valid(), "{:?}", verdict.errors);
                }
            });
        }
    });
    handle.shutdown();
    handle.join();
}

#[test]
fn pipelined_requests_on_one_connection_return_in_order() {
    let handle = start_daemon(DaemonConfig {
        queue_capacity: 64,
        threads: 1,
        ..DaemonConfig::default()
    });
    let (mut reader, mut write_half) = connect(&handle);
    let request = example_request();
    for id in 0..10u64 {
        write_frame(&mut write_half, &request_frame(id, &request)).unwrap();
    }
    for id in 0..10u64 {
        let response = read_one(&mut reader);
        assert_eq!(response.get("id").and_then(Json::as_u64), Some(id));
    }
    handle.shutdown();
    handle.join();
}

#[test]
fn graceful_shutdown_drains_admitted_work_before_closing() {
    let handle = start_daemon(DaemonConfig {
        queue_capacity: 64,
        threads: 1,
        ..DaemonConfig::default()
    });
    let (mut reader, mut write_half) = connect(&handle);
    // Admit a few requests, then ask for shutdown before reading anything.
    for id in 0..4u64 {
        write_frame(&mut write_half, &request_frame(id, &example_request())).unwrap();
    }
    write_frame(&mut write_half, "{\"op\": \"shutdown\"}").unwrap();
    // Every admitted request is answered (reports), plus the shutdown ack;
    // order between the ack and the reports is not guaranteed.
    let mut reports = 0;
    let mut acks = 0;
    for _ in 0..5 {
        let response = read_one(&mut reader);
        if response.get("op").and_then(Json::as_str) == Some("shutting_down") {
            acks += 1;
        } else {
            assert_eq!(response.get("valid").and_then(Json::as_bool), Some(true));
            reports += 1;
        }
    }
    assert_eq!((reports, acks), (4, 1));
    // After the drain the daemon refuses new connections or work.
    assert!(handle.is_shutting_down());
    handle.join();
}
