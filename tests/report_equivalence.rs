//! Equivalence guard for the `schedule` process's output.
//!
//! `SolveReport::write_json` streams a report without building its `Json`
//! tree, and `generated_request` sets its `α = 1` bound from the HEFT-only
//! `heft_baseline`. Neither may change a byte or a bit: the streamed text
//! must equal `to_json().to_compact()` / `to_pretty()` on every report
//! shape, and the bound must equal `heft_reference(..).heft_peaks.max()`.

use mals::experiments::service::example_request;
use mals::experiments::{generated_request, heft_reference};
use mals::prelude::*;
use mals::util::JsonWriter;

/// Asserts the streamed report (with and without a leading `id`) is
/// byte-identical to the tree emitter, compact and pretty.
fn assert_streams_like_the_tree(report: &SolveReport, what: &str) {
    let mut with_id = report.to_json();
    let Json::Obj(pairs) = &mut with_id else {
        unreachable!("reports serialise to objects")
    };
    let id = Json::str("req-\"7\"");
    pairs.insert(0, ("id".to_string(), id.clone()));
    for (tree, id) in [(report.to_json(), None), (with_id, Some(&id))] {
        let mut compact = String::new();
        report
            .write_json(&mut JsonWriter::compact(&mut compact), id)
            .unwrap();
        assert_eq!(compact, tree.to_compact(), "{what}: compact");
        let mut pretty = String::new();
        report
            .write_json(&mut JsonWriter::pretty(&mut pretty), id)
            .unwrap();
        assert_eq!(pretty + "\n", tree.to_pretty(), "{what}: pretty");
    }
    for pretty in [false, true] {
        let mut out = Vec::new();
        report.write_to(&mut out, pretty).unwrap();
        let expected = if pretty {
            report.to_json().to_pretty()
        } else {
            report.to_json().to_compact() + "\n"
        };
        assert_eq!(
            String::from_utf8(out).unwrap(),
            expected,
            "{what}: write_to"
        );
    }
}

#[test]
fn streamed_reports_are_byte_identical_to_the_tree() {
    let ordinary = Service::once(&example_request());
    assert!(ordinary.schedule.is_some());
    assert_streams_like_the_tree(&ordinary, "ordinary");

    let rejection = SolveReport::rejection(
        "no-such-solver",
        &ServiceError::BadRequest("bad \"quote\"\n\ttab \u{1} é€🦀".into()),
    );
    assert_streams_like_the_tree(&rejection, "rejection");

    let mut request = example_request();
    request.solver = "portfolio".into();
    request.solvers = vec!["memheft".into(), "memminmin".into()];
    request.seed = Some(u64::MAX);
    request.deadline_ms = Some(60_000);
    let portfolio = Service::once(&request);
    assert!(!portfolio.members.is_empty() && portfolio.winner.is_some());
    assert_streams_like_the_tree(&portfolio, "portfolio");

    let mut invalid = ordinary.clone();
    invalid.valid = Some(false);
    invalid.validation_errors = vec![
        "memory exceeded on red: 6 > 5".into(),
        "\u{0}\u{1f}\\".into(),
    ];
    invalid.errors = vec![CodedError::new(ErrorCode::Internal, "line\nbreak")];
    assert_streams_like_the_tree(&invalid, "validation errors");

    let mut non_finite = ordinary.clone();
    non_finite.makespan = Some(f64::INFINITY);
    non_finite.wall_time_ms = f64::NAN;
    non_finite.peaks = None;
    assert_streams_like_the_tree(&non_finite, "non-finite numbers");

    let mut escaped = ordinary;
    escaped.solver = "Mem\"HEFT\"\r\n".into();
    escaped.engine_version = "\u{7f}\u{2028}".into();
    escaped.error = Some("\\u0000 is not an escape here".into());
    assert_streams_like_the_tree(&escaped, "strings needing escapes");
}

/// `generated_request` pins both bounds at HEFT's own peak; the HEFT-only
/// baseline must give exactly the bound the HEFT + MinMin reference gave.
fn assert_bound_matches_reference(tasks: usize) {
    let request = generated_request(tasks, 1);
    let reference = heft_reference(&request.graph, &request.platform);
    let bound = reference.heft_peaks.max();
    assert_eq!(
        request.platform.mem_blue.to_bits(),
        bound.to_bits(),
        "{tasks} tasks"
    );
    assert_eq!(
        request.platform.mem_red.to_bits(),
        bound.to_bits(),
        "{tasks} tasks"
    );
}

#[test]
fn generated_bounds_match_the_reference_at_300_and_10k_tasks() {
    assert_bound_matches_reference(300);
    assert_bound_matches_reference(10_000);
}

/// Release builds only (CI runs it with `cargo test --release`): debug
/// builds re-check the memory invariants after every commit, which makes
/// the 10⁵-task HEFT and MinMin schedules quadratic (minutes, not seconds).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "quadratic under debug assertions; run with --release"
)]
fn generated_bounds_match_the_reference_at_100k_tasks() {
    assert_bound_matches_reference(100_000);
}
