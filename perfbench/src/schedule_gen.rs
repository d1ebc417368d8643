//! `schedule-gen-100k`: one `schedule --gen-tasks 100000` process per
//! request (MemHEFT, 1 thread, α = 1), its compact report written to a
//! file. Instance build, the HEFT/MinMin reference, the 10⁵-task solve and
//! the 62 MB report emission all sit on this path; JSON parsing does not.

use crate::measure::{self, median, median_setup, timed_loop, ChildExit, Outcome};
use crate::trace::{Reduced, Tracer};
use crate::{span_metrics, Ctx};
use mals_experiments::{Reference, Service, SolveReport, SolveRequest};
use mals_gen::{daggen, DaggenParams, WeightRanges};
use mals_platform::Platform;
use mals_sched::{Heft, MinMin, OptimalityStatus, Scheduler};
use mals_sim::{memory_peaks, validate};
use mals_util::Pcg64;
use std::fs::File;
use std::process::{Command, Stdio};
use std::time::Instant;

const TASKS: usize = 100_000;

/// The instance `schedule --gen-tasks` builds from `seed`.
fn instance(seed: u64) -> mals_dag::TaskGraph {
    daggen::generate(
        &DaggenParams::large_rand().with_size(TASKS),
        &WeightRanges::large_rand(),
        &mut Pcg64::new(seed),
    )
}

/// What a correct report is checked against: the α = 1 platform and the
/// memory-oblivious HEFT makespan (the ratio's denominator).
struct Expected {
    platform: Platform,
    heft_makespan: f64,
}

fn expected(graph: &mals_dag::TaskGraph) -> Expected {
    let unbounded = Platform::single_pair(0.0, 0.0).unbounded();
    let heft = Heft::new()
        .schedule(graph, &unbounded)
        .expect("HEFT cannot fail");
    let bound = memory_peaks(graph, &unbounded, &heft).max();
    Expected {
        platform: Platform::single_pair(0.0, 0.0).with_memory_bounds(bound, bound),
        heft_makespan: heft.makespan(),
    }
}

/// Runs one `schedule` process with stdout to `path`.
fn spawn_schedule(ctx: &Ctx, path: &std::path::Path) -> Result<ChildExit, String> {
    let file = File::create(path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    let mut child = Command::new(ctx.bin("schedule"))
        .args(["--gen-tasks", &TASKS.to_string()])
        .args(["--gen-seed", &ctx.seed.to_string(), "--compact"])
        .stdin(Stdio::null())
        .stdout(file)
        .spawn()
        .map_err(|e| format!("cannot start schedule: {e}"))?;
    let exit = measure::wait_with_rusage(&mut child).map_err(|e| format!("wait4: {e}"))?;
    if exit.success {
        Ok(exit)
    } else {
        Err("schedule exited with a failure status".into())
    }
}

/// Re-validates one report against the regenerated instance; returns its
/// makespan and the wall time of the `validate` call in seconds.
fn check_report(
    graph: &mals_dag::TaskGraph,
    expected: &Expected,
    report: &SolveReport,
) -> Result<(f64, f64), String> {
    if report.status != OptimalityStatus::Heuristic || report.valid != Some(true) {
        return Err(format!(
            "report status {} valid {:?}",
            report.status.as_str(),
            report.valid
        ));
    }
    if !report.errors.is_empty() || !report.validation_errors.is_empty() {
        return Err(format!("report carries errors: {:?}", report.errors));
    }
    let schedule = report.schedule.as_ref().ok_or("report has no schedule")?;
    let started = Instant::now();
    let verdict = validate(graph, &expected.platform, schedule);
    let validate_s = started.elapsed().as_secs_f64();
    if !verdict.is_valid() {
        return Err(format!(
            "schedule fails re-validation: {} errors",
            verdict.errors.len()
        ));
    }
    match report.makespan {
        Some(m) if m == schedule.makespan() => Ok((m, validate_s)),
        other => Err(format!("report makespan {other:?} != schedule makespan")),
    }
}

fn read_report(path: &std::path::Path) -> Result<SolveReport, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    SolveReport::parse(&text).map_err(|e| format!("report does not parse: {e}"))
}

pub fn run(ctx: &Ctx) -> Outcome {
    if ctx.trace {
        return traced(ctx);
    }
    let mut out = Outcome::default();
    // The benchmark's own preparation: the instance the reports are
    // checked against.
    let (setup_s, graph) = median_setup(3, || instance(ctx.seed));

    let mut runs: Vec<Result<ChildExit, String>> = Vec::new();
    let walls = timed_loop(ctx.budget(), 1, || {
        let path = ctx.out(&format!("schedule-{}.json", runs.len()));
        let result = spawn_schedule(ctx, &path);
        let keep_going = result.is_ok();
        runs.push(result);
        keep_going
    });

    // Checks, outside the timed window.
    let expected = expected(&graph);
    let mut ratios = Vec::new();
    let mut makespans = Vec::new();
    let mut peaks = Vec::new();
    for (i, run) in runs.iter().enumerate() {
        let path = ctx.out(&format!("schedule-{i}.json"));
        let checked = run.clone().and_then(|exit| {
            let report = read_report(&path)?;
            Ok((exit, check_report(&graph, &expected, &report)?.0))
        });
        let _ = std::fs::remove_file(&path);
        match checked {
            Ok((exit, makespan)) => {
                peaks.push(exit.peak_rss_mb);
                makespans.push(makespan);
                ratios.push(makespan / expected.heft_makespan);
            }
            Err(e) => out.fail(format!("request {i}: {e}")),
        }
    }
    out.attempted = runs.len();
    if makespans.iter().any(|&m| m != makespans[0]) {
        out.fail(format!("makespans differ between runs: {makespans:?}"));
    }

    out.metric("wall_s", median(&walls), "s", walls.len());
    out.metric("setup_s", setup_s, "s", 3);
    out.metric("peak_rss_mb", median(&peaks), "MiB", peaks.len());
    out.metric(
        "makespan_ratio",
        measure::mean(&ratios),
        "ratio",
        ratios.len(),
    );
    out.metric(
        "success_share",
        ratios.len() as f64 / runs.len().max(1) as f64,
        "share",
        runs.len(),
    );
    out
}

/// The calls `heft_reference` makes, one span each (the `sweep` layer).
pub fn traced_reference(
    tracer: &mut Tracer,
    graph: &mals_dag::TaskGraph,
    platform: &Platform,
) -> Reference {
    let unbounded = platform.unbounded();
    let heft = tracer.span("sweep.heft", |_| {
        Heft::new()
            .schedule(graph, &unbounded)
            .expect("HEFT cannot fail")
    });
    let minmin = tracer.span("sweep.minmin", |_| {
        MinMin::new()
            .schedule(graph, &unbounded)
            .expect("MinMin cannot fail")
    });
    Reference {
        heft_makespan: heft.makespan(),
        heft_peaks: tracer.span("sweep.peaks", |_| memory_peaks(graph, &unbounded, &heft)),
        minmin_makespan: minmin.makespan(),
        minmin_peaks: tracer.span("sweep.peaks", |_| memory_peaks(graph, &unbounded, &minmin)),
    }
}

/// One untraced `schedule` process, then the same request in-process with
/// a span around every public call the binary makes, in the binary's
/// order: `generated_request` (daggen, `heft_reference`),
/// `Service::try_handle` (the solve is its reported `wall_time_ms`), then
/// `to_json` and `to_compact`. The process wall the spans do not cover is
/// start-up, the stdout write and exit.
fn traced(ctx: &Ctx) -> Outcome {
    let mut out = Outcome {
        attempted: 2,
        ..Outcome::default()
    };
    let path = ctx.out("schedule-0.json");
    let started = Instant::now();
    let process = spawn_schedule(ctx, &path);
    let untraced_s = started.elapsed().as_secs_f64();

    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    tracer.set_request(1);
    let graph = tracer.span("gen.daggen", |_| instance(ctx.seed));
    let platform = Platform::single_pair(0.0, 0.0);
    let reference = tracer.span("sweep.heft_reference", |t| {
        traced_reference(t, &graph, &platform)
    });
    let bound = reference.heft_peaks.max();
    let mut request =
        SolveRequest::new(graph, platform.with_memory_bounds(bound, bound), "memheft");
    request.seed = Some(ctx.seed);
    let report = tracer.span("service.handle", |t| {
        let report = Service::for_request(&request).try_handle(&request);
        if let Ok(report) = &report {
            t.synthetic("sched.solve", report.wall_time_ms / 1e3);
        }
        report
    });
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            out.fail(format!("in-process request rejected: {e}"));
            return out;
        }
    };
    let tree = tracer.span("json.report_tree", |_| report.to_json());
    let text = tracer.span("json.report_text", |_| tree.to_compact());
    let traced_s = epoch.elapsed().as_secs_f64();
    drop(tree);
    let report_bytes = text.len();
    drop(text);

    // Checks: both reports re-validate, and the process and the in-process
    // path produced the same schedule.
    let expected = Expected {
        platform: request.platform.clone(),
        heft_makespan: reference.heft_makespan,
    };
    let validate_ms = match check_report(&request.graph, &expected, &report) {
        Ok((_, validate_s)) => validate_s * 1e3,
        Err(e) => {
            out.fail(format!("in-process report: {e}"));
            0.0
        }
    };
    let from_process = process.and_then(|exit| {
        let child_report = read_report(&path)?;
        check_report(&request.graph, &expected, &child_report)?;
        if child_report.schedule != report.schedule {
            return Err("process and in-process schedules differ".into());
        }
        Ok(exit)
    });
    let _ = std::fs::remove_file(&path);
    if let Err(e) = &from_process {
        out.fail(format!("schedule process: {e}"));
    }

    span_metrics(
        &mut out,
        &Reduced::of(&tracer.spans),
        1,
        traced_s,
        untraced_s,
    );
    out.metric("sim.validate_ms", validate_ms, "ms", 1);
    out.metric("json.report_bytes", report_bytes as f64, "bytes", 1);
    out.note(format!(
        "schedule process wall {untraced_s:.3} s, peak RSS {:.1} MiB; \
         sim.validate_ms times the benchmark's own validate call on the same \
         schedule (the call service.handle makes on the request path)",
        from_process.map_or(0.0, |e| e.peak_rss_mb)
    ));
    ctx.write_trace("schedule-gen-100k", &tracer, &mut out);
    out
}
