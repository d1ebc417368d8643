//! The MALS benchmark: four workloads, measured from outside the program.
//!
//! ```text
//! perfbench --bin-dir DIR --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--bin-dir` holds the release `schedule` and `malsd` binaries (`run.sh`
//! builds them and passes it). Each workload makes its inputs from
//! `--seed`, measures for `--seconds`, checks the program's outputs outside
//! the timed window, prints every metric by name with its unit and sample
//! count, and ends with one JSON result line. `--trace 1` runs the
//! separate traced pass instead and reports the per-layer metrics. The exit
//! status is 1 when an output check failed, 2 on bad usage. `--workload
//! all` runs each workload in a child process of its own, so a workload's
//! in-process peak memory is never another workload's.
//!
//! See `README.md` beside this file for why each workload exists and what
//! each metric means.

mod daemon;
mod fig12;
mod measure;
mod replay;
mod schedule_gen;
mod trace;

use mals_util::Json;
use measure::Outcome;
use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;
use trace::{Reduced, Tracer};

/// Settings shared by every workload of one invocation.
#[derive(Debug)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    bin_dir: PathBuf,
    out_dir: PathBuf,
}

impl Ctx {
    /// Path of one of the program's release binaries.
    pub fn bin(&self, name: &str) -> PathBuf {
        self.bin_dir.join(name)
    }

    /// Path of a run output (reports, span files) inside the checkout.
    pub fn out(&self, file: &str) -> PathBuf {
        self.out_dir.join(file)
    }

    pub fn budget(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }

    /// Writes the spans of a traced run to `.bench_out`.
    pub fn write_trace(&self, workload: &str, tracer: &Tracer, out: &mut Outcome) {
        let path = self.out(&format!("trace-{workload}-seed{}.jsonl", self.seed));
        match std::fs::write(&path, tracer.to_jsonl()) {
            Ok(()) => out.note(format!(
                "spans: {} written to {}",
                tracer.spans.len(),
                path.display()
            )),
            Err(e) => out.fail(format!("cannot write {}: {e}", path.display())),
        }
    }
}

type Workload = fn(&Ctx) -> Outcome;

const WORKLOADS: [(&str, Workload); 4] = [
    ("schedule-gen-100k", schedule_gen::run),
    ("daemon-300-closed", daemon::run),
    ("replay-poisson-10k", replay::run),
    ("fig12-paper", fig12::run),
];

/// Every per-layer metric of a traced run, with its unit. A workload that
/// never calls a layer reports 0 for it: "should not move here".
const PER_LAYER: [(&str, &str); 29] = [
    ("gen.daggen_ms", "ms"),
    ("sweep.heft_reference_ms", "ms"),
    ("sweep.heft_ms", "ms"),
    ("sweep.minmin_ms", "ms"),
    ("sweep.peaks_ms", "ms"),
    ("sched.solve_ms", "ms"),
    ("sched.solves", "count"),
    ("sched.infeasible_solves", "count"),
    ("sched.infeasible_ms", "ms"),
    ("service.handle_ms", "ms"),
    ("sim.validate_ms", "ms"),
    ("json.request_parse_ms", "ms"),
    ("json.request_bytes", "bytes"),
    ("json.report_tree_ms", "ms"),
    ("json.report_text_ms", "ms"),
    ("json.report_bytes", "bytes"),
    ("daemon.rtt_ms", "ms"),
    ("daemon.rtt_tail_ms", "ms"),
    ("daemon.overhead_ms", "ms"),
    ("daemon.throughput_rps", "1/s"),
    ("online.replay_ms", "ms"),
    ("online.replan_ms", "ms"),
    ("online.admit_ms", "ms"),
    ("online.replans", "count"),
    ("online.events", "count"),
    ("campaign.dag_ms", "ms"),
    ("trace.coverage", "share"),
    ("trace.overhead_ms", "ms"),
    ("trace.uncovered_ms", "ms"),
];

/// Reports the span-derived per-layer metrics of `reduced` (the spans of
/// `requests` traced requests over `traced_wall_s` seconds), per request.
/// `untraced_wall_s` is one untraced request's wall.
pub fn span_metrics(
    out: &mut Outcome,
    reduced: &Reduced,
    requests: usize,
    traced_wall_s: f64,
    untraced_wall_s: f64,
) {
    let per = 1e3 / requests.max(1) as f64;
    let n = requests;
    for (metric, span) in [
        ("gen.daggen_ms", "gen.daggen"),
        ("sweep.heft_ms", "sweep.heft"),
        ("sweep.minmin_ms", "sweep.minmin"),
        ("sweep.peaks_ms", "sweep.peaks"),
        ("sched.solve_ms", "sched.solve"),
        ("service.handle_ms", "service.handle"),
        ("json.request_parse_ms", "json.request_parse"),
        ("json.report_tree_ms", "json.report_tree"),
        ("json.report_text_ms", "json.report_text"),
        ("online.replan_ms", "online.replan"),
        // The replay call's own time, outside its re-planning passes.
        ("online.admit_ms", "online.replay"),
    ] {
        out.metric(metric, reduced.self_of(span) * per, "ms", n);
    }
    for (metric, span) in [
        ("sweep.heft_reference_ms", "sweep.heft_reference"),
        ("online.replay_ms", "online.replay"),
    ] {
        out.metric(metric, reduced.total_of(span) * per, "ms", n);
    }
    let solves = reduced.count_of("sched.solve");
    out.metric("sched.solves", solves as f64 / n.max(1) as f64, "count", n);
    let per_request_wall = traced_wall_s / n.max(1) as f64;
    out.metric(
        "trace.coverage",
        reduced.covered_s / traced_wall_s.max(f64::MIN_POSITIVE),
        "share",
        n,
    );
    out.metric(
        "trace.overhead_ms",
        (per_request_wall - untraced_wall_s) * 1e3,
        "ms",
        n,
    );
    out.metric(
        "trace.uncovered_ms",
        (untraced_wall_s - reduced.covered_s / n.max(1) as f64) * 1e3,
        "ms",
        n,
    );
    out.note(format!(
        "traced wall {:.3} s over {n} request(s), {:.1}% covered by named spans; top layer: {}",
        traced_wall_s,
        100.0 * reduced.covered_s / traced_wall_s.max(f64::MIN_POSITIVE),
        reduced.top_layer().unwrap_or("-")
    ));
    out.notes.extend(reduced.table(n));
}

fn usage(message: &str) -> ! {
    eprintln!("perfbench: {message}");
    eprintln!(
        "usage: perfbench --bin-dir DIR --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]"
    );
    eprintln!("workloads: {}", WORKLOADS.map(|(name, _)| name).join(", "));
    std::process::exit(2);
}

/// What `--workload` selected.
enum Selection {
    One(&'static str, Workload),
    All,
}

fn parse_args() -> (Selection, Ctx) {
    let mut workload: Option<String> = None;
    let mut ctx = Ctx {
        seed: 1,
        seconds: 10,
        trace: false,
        bin_dir: PathBuf::new(),
        out_dir: PathBuf::from(".bench_out"),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = || {
            iter.next()
                .unwrap_or_else(|| usage(&format!("{arg} expects a value")))
                .clone()
        };
        match arg.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => {
                ctx.seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seed expects an integer"))
            }
            "--seconds" => {
                ctx.seconds = value()
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .unwrap_or_else(|| usage("--seconds expects a positive integer"))
            }
            "--trace" => {
                ctx.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace expects 0 or 1"),
                }
            }
            "--bin-dir" => ctx.bin_dir = PathBuf::from(value()),
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    if ctx.bin_dir.as_os_str().is_empty() {
        usage("--bin-dir is required (run the benchmark through run.sh)");
    }
    let selected = match workload.as_deref() {
        None => usage("--workload is required"),
        Some("all") => Selection::All,
        Some(name) => match WORKLOADS.iter().find(|(key, _)| *key == name) {
            Some(&(key, run)) => Selection::One(key, run),
            None => usage("unknown workload"),
        },
    };
    (selected, ctx)
}

/// The last line of a run: `correct`, `attempted`, `failed` and `metrics`.
fn result_line(outcome: &Outcome) -> String {
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
            )
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(outcome.failures.is_empty())),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failures.len() as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_compact()
}

/// Runs one workload in this process and prints its metrics, notes and
/// result line; returns whether every output check passed.
fn run_one(name: &str, run: Workload, ctx: &Ctx) -> bool {
    println!(
        "# {name}: seed {} seconds {} trace {}",
        ctx.seed, ctx.seconds, ctx.trace as u8
    );
    let mut outcome = run(ctx);
    if ctx.trace {
        for (metric, unit) in PER_LAYER {
            if !outcome.metrics.iter().any(|m| m.name == metric) {
                outcome.metric(metric, 0.0, unit, 0);
            }
        }
    }
    for m in &outcome.metrics {
        println!(
            "{:<26} {:>14.6} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    for line in &outcome.notes {
        println!("{line}");
    }
    println!(
        "checks: {} attempted, {} failed (fail_share {:.4})",
        outcome.attempted,
        outcome.failures.len(),
        outcome.failures.len() as f64 / outcome.attempted.max(1) as f64
    );
    for failure in &outcome.failures {
        println!("FAILED: {failure}");
    }
    println!("{}", result_line(&outcome));
    outcome.failures.is_empty()
}

/// Runs every workload, each in a child process of this binary with the
/// same settings; its output passes straight through. Returns whether
/// every child exited with status 0.
fn run_all(ctx: &Ctx) -> bool {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find its own binary: {e}");
            return false;
        }
    };
    let mut all_correct = true;
    for (name, _) in WORKLOADS {
        let status = Command::new(&exe)
            .arg("--bin-dir")
            .arg(&ctx.bin_dir)
            .args(["--workload", name])
            .args(["--seed", &ctx.seed.to_string()])
            .args(["--seconds", &ctx.seconds.to_string()])
            .args(["--trace", if ctx.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(status) => all_correct &= status.success(),
            Err(e) => {
                eprintln!("perfbench: cannot run workload {name}: {e}");
                all_correct = false;
            }
        }
    }
    all_correct
}

fn main() {
    let (selected, ctx) = parse_args();
    if let Err(e) = std::fs::create_dir_all(&ctx.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.out_dir.display());
        std::process::exit(1);
    }
    let all_correct = match selected {
        Selection::One(name, run) => run_one(name, run, &ctx),
        Selection::All => run_all(&ctx),
    };
    if !all_correct {
        std::process::exit(1);
    }
}
