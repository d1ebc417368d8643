//! Online rolling-horizon replay driver: generates (or loads) an arrival
//! trace for a random DAG, replays it through the event-driven online
//! scheduler, and prints a JSON summary comparing the online schedule
//! against the static baseline.
//!
//! ```text
//! replay --tasks N [--seed S] [--arrival poisson|bursty|at-once]
//!        [--rate R] [--batch B] [--solver memheft|memminmin]
//!        [--policy every-arrival|every-k:K|horizon:W]
//!        [--trace FILE] [--save-trace FILE] [--no-static] [--compact]
//! ```
//!
//! The instance is the same shape as `schedule --gen-tasks`: a
//! LargeRandSet-shaped daggen DAG with both memory bounds pinned at the
//! memory-oblivious HEFT schedule's own peak (the `α = 1` campaign point).
//! `--trace` replays a previously saved trace instead of generating one;
//! `--save-trace` writes the generated trace so a run can be reproduced or
//! replayed under a different policy.
//!
//! The summary includes the static solver's makespan and memory peaks (the
//! clairvoyant baseline that sees the whole DAG at `t = 0`), the online
//! makespan and peaks, and the re-planning cost accounting (`replans`,
//! total / max / mean wall-clock per pass). `"valid"` reports the simulator
//! validation verdict of the online schedule — the CI smoke step greps it.
//!
//! Exit status: 0 on success, 1 when the replay fails (infeasible instance,
//! invalid trace), 2 on bad usage.

use mals_experiments::heft_baseline;
use mals_gen::{daggen, ArrivalProcess, ArrivalTrace, DaggenParams, WeightRanges};
use mals_platform::Platform;
use mals_sched::{
    online, MemHeft, MemMinMin, OnlineConfig, OnlineFlavor, ReplanPolicy, Scheduler, SolveCtx,
};
use mals_sim::{memory_peaks, validate, MemoryPeaks};
use mals_util::{Json, Pcg64};

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("replay: {message}");
    std::process::exit(2);
}

struct Args {
    tasks: usize,
    seed: u64,
    arrival: String,
    rate: f64,
    batch: usize,
    solver: String,
    policy: ReplanPolicy,
    trace: Option<String>,
    save_trace: Option<String>,
    compare_static: bool,
    compact: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        tasks: 1000,
        seed: 1,
        arrival: "poisson".into(),
        rate: 50.0,
        batch: 16,
        solver: "memheft".into(),
        policy: ReplanPolicy::EveryArrival,
        trace: None,
        save_trace: None,
        compare_static: true,
        compact: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = argv.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--tasks" => {
                args.tasks = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| fail("--tasks expects a positive integer"))
            }
            "--seed" => {
                args.seed = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fail("--seed expects an integer"))
            }
            "--arrival" => {
                args.arrival = iter
                    .next()
                    .filter(|v| matches!(v.as_str(), "poisson" | "bursty" | "at-once"))
                    .unwrap_or_else(|| fail("--arrival expects poisson, bursty or at-once"))
                    .clone()
            }
            "--rate" => {
                args.rate = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&r: &f64| r > 0.0 && r.is_finite())
                    .unwrap_or_else(|| fail("--rate expects a positive number"))
            }
            "--batch" => {
                args.batch = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&b| b > 0)
                    .unwrap_or_else(|| fail("--batch expects a positive integer"))
            }
            "--solver" => {
                args.solver = iter
                    .next()
                    .filter(|v| matches!(v.as_str(), "memheft" | "memminmin"))
                    .unwrap_or_else(|| fail("--solver expects memheft or memminmin"))
                    .clone()
            }
            "--policy" => {
                args.policy = iter
                    .next()
                    .and_then(|v| ReplanPolicy::parse(v))
                    .unwrap_or_else(|| {
                        fail("--policy expects every-arrival, every-k:K or horizon:W")
                    })
            }
            "--trace" => {
                args.trace = Some(
                    iter.next()
                        .unwrap_or_else(|| fail("--trace expects a file path"))
                        .clone(),
                )
            }
            "--save-trace" => {
                args.save_trace = Some(
                    iter.next()
                        .unwrap_or_else(|| fail("--save-trace expects a file path"))
                        .clone(),
                )
            }
            "--no-static" => args.compare_static = false,
            "--compact" => args.compact = true,
            "--help" | "-h" => {
                println!(
                    "usage: replay --tasks N [--seed S] [--arrival poisson|bursty|at-once] \
                     [--rate R] [--batch B]\n       [--solver memheft|memminmin] \
                     [--policy every-arrival|every-k:K|horizon:W]\n       \
                     [--trace FILE] [--save-trace FILE] [--no-static] [--compact]"
                );
                std::process::exit(0);
            }
            other => fail(format!("unknown argument `{other}` (try --help)")),
        }
    }
    args
}

fn peaks_json(peaks: &MemoryPeaks) -> Json {
    Json::obj([
        ("blue", Json::Num(peaks.blue)),
        ("red", Json::Num(peaks.red)),
    ])
}

fn main() {
    let args = parse_args();

    // The α = 1 instance: daggen DAG, bounds at HEFT's own memory peak.
    let mut rng = Pcg64::new(args.seed);
    let graph = daggen::generate(
        &DaggenParams::large_rand().with_size(args.tasks),
        &WeightRanges::large_rand(),
        &mut rng,
    );
    let platform = Platform::single_pair(0.0, 0.0);
    let bound = heft_baseline(&graph, &platform).peaks.max();
    let platform = platform.with_memory_bounds(bound, bound);

    let trace = match &args.trace {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
            ArrivalTrace::parse(&text).unwrap_or_else(|e| fail(format!("{path}: {e}")))
        }
        None => {
            let process = match args.arrival.as_str() {
                "poisson" => ArrivalProcess::Poisson { rate: args.rate },
                "bursty" => ArrivalProcess::Bursty {
                    batch: args.batch,
                    rate: args.rate,
                },
                _ => ArrivalProcess::AtOnce,
            };
            process.generate(&graph, args.seed)
        }
    };
    if let Some(path) = &args.save_trace {
        std::fs::write(path, trace.to_json().to_pretty())
            .unwrap_or_else(|e| fail(format!("cannot write {path}: {e}")));
    }

    let flavor = OnlineFlavor::parse(&args.solver).expect("validated by parse_args");
    let config = OnlineConfig::new(flavor, args.policy);
    let wall = std::time::Instant::now();
    let outcome = match online::replay(&graph, &platform, &trace, config, &SolveCtx::sequential()) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("replay: {e}");
            std::process::exit(1);
        }
    };
    let wall = wall.elapsed();

    let report = validate(&graph, &platform, &outcome.schedule);
    let online_peaks = memory_peaks(&graph, &platform, &outcome.schedule);

    let mut fields = vec![
        ("valid".to_string(), Json::Bool(report.is_valid())),
        ("tasks".to_string(), Json::Num(graph.n_tasks() as f64)),
        ("seed".to_string(), Json::Num(args.seed as f64)),
        (
            "arrival".to_string(),
            Json::str(if args.trace.is_some() {
                "trace-file"
            } else {
                &args.arrival
            }),
        ),
        ("solver".to_string(), Json::str(&args.solver)),
        ("policy".to_string(), Json::str(args.policy.key())),
        ("makespan".to_string(), Json::Num(outcome.makespan)),
        ("peaks".to_string(), peaks_json(&online_peaks)),
        ("virtual_end".to_string(), Json::Num(outcome.virtual_end)),
        ("events".to_string(), Json::Num(outcome.events as f64)),
        ("arrivals".to_string(), Json::Num(outcome.arrivals as f64)),
        (
            "completions".to_string(),
            Json::Num(outcome.completions as f64),
        ),
        ("replans".to_string(), Json::Num(outcome.replans as f64)),
        (
            "replan_total_ms".to_string(),
            Json::Num(outcome.replan_total.as_secs_f64() * 1e3),
        ),
        (
            "replan_max_ms".to_string(),
            Json::Num(outcome.replan_max.as_secs_f64() * 1e3),
        ),
        (
            "replan_mean_ms".to_string(),
            Json::Num(outcome.replan_mean_secs() * 1e3),
        ),
        ("wall_ms".to_string(), Json::Num(wall.as_secs_f64() * 1e3)),
    ];

    if args.compare_static {
        let result = match flavor {
            OnlineFlavor::MemHeft => MemHeft::new().schedule(&graph, &platform),
            OnlineFlavor::MemMinMin => MemMinMin::new().schedule(&graph, &platform),
        };
        let schedule = result.expect("static solver feasible at the α = 1 bound");
        let static_peaks = memory_peaks(&graph, &platform, &schedule);
        let static_makespan = schedule.makespan();
        fields.push(("static_makespan".to_string(), Json::Num(static_makespan)));
        fields.push(("static_peaks".to_string(), peaks_json(&static_peaks)));
        fields.push((
            "makespan_ratio".to_string(),
            Json::Num(outcome.makespan / static_makespan),
        ));
    }

    let summary = Json::Obj(std::mem::take(&mut fields));
    if args.compact {
        println!("{}", summary.to_compact());
    } else {
        print!("{}", summary.to_pretty());
    }
    if !report.is_valid() {
        eprintln!(
            "replay: online schedule failed validation: {:?}",
            report.errors
        );
        std::process::exit(1);
    }
}
