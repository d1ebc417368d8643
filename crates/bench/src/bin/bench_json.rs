//! CI bench smoke runner: measures a fixed set of scheduling benchmarks and
//! emits a machine-readable baseline (`BENCH_baseline.json`), or compares
//! two such baselines and fails on a median regression.
//!
//! ```text
//! bench_json [--quick] [--out PATH]            # measure and emit JSON
//! bench_json compare BASE NEW [--tolerance N]  # exit 1 on >N% regression
//! ```
//!
//! The measurement loop is deliberately simple (one warm-up run, then a
//! fixed number of timed runs, median reported) — the point is a stable,
//! cheap number CI can diff, not a statistical study; `cargo bench -p
//! mals-bench` remains the place for careful measurements. The emitter
//! writes one bench per line so the comparator can parse its own output
//! without a JSON dependency; hand-edited baselines must keep that shape.

use mals_bench::{
    large_rand_dag, single_pair, small_rand_dag, WITHIN_SCHEDULE_SEED, WITHIN_SCHEDULE_TASKS,
};
use mals_dag::TaskGraph;
use mals_exact::{solver_registry, ExactBackend, MilpBackend, SolveLimits};
use mals_experiments::heft_baseline;
use mals_platform::Platform;
use mals_sched::{Engine, EngineConfig, MemHeft, MemMinMin, Scheduler};
use mals_util::{parallel_map, ParallelConfig};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// One measured benchmark: an id stable across runs and a closure whose
/// wall-clock time is the measurement.
struct Bench {
    id: String,
    run: Box<dyn Fn()>,
    /// Overrides the global minimum sample count — the second-scale scaling
    /// benches take 3 samples instead of 9 so the smoke run stays fast.
    min_samples: Option<usize>,
}

struct Measurement {
    id: String,
    median_ns: u128,
    min_ns: u128,
    max_ns: u128,
    samples: usize,
}

fn scheduler_bench(
    id: impl Into<String>,
    graph: TaskGraph,
    platform: Platform,
    scheduler: impl Scheduler + 'static,
) -> Bench {
    Bench {
        id: id.into(),
        run: Box::new(move || {
            let result = scheduler.schedule(&graph, &platform);
            std::hint::black_box(result.is_ok());
        }),
        min_samples: None,
    }
}

/// A platform bounded at 70% of HEFT's own memory requirement for `graph` —
/// tight enough that the memory-aware logic does real work, loose enough
/// that the heuristics succeed.
fn bounded_single_pair(graph: &TaskGraph) -> Platform {
    let platform = single_pair(0.0);
    let baseline = heft_baseline(graph, &platform);
    let bound = 0.7 * baseline.peaks.max();
    platform.with_memory_bounds(bound, bound)
}

/// The benchmark set. `quick` keeps CI smoke runs in seconds; the full set
/// adds the paper-scale 1000-task within-schedule scaling rows.
fn benches(quick: bool) -> Vec<Bench> {
    let mut set = Vec::new();

    let small = small_rand_dag(60, 42);
    let small_platform = bounded_single_pair(&small);
    set.push(scheduler_bench(
        "memheft/smallrand-60",
        small.clone(),
        small_platform.clone(),
        MemHeft::new(),
    ));
    set.push(scheduler_bench(
        "memminmin/smallrand-60",
        small,
        small_platform,
        MemMinMin::new(),
    ));

    let medium_tasks = if quick { 150 } else { 400 };
    let medium = large_rand_dag(medium_tasks, 0x5CA1E + medium_tasks as u64);
    let medium_platform = bounded_single_pair(&medium);
    for threads in [1usize, 2, 4] {
        set.push(scheduler_bench(
            format!("memminmin/largerand-{medium_tasks}-t{threads}"),
            medium.clone(),
            medium_platform.clone(),
            MemMinMin::with_parallelism(ParallelConfig::with_threads(threads)),
        ));
    }
    set.push(scheduler_bench(
        format!("memheft/largerand-{medium_tasks}-t1"),
        medium.clone(),
        medium_platform.clone(),
        MemHeft::new(),
    ));
    set.push(scheduler_bench(
        format!("memheft/largerand-{medium_tasks}-t4"),
        medium,
        medium_platform,
        MemHeft::with_parallelism(ParallelConfig::with_threads(4)),
    ));

    // The MILP exact backend on a 10-task instance at exactly HEFT's memory
    // requirement (the α = 1 campaign point): the heuristics seed the
    // incumbent and the solver does the full LP-certified optimality proof,
    // guarding the simplex + branch-and-bound stack against latency
    // regressions.
    {
        let exact_graph = small_rand_dag(10, 7);
        let platform = single_pair(0.0);
        let baseline = heft_baseline(&exact_graph, &platform);
        let bound = baseline.peaks.max();
        let exact_platform = platform.with_memory_bounds(bound, bound);
        set.push(Bench {
            id: "exact/milp-smallrand-10".into(),
            run: Box::new(move || {
                let outcome =
                    MilpBackend.solve(&exact_graph, &exact_platform, &SolveLimits::default());
                std::hint::black_box(outcome.nodes());
            }),
            min_samples: None,
        });
    }

    // The engine layer: solving a batch of small DAGs through one persistent
    // `Engine` (pool spawned once, reused by every solve) versus spinning a
    // scheduler + pool up per solve — the amortisation the session object
    // exists for. Both run the same solver on the same DAGs at 2 threads.
    {
        let batch: Vec<TaskGraph> = (0..16).map(|i| small_rand_dag(12, 900 + i)).collect();
        let batch_platform = bounded_single_pair(&batch[0]);
        let engine_batch = batch.clone();
        let engine_platform = batch_platform.clone();
        set.push(Bench {
            id: "engine/batch-solve-16x12-t2".into(),
            run: Box::new(move || {
                let engine =
                    Engine::new(solver_registry(), EngineConfig::default().with_threads(2));
                let outcomes = engine
                    .solve_batch("memminmin", &engine_batch, &engine_platform)
                    .expect("registered solver");
                std::hint::black_box(outcomes.len());
            }),
            min_samples: None,
        });
        set.push(Bench {
            id: "engine/per-solve-16x12-t2".into(),
            run: Box::new(move || {
                for graph in &batch {
                    let scheduler = MemMinMin::with_parallelism(ParallelConfig::with_threads(2));
                    std::hint::black_box(scheduler.schedule(graph, &batch_platform).is_ok());
                }
            }),
            min_samples: None,
        });
    }

    // The portfolio racer (PR 6): all five default heuristic members racing
    // on a 4-thread pool over one medium DAG, winner by best makespan.
    // Guards the race overhead on top of the members themselves — the race
    // should cost about one slowest-member solve, not the sum of all five.
    {
        let race_graph = large_rand_dag(300, 0xACE + 300);
        let race_platform = bounded_single_pair(&race_graph);
        set.push(Bench {
            id: "engine/portfolio-race-300-t4".into(),
            run: Box::new(move || {
                let engine =
                    Engine::new(solver_registry(), EngineConfig::default().with_threads(4));
                let report = engine
                    .solve_portfolio::<&str>(&[], 0, &race_graph, &race_platform, None)
                    .expect("default members are registered");
                std::hint::black_box(report.winner);
            }),
            min_samples: None,
        });
    }

    // The online rolling-horizon engine (PR 9): a 2000-task Poisson arrival
    // trace replayed with re-plan-on-every-arrival MemHEFT at the α = 1
    // bound. The trace is pre-generated (generation is mals-gen's cost, not
    // the replay's); the measurement covers the event loop, the per-arrival
    // rank refresh over the arrived subgraph, and the floored incremental
    // commits — the whole online stack on top of the static machinery.
    {
        use mals_gen::ArrivalProcess;
        use mals_sched::{online, OnlineConfig, OnlineFlavor, ReplanPolicy, SolveCtx};
        let online_graph = large_rand_dag(2_000, 0xD1CE + 2_000);
        let platform = single_pair(0.0);
        let baseline = heft_baseline(&online_graph, &platform);
        let bound = baseline.peaks.max();
        let online_platform = platform.with_memory_bounds(bound, bound);
        let trace = ArrivalProcess::Poisson { rate: 100.0 }.generate(&online_graph, 11);
        set.push(Bench {
            id: "online/replay-2k".into(),
            run: Box::new(move || {
                let outcome = online::replay(
                    &online_graph,
                    &online_platform,
                    &trace,
                    OnlineConfig::new(OnlineFlavor::MemHeft, ReplanPolicy::EveryArrival),
                    &SolveCtx::sequential(),
                )
                .expect("α = 1 replay is feasible");
                std::hint::black_box(outcome.makespan);
            }),
            min_samples: Some(3),
        });
    }

    set.push(Bench {
        id: "pool/parallel_map-10k".into(),
        run: Box::new(|| {
            let items: Vec<u64> = (0..10_000).collect();
            let out = parallel_map(&items, ParallelConfig::with_threads(4), |&x| {
                x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)
            });
            std::hint::black_box(out.len());
        }),
        min_samples: None,
    });

    // The incremental-engine scaling fixture (PR 5): one 10⁴-task daggen
    // instance through MemHEFT at the α = 1 bound (HEFT's own requirement,
    // where MemHEFT is guaranteed feasible). Guards the indexed staircase +
    // ready-set + EST-cache stack: the pre-refactor engine took seconds
    // here, the incremental one takes ~0.2 s.
    {
        let scaling_graph = large_rand_dag(10_000, 0xBEEF + 10_000);
        let platform = single_pair(0.0);
        let baseline = heft_baseline(&scaling_graph, &platform);
        let bound = baseline.peaks.max();
        let scaling_platform = platform.with_memory_bounds(bound, bound);
        set.push(Bench {
            id: "sched/memheft-10k".into(),
            run: Box::new(move || {
                let result = MemHeft::new().schedule(&scaling_graph, &scaling_platform);
                std::hint::black_box(result.is_ok());
            }),
            min_samples: Some(3),
        });
    }

    // The chunked-staircase scaling fixture (PR 8): one 10⁵-task daggen
    // instance through MemHEFT at the α = 1 bound. Guards the chunked
    // breakpoint storage + chunked ready frontier + allocation-free commit
    // path at the scale they exist for — the flat-Vec engine took ~13 s of
    // staircase memmoves here, the chunked one takes ~1.5 s end-to-end.
    {
        let huge_graph = large_rand_dag(100_000, 0xBEEF + 100_000);
        let platform = single_pair(0.0);
        let baseline = heft_baseline(&huge_graph, &platform);
        let bound = baseline.peaks.max();
        let huge_platform = platform.with_memory_bounds(bound, bound);
        set.push(Bench {
            id: "sched/memheft-100k".into(),
            run: Box::new(move || {
                let result = MemHeft::new().schedule(&huge_graph, &huge_platform);
                std::hint::black_box(result.is_ok());
            }),
            min_samples: Some(3),
        });
    }

    // The staircase mutation path in isolation: a deterministic storm of
    // interleaved `add_range` / `add_from` deltas over a profile that grows
    // to thousands of breakpoints — the reserve/release pattern of a commit,
    // without the scheduler around it. Guards the chunked insert/repair
    // (split-on-full, merge-on-sparse, summary patching) directly.
    set.push(Bench {
        id: "staircase/insert-storm".into(),
        run: Box::new(|| {
            use mals_util::Staircase;
            let mut stair = Staircase::constant(1_000_000.0);
            let mut state = 0x1234_5678_9ABC_DEF0u64;
            let mut rng = move || {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                state.wrapping_mul(0x2545_F491_4F6C_DD1D)
            };
            for _ in 0..4_000 {
                let t1 = (rng() % 1_000_000) as f64 / 10.0;
                let len = 1.0 + (rng() % 5_000) as f64 / 10.0;
                let size = 1.0 + (rng() % 100) as f64;
                if rng() % 4 == 0 {
                    // A release tail (the output-reservation shape).
                    stair.add_from(t1, if rng() % 2 == 0 { -size } else { size });
                } else {
                    // A reservation window: two new breakpoints that stay,
                    // so the profile grows to thousands of segments.
                    stair.add_range(t1, t1 + len, -size);
                }
            }
            std::hint::black_box(stair.len());
        }),
        min_samples: None,
    });

    // The streaming campaign harness over 1000 seeds of tiny DAGs: generate
    // from seed, solve at two α points, fold into the constant-memory
    // aggregates, drop. Guards the generator fast path and the fold loop.
    set.push(Bench {
        id: "campaign/stream-1k-seeds".into(),
        run: Box::new(|| {
            use mals_experiments::{run_streaming_campaign, CampaignConfig, CampaignIo};
            let set = mals_gen::SetParams::small_rand().scaled(1000, 8);
            let config = CampaignConfig {
                alphas: vec![0.6, 1.0],
                solvers: vec!["memheft".into()],
                optimal_node_limit: 1,
                parallel: ParallelConfig::sequential(),
            };
            let run =
                run_streaming_campaign(&set, &single_pair(0.0), &config, &CampaignIo::default())
                    .expect("in-memory campaign cannot fail");
            std::hint::black_box(run.dags_done);
        }),
        min_samples: Some(3),
    });

    // The service layer (PR 7): one full sustained-load cycle — an
    // in-process `malsd` on a loopback socket, a closed-loop loadgen over 8
    // concurrent connections, graceful shutdown. The wall time is dominated
    // by request handling (framing, admission, queueing, response fan-out),
    // not the solves themselves, which is exactly the surface this bench
    // guards: a regression here is a service-layer regression.
    {
        use mals_experiments::daemon::{Daemon, DaemonConfig};
        use mals_experiments::loadgen::{run_loadgen, LoadgenConfig};
        set.push(Bench {
            id: "service/daemon-sustained-8x25-120".into(),
            run: Box::new(|| {
                let handle = Daemon::start(DaemonConfig {
                    queue_capacity: 256,
                    batch_max: 8,
                    threads: 2,
                    ..DaemonConfig::default()
                })
                .expect("daemon bind on loopback");
                let report = run_loadgen(&LoadgenConfig {
                    addr: handle.addr().to_string(),
                    connections: 8,
                    requests_per_conn: 25,
                    tasks: 120,
                    mix: 2,
                    ..LoadgenConfig::default()
                })
                .expect("loadgen connect");
                assert!(report.is_clean(), "sustained load dropped responses");
                std::hint::black_box(report.p99_ms);
                handle.shutdown();
                handle.join();
            }),
            min_samples: Some(3),
        });
    }

    // The within-schedule scaling fixture (the tentpole of the parallel
    // engine): quick mode keeps the 1- and 8-thread endpoints so CI still
    // guards the engine, full mode sweeps the whole ladder.
    let huge = large_rand_dag(WITHIN_SCHEDULE_TASKS, WITHIN_SCHEDULE_SEED);
    let huge_platform = bounded_single_pair(&huge);
    let ladder: &[usize] = if quick { &[1, 8] } else { &[1, 2, 4, 8] };
    for &threads in ladder {
        set.push(scheduler_bench(
            format!("memminmin/largerand-{WITHIN_SCHEDULE_TASKS}-t{threads}"),
            huge.clone(),
            huge_platform.clone(),
            MemMinMin::with_parallelism(ParallelConfig::with_threads(threads)),
        ));
    }

    set
}

/// Collects at least `min_samples` timings and keeps sampling until `budget`
/// is spent (capped at 10 000 samples). Sub-millisecond benches are batched
/// so every recorded sample covers at least ~1 ms of work — that amortises
/// timer overhead and scheduler preemption, which otherwise dominate the
/// median of a microsecond-scale measurement.
fn measure(bench: &Bench, min_samples: usize, budget: std::time::Duration) -> Measurement {
    let min_samples = bench.min_samples.unwrap_or(min_samples);
    // Warm-up, and a size probe for the batch count.
    let probe = Instant::now();
    (bench.run)();
    let single_ns = probe.elapsed().as_nanos().max(1);
    let batch = (1_000_000 / single_ns).clamp(1, 1_000) as u32;

    let started = Instant::now();
    let mut times: Vec<u128> = Vec::with_capacity(min_samples);
    while times.len() < min_samples || (started.elapsed() < budget && times.len() < 10_000) {
        let start = Instant::now();
        for _ in 0..batch {
            (bench.run)();
        }
        times.push(start.elapsed().as_nanos() / batch as u128);
    }
    times.sort_unstable();
    Measurement {
        id: bench.id.clone(),
        median_ns: times[times.len() / 2],
        min_ns: times[0],
        max_ns: times[times.len() - 1],
        samples: times.len(),
    }
}

fn git_sha() -> String {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        return sha;
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// ISO-8601 UTC timestamp without a date/time dependency (civil-from-days,
/// H. Hinnant's algorithm).
fn utc_now() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = (secs / 86_400) as i64;
    let rem = secs % 86_400;
    let (h, m, s) = (rem / 3600, (rem / 60) % 60, rem % 60);
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = if month <= 2 { y + 1 } else { y };
    format!("{year:04}-{month:02}-{d:02}T{h:02}:{m:02}:{s:02}Z")
}

/// A coarse machine fingerprint: medians are only comparable between runs
/// on the same kind of machine, so the comparator demotes cross-host gates
/// to advisory.
fn host_fingerprint() -> String {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    format!(
        "{cores}-core {}-{}",
        std::env::consts::OS,
        std::env::consts::ARCH
    )
}

fn emit_json(measurements: &[Measurement], mode: &str) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": 1,\n");
    out.push_str(&format!("  \"git_sha\": \"{}\",\n", git_sha()));
    out.push_str(&format!("  \"date_utc\": \"{}\",\n", utc_now()));
    out.push_str(&format!("  \"host\": \"{}\",\n", host_fingerprint()));
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str("  \"benches\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"id\": \"{}\", \"median_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \"samples\": {} }}{}\n",
            m.id,
            m.median_ns,
            m.min_ns,
            m.max_ns,
            m.samples,
            if i + 1 == measurements.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Extracts `(id, median_ns)` pairs from a baseline written by
/// [`emit_json`]: one bench object per line, `"id"` then `"median_ns"`.
fn parse_baseline(text: &str) -> Vec<(String, u128)> {
    let mut rows = Vec::new();
    for line in text.lines() {
        let Some(id_at) = line.find("\"id\"") else {
            continue;
        };
        let Some(median_at) = line.find("\"median_ns\"") else {
            continue;
        };
        let id = line[id_at + 4..]
            .split('"')
            .nth(1)
            .map(str::to_string)
            .unwrap_or_default();
        let median = line[median_at + 11..]
            .chars()
            .skip_while(|c| !c.is_ascii_digit())
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse::<u128>()
            .ok();
        if let (false, Some(median)) = (id.is_empty(), median) {
            rows.push((id, median));
        }
    }
    rows
}

/// Extracts the `"host"` header field of a baseline, if present.
fn parse_host(text: &str) -> Option<String> {
    text.lines()
        .find(|line| line.contains("\"host\"") && !line.contains("\"id\""))
        .and_then(|line| line.split('"').nth(3))
        .map(str::to_string)
}

fn compare(base_path: &str, new_path: &str, tolerance_pct: f64) -> i32 {
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("bench_json: cannot read {path}: {e}");
            std::process::exit(2);
        })
    };
    let base_text = read(base_path);
    let new_text = read(new_path);
    let base = parse_baseline(&base_text);
    let new = parse_baseline(&new_text);
    if base.is_empty() || new.is_empty() {
        eprintln!(
            "bench_json: empty baseline ({base_path}: {} rows, {new_path}: {} rows)",
            base.len(),
            new.len()
        );
        return 2;
    }
    // Medians from different machines are not comparable: a baseline
    // recorded elsewhere (or with no host stamp) makes the gate advisory
    // until someone re-records it on this kind of machine.
    let base_host = parse_host(&base_text);
    let new_host = parse_host(&new_text);
    let same_host = matches!((&base_host, &new_host), (Some(a), Some(b)) if a == b);

    let mut regressions = 0usize;
    let mut missing = 0usize;
    let mut compared = 0usize;
    println!(
        "{:<40} {:>14} {:>14} {:>9}",
        "bench", "base_ns", "new_ns", "delta"
    );
    for (id, base_ns) in &base {
        let Some((_, new_ns)) = new.iter().find(|(nid, _)| nid == id) else {
            // A bench that disappeared silently weakens the gate: fail and
            // ask for a baseline refresh.
            missing += 1;
            println!("{id:<40} {base_ns:>14} {:>14}  << MISSING", "-");
            continue;
        };
        compared += 1;
        let delta_pct = (*new_ns as f64 - *base_ns as f64) / (*base_ns as f64) * 100.0;
        let flag = if delta_pct > tolerance_pct {
            regressions += 1;
            "  << REGRESSION"
        } else {
            ""
        };
        println!("{id:<40} {base_ns:>14} {new_ns:>14} {delta_pct:>+8.1}%{flag}");
    }
    for (id, _) in &new {
        if !base.iter().any(|(bid, _)| bid == id) {
            println!("{id:<40} {:>14} (new bench, no baseline)", "-");
        }
    }
    if missing > 0 {
        eprintln!(
            "bench_json: {missing} baseline bench(es) missing from the new run — refresh the \
             baseline so the gate keeps its coverage"
        );
        return 1;
    }
    if regressions > 0 {
        if !same_host {
            eprintln!(
                "bench_json: {regressions}/{compared} benches exceed {tolerance_pct}%, but the \
                 baseline was recorded on `{}` and this run on `{}` — cross-machine medians are \
                 not comparable, so this is ADVISORY ONLY (exit 0). Re-record the baseline on \
                 this machine to arm the gate.",
                base_host.as_deref().unwrap_or("unknown"),
                new_host.as_deref().unwrap_or("unknown"),
            );
            return 0;
        }
        eprintln!(
            "bench_json: {regressions}/{compared} benches regressed more than {tolerance_pct}% \
             (median over median); commit with [bench-skip] to bypass, or refresh the baseline \
             if the slowdown is intended"
        );
        1
    } else {
        eprintln!("bench_json: {compared} benches within {tolerance_pct}% of baseline");
        0
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let mut tolerance = 25.0;
        let mut paths = Vec::new();
        let mut iter = args[1..].iter();
        while let Some(arg) = iter.next() {
            if arg == "--tolerance" {
                tolerance = iter.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("bench_json: --tolerance expects a number");
                    std::process::exit(2);
                });
            } else {
                paths.push(arg.clone());
            }
        }
        if paths.len() != 2 {
            eprintln!("usage: bench_json compare BASE NEW [--tolerance PCT]");
            std::process::exit(2);
        }
        std::process::exit(compare(&paths[0], &paths[1], tolerance));
    }

    let mut quick = false;
    let mut out_path: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = iter.next().cloned(),
            "--help" | "-h" => {
                eprintln!(
                    "usage: bench_json [--quick] [--out PATH]\n       \
                     bench_json compare BASE NEW [--tolerance PCT]"
                );
                std::process::exit(2);
            }
            other => {
                eprintln!("bench_json: unknown flag `{other}` (try --help)");
                std::process::exit(2);
            }
        }
    }

    let (min_samples, budget) = if quick {
        (9, std::time::Duration::from_millis(300))
    } else {
        (15, std::time::Duration::from_millis(1000))
    };
    let mode = if quick { "quick" } else { "full" };
    let set = benches(quick);
    // Process-level warm-up: the first second of a fresh process runs
    // measurably slower (frequency ramp-up, cold caches/pager), which would
    // bias whichever benches happen to run first. Spin until the clock has
    // ticked ~1s of busy work before taking any measurement.
    eprintln!("warming up...");
    let warm = Instant::now();
    let mut sink = 0u64;
    while warm.elapsed() < std::time::Duration::from_secs(1) {
        for i in 0..100_000u64 {
            sink = sink.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        std::hint::black_box(sink);
    }
    let mut measurements = Vec::with_capacity(set.len());
    for bench in &set {
        eprintln!("measuring {}...", bench.id);
        measurements.push(measure(bench, min_samples, budget));
    }
    let json = emit_json(&measurements, mode);
    match out_path {
        Some(path) => {
            std::fs::write(&path, &json).unwrap_or_else(|e| {
                eprintln!("bench_json: cannot write {path}: {e}");
                std::process::exit(2);
            });
            eprintln!("wrote {path}");
        }
        None => print!("{json}"),
    }
}
