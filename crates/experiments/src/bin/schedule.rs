//! The embeddable scheduling endpoint: reads a JSON `SolveRequest` from a
//! file (or stdin with `-`), solves it through the unified solver registry,
//! and prints the JSON `SolveReport` on stdout.
//!
//! ```text
//! schedule REQUEST.json [--solver NAME] [--online] [--threads N] [--seed N] [--compact]
//! schedule -                      # read the request from stdin
//! schedule --gen-tasks N [--gen-seed S] [--solver NAME] ...
//!                                 # solve a generated daggen instance
//! schedule ... --solver portfolio [--solvers a,b,c] [--deadline-ms N]
//!                                 # race a solver portfolio (anytime)
//! schedule --print-request        # emit a ready-to-edit example request
//! schedule --list-solvers         # list the registry keys
//! ```
//!
//! `--gen-tasks` builds a LargeRandSet-shaped random DAG of `N` tasks
//! in-process (no request file needed) with both memory bounds pinned at the
//! memory-oblivious HEFT schedule's own requirement — the `α = 1` campaign
//! point, where MemHEFT is guaranteed feasible. This is the CI large-DAG
//! smoke path: one 10⁴-task instance through any registered solver.
//!
//! The flags override the corresponding request fields, so one request file
//! can be replayed against every registered solver:
//!
//! ```text
//! schedule --print-request > request.json
//! schedule request.json --solver memheft
//! schedule request.json --solver milp
//! ```
//!
//! Exit status: 0 on success (including infeasible instances — that is a
//! valid answer), 2 on a bad request / unknown solver / I/O failure.

use mals_exact::solver_registry;
use mals_experiments::service::{example_request, generated_request, Service, SolveRequest};
use std::io::Read;

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("schedule: {message}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path: Option<String> = None;
    let mut solver: Option<String> = None;
    let mut threads: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut gen_tasks: Option<usize> = None;
    let mut gen_seed: Option<u64> = None;
    let mut solvers: Option<Vec<String>> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut online = false;
    let mut compact = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--print-request" => {
                print!("{}", example_request().to_json().to_pretty());
                return;
            }
            "--list-solvers" => {
                for entry in solver_registry().entries() {
                    println!("{:<16} {}", entry.info.key, entry.info.summary);
                }
                return;
            }
            "--solver" => {
                solver = Some(
                    iter.next()
                        .unwrap_or_else(|| fail("--solver expects a registry key"))
                        .clone(),
                )
            }
            "--threads" => {
                threads = Some(
                    iter.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| fail("--threads expects an integer")),
                )
            }
            "--seed" => {
                seed = Some(
                    iter.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| fail("--seed expects an integer")),
                )
            }
            "--gen-tasks" => {
                gen_tasks = Some(
                    iter.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n > 0)
                        .unwrap_or_else(|| fail("--gen-tasks expects a positive integer")),
                )
            }
            "--gen-seed" => {
                gen_seed = Some(
                    iter.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| fail("--gen-seed expects an integer")),
                )
            }
            "--solvers" => {
                solvers = Some(
                    iter.next()
                        .map(|v| {
                            v.split(',')
                                .map(str::trim)
                                .filter(|s| !s.is_empty())
                                .map(str::to_string)
                                .collect::<Vec<_>>()
                        })
                        .filter(|keys| !keys.is_empty())
                        .unwrap_or_else(|| {
                            fail("--solvers expects a comma-separated list of registry keys")
                        }),
                )
            }
            "--deadline-ms" => {
                deadline_ms = Some(
                    iter.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| fail("--deadline-ms expects an integer")),
                )
            }
            "--online" => online = true,
            "--compact" => compact = true,
            "--help" | "-h" => {
                // Requested help is a success, unlike the exit-2 error path.
                println!(
                    "usage: schedule REQUEST.json|- [--solver NAME] [--online] [--threads N] \
                     [--seed N] [--solvers a,b,c] [--deadline-ms N] [--compact]\n       schedule \
                     --gen-tasks N [--gen-seed S] [--solver NAME] ...\n       schedule \
                     --print-request | --list-solvers"
                );
                return;
            }
            other if path.is_none() && !other.starts_with("--") => path = Some(other.to_string()),
            other => fail(format!("unknown argument `{other}` (try --help)")),
        }
    }

    let mut request = if let Some(tasks) = gen_tasks {
        if path.is_some() {
            fail("--gen-tasks replaces the request file; pass one or the other");
        }
        generated_request(tasks, gen_seed.unwrap_or(1))
    } else {
        if gen_seed.is_some() {
            fail("--gen-seed only applies together with --gen-tasks");
        }
        let Some(path) = path else {
            fail("expected a request file (or `-` for stdin); try --print-request for a template");
        };
        let text = if path == "-" {
            let mut buffer = String::new();
            std::io::stdin()
                .read_to_string(&mut buffer)
                .unwrap_or_else(|e| fail(format!("cannot read stdin: {e}")));
            buffer
        } else {
            std::fs::read_to_string(&path)
                .unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")))
        };
        SolveRequest::parse(&text).unwrap_or_else(|e| fail(e))
    };
    if let Some(solver) = solver {
        request.solver = solver;
    }
    if let Some(threads) = threads {
        request.threads = threads;
    }
    if seed.is_some() {
        request.seed = seed;
    }
    if let Some(solvers) = solvers {
        request.solvers = solvers;
    }
    if online && !request.solver.starts_with("online-") {
        // Route the solve through the online replay engine (whole DAG at
        // t = 0, re-plan on every arrival) — only the memory-aware
        // heuristics have online counterparts.
        request.solver = format!("online-{}", request.solver);
    }
    if deadline_ms.is_some() {
        request.deadline_ms = deadline_ms;
    }

    let report = Service::for_request(&request)
        .try_handle(&request)
        .unwrap_or_else(|e| fail(e));
    // Streamed: a 10⁵-task report is ~60 MB of text, and neither it nor a
    // `Json` tree of it is ever held in memory.
    let stdout = std::io::BufWriter::new(std::io::stdout().lock());
    report
        .write_to(stdout, !compact)
        .unwrap_or_else(|e| fail(format!("cannot write the report: {e}")));
}
