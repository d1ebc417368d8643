//! Minimum-memory break-even points: for each workload, the smallest
//! symmetric memory bound at which every scheduler still produces a schedule
//! (the quantities the paper reads off the left ends of Figures 11–15, e.g.
//! "MemMinMin fails to schedule the LU factorisation below 155 tiles").
//!
//! With `--exact-backend {bb,milp}` an exact solver joins the scheduler
//! table, reporting the break-even point of *optimal* scheduling (use small
//! `--tasks` / `--tiles`: the exact solvers bisect over many solves). With
//! `--exact-backend lp-export` the random workload's § 4 ILP is printed in
//! CPLEX LP format instead.

use mals_exact::{solver_registry, ExactBackendKind};
use mals_experiments::cli;
use mals_experiments::heft_baseline;
use mals_experiments::min_memory::minimum_memory_table;
use mals_gen::{cholesky_dag, lu_dag, KernelCosts, SetParams};
use mals_platform::Platform;
use mals_sched::{SolveCtx, SolveLimits, Solver};

fn main() {
    let options = cli::parse_or_exit();
    cli::reject_campaign_flags(&options, "minmem");
    cli::reject_threads(&options, "minmem");
    let tiles = options.tiles.unwrap_or(if options.full { 13 } else { 6 });
    let rand_tasks = options.tasks.unwrap_or(if options.full { 30 } else { 20 });

    let costs = KernelCosts::table1();
    let workloads: Vec<(String, mals_dag::TaskGraph, Platform)> = vec![
        (
            format!("random_{rand_tasks}_tasks"),
            SetParams::small_rand()
                .scaled(1, rand_tasks)
                .generate()
                .pop()
                .unwrap(),
            Platform::single_pair(0.0, 0.0),
        ),
        (
            format!("lu_{tiles}x{tiles}"),
            lu_dag(tiles, &costs),
            Platform::mirage(0.0, 0.0),
        ),
        (
            format!("cholesky_{tiles}x{tiles}"),
            cholesky_dag(tiles, &costs),
            Platform::mirage(0.0, 0.0),
        ),
    ];

    if options.exact_backend == Some(ExactBackendKind::LpExport) {
        let (name, graph, platform) = &workloads[0];
        eprintln!("# minmem: exporting the `{name}` workload (other workloads skipped)");
        cli::print_ilp_export(graph, platform);
        return;
    }

    // One registry lookup covers the heuristics and the optional exact
    // solver; the MILP ceiling warning rides the shared flag helper (every
    // workload gets its own warning line when it exceeds the ceiling).
    let registry = solver_registry();
    let mut exact_key = None;
    for (name, graph, _) in &workloads {
        exact_key = options
            .exact_solver(None, graph.n_tasks(), name)
            .or(exact_key);
    }
    let memheft = registry.build("memheft").unwrap();
    let memminmin = registry.build("memminmin").unwrap();
    let exact = exact_key.map(|key| registry.build(&key).expect("registry key"));
    let mut solvers: Vec<&dyn Solver> = vec![&memheft, &memminmin];
    if let Some(s) = &exact {
        solvers.push(s);
    }

    println!("workload,scheduler,min_memory,makespan_at_min,heft_memory,heft_makespan");
    let ctx = SolveCtx::with_limits(SolveLimits::with_node_limit(200_000));
    for (name, graph, platform) in &workloads {
        let baseline = heft_baseline(graph, platform);
        let upper = (baseline.peaks.max() * 1.5).max(1.0);
        for entry in minimum_memory_table(graph, platform, &solvers, &ctx, upper, 0.5) {
            println!(
                "{name},{},{},{},{},{}",
                entry.name,
                entry
                    .min_memory
                    .map(|v| format!("{v:.1}"))
                    .unwrap_or_else(|| "na".into()),
                entry
                    .makespan_at_min
                    .map(|v| format!("{v:.1}"))
                    .unwrap_or_else(|| "na".into()),
                baseline.peaks.max(),
                baseline.makespan
            );
        }
    }
}
