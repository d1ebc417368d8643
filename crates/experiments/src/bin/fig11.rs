//! Reproduces Figure 11: makespan versus absolute memory bound for one
//! SmallRandSet DAG (the paper's Figure 8 DAG) — HEFT, MinMin, MemHEFT,
//! MemMinMin and the makespan lower bound. Pass `--dump-dot` to also print
//! the DAG in DOT format (Figure 8).

use mals_dag::dot;
use mals_experiments::cli;
use mals_experiments::csv::sweep_to_csv;
use mals_experiments::figures::{fig11, SingleRandConfig};
use mals_gen::SetParams;
use mals_platform::Platform;

fn main() {
    let options = cli::parse_or_exit();
    cli::reject_campaign_flags(&options, "fig11");
    let mut config = if options.full {
        SingleRandConfig::fig11_paper()
    } else {
        SingleRandConfig::fig11_default()
    };
    if let Some(tasks) = options.tasks {
        config.n_tasks = tasks;
    }
    if let Some(parallel) = cli::parallel_or_exit(&options) {
        config.parallel = parallel;
    }
    if cli::handle_lp_export(&options, &Platform::single_pair(0.0, 0.0), || {
        SetParams::small_rand()
            .scaled(1, config.n_tasks)
            .generate()
            .pop()
            .expect("one DAG requested")
    }) {
        return;
    }
    config.exact_solver = options.exact_solver(None, config.n_tasks, "the sweep DAG");
    eprintln!(
        "# Figure 11 — one SmallRandSet DAG of {} tasks (P1 = P2 = 1){}",
        config.n_tasks,
        match &config.exact_solver {
            Some(key) => format!(", optimal series via {}", cli::solver_display_name(key)),
            None => String::new(),
        }
    );
    let sweep = fig11(&config);
    if options.dump_dot {
        println!("{}", dot::to_dot(&sweep.graph));
    }
    eprintln!(
        "# HEFT memory requirement: {} | makespan lower bound: {}",
        sweep.heft_memory, sweep.lower_bound
    );
    print!("{}", sweep_to_csv(&sweep.points));
    println!("lower_bound,{}", sweep.lower_bound);
}
