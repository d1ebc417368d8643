//! Reproduces Figure 13: makespan versus absolute memory bound for one
//! LargeRandSet DAG (the paper's Figure 9 DAG). Pass `--dump-dot` to also
//! print the DAG in DOT format (Figure 9).

use mals_dag::dot;
use mals_experiments::cli;
use mals_experiments::csv::sweep_to_csv;
use mals_experiments::figures::{fig13, SingleRandConfig};
use mals_gen::SetParams;
use mals_platform::Platform;

fn main() {
    let options = cli::parse_or_exit();
    cli::reject_campaign_flags(&options, "fig13");
    let mut config = if options.full {
        SingleRandConfig::fig13_paper()
    } else {
        SingleRandConfig::fig13_default()
    };
    if let Some(tasks) = options.tasks {
        config.n_tasks = tasks;
    }
    if let Some(parallel) = cli::parallel_or_exit(&options) {
        config.parallel = parallel;
    }
    if cli::handle_lp_export(&options, &Platform::single_pair(0.0, 0.0), || {
        SetParams::large_rand()
            .scaled(1, config.n_tasks)
            .generate()
            .pop()
            .expect("one DAG requested")
    }) {
        return;
    }
    config.exact_solver = options.exact_solver(None, config.n_tasks, "the sweep DAG");
    eprintln!(
        "# Figure 13 — one LargeRandSet DAG of {} tasks (P1 = P2 = 1){}{}",
        config.n_tasks,
        match &config.exact_solver {
            Some(key) => format!(
                ", optimal series via {} (best effort)",
                cli::solver_display_name(key)
            ),
            None => String::new(),
        },
        if options.full {
            ""
        } else {
            " (scaled down; use --full for the paper scale)"
        }
    );
    let sweep = fig13(&config);
    if options.dump_dot {
        println!("{}", dot::to_dot(&sweep.graph));
    }
    eprintln!("# HEFT memory requirement: {}", sweep.heft_memory);
    print!("{}", sweep_to_csv(&sweep.points));
}
