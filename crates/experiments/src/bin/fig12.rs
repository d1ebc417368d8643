//! Reproduces Figure 12: LargeRandSet — normalised makespan and success rate
//! of MemHEFT and MemMinMin versus the normalised memory bound.
//!
//! This is the scaling campaign of the workspace: it streams DAG by DAG from
//! the set's seeds (constant memory in the number of DAGs) and supports
//! `--checkpoint PATH` / `--resume` / `--stop-after N` for long sweeps — a
//! killed run resumed from its checkpoint prints byte-identical CSV.

use mals_experiments::cli;
use mals_experiments::csv::campaign_to_csv;
use mals_experiments::figures::{fig12_with_io, Fig12Config};
use mals_gen::SetParams;
use mals_platform::Platform;

fn main() {
    let options = cli::parse_or_exit();
    let mut config = if options.full {
        Fig12Config::paper()
    } else {
        Fig12Config::default()
    };
    if let Some(dags) = options.dags {
        config.n_dags = dags;
    }
    if let Some(tasks) = options.tasks {
        config.n_tasks = tasks;
    }
    if let Some(parallel) = cli::parallel_or_exit(&options) {
        config.parallel = parallel;
    }
    if cli::handle_lp_export(&options, &Platform::single_pair(0.0, 0.0), || {
        SetParams::large_rand()
            .scaled(config.n_dags, config.n_tasks)
            .generate()
            .into_iter()
            .next()
            .expect("non-empty set")
    }) {
        return;
    }
    config.exact_solver = options.exact_solver(None, config.n_tasks, "each campaign DAG");
    eprintln!(
        "# Figure 12 — LargeRandSet: {} DAGs of {} tasks{}{}",
        config.n_dags,
        config.n_tasks,
        match &config.exact_solver {
            Some(key) => format!(
                ", optimal series via {} (best effort)",
                cli::solver_display_name(key)
            ),
            None => String::new(),
        },
        if options.full {
            " (paper scale)"
        } else {
            " (scaled down; use --full for the paper scale)"
        }
    );
    let run = fig12_with_io(&config, &options.campaign_io()).unwrap_or_else(|message| {
        eprintln!("fig12: {message}");
        std::process::exit(2);
    });
    match run.points {
        Some(points) => print!("{}", campaign_to_csv(&points)),
        None => eprintln!(
            "# stopped after {}/{} dags; resume with --checkpoint <same path> --resume",
            run.dags_done, run.total_dags
        ),
    }
}
