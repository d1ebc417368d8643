//! Reproduces Figure 15: makespan versus memory (in tiles) for the tiled
//! Cholesky factorisation on a mirage-like node (12 CPU cores + 3
//! accelerators).

use mals_experiments::cli;
use mals_experiments::csv::sweep_to_csv;
use mals_experiments::figures::{fig15, LinalgConfig};

fn main() {
    let options = cli::parse_or_exit();
    cli::reject_campaign_flags(&options, "fig15");
    cli::reject_exact_backend(&options, "fig15");
    let mut config = if options.full {
        LinalgConfig::paper()
    } else {
        LinalgConfig::small()
    };
    if let Some(tiles) = options.tiles {
        config.tiles = tiles;
    }
    if let Some(parallel) = cli::parallel_or_exit(&options) {
        config.parallel = parallel;
    }
    eprintln!(
        "# Figure 15 — Cholesky factorisation of a {0}x{0} tile matrix on 12 CPUs + 3 accelerators{1}",
        config.tiles,
        if options.full { " (paper scale)" } else { " (scaled down; use --full for 13x13)" }
    );
    let sweep = fig15(&config);
    eprintln!(
        "# tasks: {} | HEFT memory requirement: {} tiles",
        sweep.graph.n_tasks(),
        sweep.heft_memory
    );
    print!("{}", sweep_to_csv(&sweep.points));
}
