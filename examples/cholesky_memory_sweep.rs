//! Full memory sweep for a tiled Cholesky factorisation (the Figure 15
//! scenario), printed as CSV ready to plot.
//!
//! Run with: `cargo run --release --example cholesky_memory_sweep [tiles]`

use mals::experiments::csv::sweep_to_csv;
use mals::experiments::figures::{fig15, LinalgConfig};
use mals::util::ParallelConfig;

fn main() {
    let tiles: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);
    let sweep = fig15(&LinalgConfig {
        tiles,
        steps: 16,
        parallel: ParallelConfig::env_override()
            .unwrap_or_else(|message| panic!("{message}"))
            .unwrap_or_default(),
    });
    eprintln!(
        "Cholesky {tiles}x{tiles}: {} tasks, HEFT needs {:.0} tiles, lower bound {:.0} ms",
        sweep.graph.n_tasks(),
        sweep.heft_memory,
        sweep.lower_bound
    );
    print!("{}", sweep_to_csv(&sweep.points));
}
