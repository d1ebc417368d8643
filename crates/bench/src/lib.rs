//! Shared fixtures for the figure-reproduction benchmarks.
//!
//! Each Criterion bench target under `benches/` regenerates (a scaled-down
//! version of) one table or figure of the paper; the DAGs and platforms they
//! operate on are built here so that every bench measures scheduling work,
//! not workload generation, and so that all benches agree on the fixture
//! sizes.

#![warn(missing_docs)]

use mals_dag::TaskGraph;
use mals_gen::{cholesky_dag, lu_dag, DaggenParams, KernelCosts, SetParams, WeightRanges};
use mals_platform::Platform;
use mals_util::Pcg64;

/// A SmallRandSet-shaped DAG with the given number of tasks (seeded).
pub fn small_rand_dag(n_tasks: usize, seed: u64) -> TaskGraph {
    let mut rng = Pcg64::new(seed);
    mals_gen::daggen::generate(
        &DaggenParams::small_rand().with_size(n_tasks),
        &WeightRanges::small_rand(),
        &mut rng,
    )
}

/// A LargeRandSet-shaped DAG with the given number of tasks (seeded).
pub fn large_rand_dag(n_tasks: usize, seed: u64) -> TaskGraph {
    let mut rng = Pcg64::new(seed);
    mals_gen::daggen::generate(
        &DaggenParams::large_rand().with_size(n_tasks),
        &WeightRanges::large_rand(),
        &mut rng,
    )
}

/// A scaled-down SmallRandSet (several DAGs).
pub fn small_rand_set(count: usize, n_tasks: usize) -> Vec<TaskGraph> {
    SetParams::small_rand().scaled(count, n_tasks).generate()
}

/// The LU DAG used by the Figure 14 benchmark.
pub fn lu_fixture(tiles: usize) -> TaskGraph {
    lu_dag(tiles, &KernelCosts::table1())
}

/// The Cholesky DAG used by the Figure 15 benchmark.
pub fn cholesky_fixture(tiles: usize) -> TaskGraph {
    cholesky_dag(tiles, &KernelCosts::table1())
}

/// The 1 CPU + 1 accelerator platform of the random-DAG experiments, with the
/// given symmetric memory bound.
pub fn single_pair(memory: f64) -> Platform {
    Platform::single_pair(memory, memory)
}

/// The mirage-like platform of the linear-algebra experiments.
pub fn mirage(memory: f64) -> Platform {
    Platform::mirage(memory, memory)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic() {
        assert_eq!(small_rand_dag(20, 1), small_rand_dag(20, 1));
        assert_eq!(large_rand_dag(50, 2), large_rand_dag(50, 2));
        assert_eq!(lu_fixture(4), lu_fixture(4));
    }

    #[test]
    fn fixture_sizes() {
        assert_eq!(small_rand_dag(20, 1).n_tasks(), 20);
        assert_eq!(small_rand_set(3, 10).len(), 3);
        assert!(cholesky_fixture(5).n_tasks() < lu_fixture(5).n_tasks());
        assert_eq!(mirage(10.0).n_procs(), 15);
        assert_eq!(single_pair(10.0).n_procs(), 2);
    }
}
