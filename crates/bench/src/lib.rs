//! Shared fixtures of the `bench_json` smoke runner.
//!
//! The seeded DAGs `bench_json` measures are built here, so that every bench
//! measures scheduling work, not workload generation, and so that the
//! equivalence tests of the facade exercise the exact instances the benches
//! time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mals_dag::TaskGraph;
use mals_gen::{DaggenParams, WeightRanges};
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic() {
        assert_eq!(small_rand_dag(20, 1), small_rand_dag(20, 1));
        assert_eq!(large_rand_dag(50, 2), large_rand_dag(50, 2));
    }

    #[test]
    fn fixture_sizes() {
        assert_eq!(small_rand_dag(20, 1).n_tasks(), 20);
    }
}
