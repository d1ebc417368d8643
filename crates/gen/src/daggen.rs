//! DAGGEN-style layered random DAG generator.
//!
//! The paper generates its random workloads with the DAGGEN tool using four
//! shape parameters (Section 6.1.1):
//!
//! * **size** — number of tasks; tasks are organised in levels;
//! * **width** — maximum parallelism: a small value produces "chain" graphs,
//!   a large value "fork-join" graphs;
//! * **density** — how many edges connect consecutive levels;
//! * **jumps** — random edges may skip up to `jumps` levels.
//!
//! This module reimplements that generator from scratch (the original is a C
//! program). The construction is:
//!
//! 1. draw level widths around `width · √size` until `size` tasks exist;
//! 2. give every non-first-level task between 1 and `density · |previous
//!    levels|` parents, each parent drawn from one of the `jumps` preceding
//!    levels (biased towards the immediately preceding one);
//! 3. draw the two processing times, the file sizes and the communication
//!    costs uniformly from the configured integer ranges.
//!
//! The generator is fully deterministic given the [`mals_util::Pcg64`] seed,
//! which is what makes the figure-reproduction campaigns reproducible.

use mals_dag::{GraphBuilder, TaskGraph, TaskId};
use mals_util::Pcg64;

/// Shape parameters of the random DAG generator (DAGGEN's `size`, `width`,
/// `density`, `jumps`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DaggenParams {
    /// Number of tasks in the DAG.
    pub size: usize,
    /// Width parameter in `(0, 1]`: the average level holds about
    /// `width · √size` tasks.
    pub width: f64,
    /// Density parameter in `(0, 1]`: a task of level `ℓ` has between 1 and
    /// `max(1, density · width_{ℓ-1})` parents.
    pub density: f64,
    /// Maximum number of levels an edge may skip (1 = only consecutive
    /// levels).
    pub jumps: usize,
}

impl DaggenParams {
    /// The SmallRandSet shape of the paper: 30 tasks, width 0.3, density 0.5,
    /// jumps 5.
    pub fn small_rand() -> Self {
        DaggenParams {
            size: 30,
            width: 0.3,
            density: 0.5,
            jumps: 5,
        }
    }

    /// The LargeRandSet shape of the paper: 1000 tasks, width 0.3,
    /// density 0.5, jumps 5.
    pub fn large_rand() -> Self {
        DaggenParams {
            size: 1000,
            width: 0.3,
            density: 0.5,
            jumps: 5,
        }
    }

    /// Same shape with a different number of tasks (used by the scaled-down
    /// benchmark configurations and the 10⁴–10⁵-task scaling campaigns).
    pub fn with_size(mut self, size: usize) -> Self {
        self.size = size;
        self
    }

    /// A 10⁵-task instance with the LargeRandSet shape — the scaling target
    /// of the large-campaign harness.
    pub fn huge_rand() -> Self {
        DaggenParams::large_rand().with_size(100_000)
    }
}

/// Integer ranges (inclusive) from which task and edge weights are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightRanges {
    /// Range of the processing times `W⁽¹⁾` and `W⁽²⁾`.
    pub work: (u64, u64),
    /// Range of the file sizes `F`.
    pub file_size: (u64, u64),
    /// Range of the communication costs `C`.
    pub comm_cost: (u64, u64),
}

impl WeightRanges {
    /// SmallRandSet weights: `W ∈ [1, 20]`, `F, C ∈ [1, 10]`.
    pub fn small_rand() -> Self {
        WeightRanges {
            work: (1, 20),
            file_size: (1, 10),
            comm_cost: (1, 10),
        }
    }

    /// LargeRandSet weights: `W, F, C ∈ [1, 100]`.
    pub fn large_rand() -> Self {
        WeightRanges {
            work: (1, 100),
            file_size: (1, 100),
            comm_cost: (1, 100),
        }
    }
}

/// Generates one random DAG with the given shape and weight parameters.
///
/// Construction goes through [`GraphBuilder`] (flat edge records, adjacency
/// lists allocated once at their exact sizes) so 10⁴–10⁵-task instances
/// build in linear time without per-node reallocation churn. The RNG draw
/// sequence is exactly that of the original incremental construction, so the
/// output for any `(params, weights, seed)` triple is unchanged (pinned by
/// the golden-fingerprint test below).
///
/// # Panics
/// Panics if `size == 0`.
pub fn generate(params: &DaggenParams, weights: &WeightRanges, rng: &mut Pcg64) -> TaskGraph {
    assert!(params.size > 0, "cannot generate an empty DAG");
    let levels = build_levels(params, rng);
    let mut builder = GraphBuilder::with_capacity(params.size, max_edges(params, &levels));

    // Create the tasks level by level, remembering the level of each task.
    let mut level_tasks: Vec<Vec<TaskId>> = Vec::with_capacity(levels.len());
    let mut counter = 0usize;
    for &count in &levels {
        let mut tasks = Vec::with_capacity(count);
        for _ in 0..count {
            let w1 = rng.uniform_u64(weights.work.0, weights.work.1) as f64;
            let w2 = rng.uniform_u64(weights.work.0, weights.work.1) as f64;
            tasks.push(builder.add_task(format!("t{counter}"), w1, w2));
            counter += 1;
        }
        level_tasks.push(tasks);
    }

    // Connect every task of level >= 1 to parents in preceding levels. A
    // task's in-edges are only ever created in its own inner loop, so the
    // duplicate-parent check is a scan of this small local list instead of
    // the source's (possibly huge) adjacency list.
    let mut parents_of_task: Vec<TaskId> = Vec::new();
    for lvl in 1..level_tasks.len() {
        let max_parents = max_parents(params, level_tasks[lvl - 1].len());
        for &task in &level_tasks[lvl] {
            parents_of_task.clear();
            let n_parents = rng.uniform_usize(1, max_parents);
            for k in 0..n_parents {
                // The first parent always comes from the previous level so the
                // level structure is respected; the others may jump back up to
                // `jumps` levels.
                let span = params.jumps.max(1).min(lvl);
                let src_level = if k == 0 {
                    lvl - 1
                } else {
                    lvl - rng.uniform_usize(1, span)
                };
                let candidates = &level_tasks[src_level];
                let src = *rng.choose(candidates).expect("levels are never empty");
                if parents_of_task.contains(&src) {
                    continue;
                }
                parents_of_task.push(src);
                let size = rng.uniform_u64(weights.file_size.0, weights.file_size.1) as f64;
                let comm = rng.uniform_u64(weights.comm_cost.0, weights.comm_cost.1) as f64;
                builder.add_edge(src, task, size, comm);
            }
        }
    }
    let graph = builder.build().expect("generator edges are valid");
    debug_assert!(graph.validate().is_ok());
    graph
}

/// The most parents a task may draw when the level before it is
/// `prev_width` wide.
fn max_parents(params: &DaggenParams, prev_width: usize) -> usize {
    ((params.density * prev_width as f64).round() as usize).max(1)
}

/// An upper bound on the edge count of a DAG with these levels: every task
/// past the first level draws at most [`max_parents`] parents.
fn max_edges(params: &DaggenParams, levels: &[usize]) -> usize {
    levels
        .windows(2)
        .map(|pair| pair[1] * max_parents(params, pair[0]))
        .sum()
}

/// Draws the number of tasks of each level until `size` tasks exist.
fn build_levels(params: &DaggenParams, rng: &mut Pcg64) -> Vec<usize> {
    let target_width = (params.width * (params.size as f64).sqrt()).max(1.0);
    let mut levels = Vec::new();
    let mut remaining = params.size;
    while remaining > 0 {
        let jitter = rng.uniform_f64(0.5, 1.5);
        let width = ((target_width * jitter).round() as usize).clamp(1, remaining);
        levels.push(width);
        remaining -= width;
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;
    use mals_dag::algo;

    fn gen(seed: u64, params: DaggenParams, weights: WeightRanges) -> TaskGraph {
        let mut rng = Pcg64::new(seed);
        generate(&params, &weights, &mut rng)
    }

    #[test]
    fn produces_requested_size() {
        for seed in 0..5 {
            let g = gen(seed, DaggenParams::small_rand(), WeightRanges::small_rand());
            assert_eq!(g.n_tasks(), 30);
            assert!(g.validate().is_ok());
        }
    }

    #[test]
    fn deterministic_for_a_given_seed() {
        let a = gen(42, DaggenParams::small_rand(), WeightRanges::small_rand());
        let b = gen(42, DaggenParams::small_rand(), WeightRanges::small_rand());
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_give_different_graphs() {
        let a = gen(1, DaggenParams::small_rand(), WeightRanges::small_rand());
        let b = gen(2, DaggenParams::small_rand(), WeightRanges::small_rand());
        assert_ne!(a, b);
    }

    #[test]
    fn weights_are_in_range() {
        let g = gen(7, DaggenParams::small_rand(), WeightRanges::small_rand());
        for t in g.task_ids() {
            let task = g.task(t);
            assert!((1.0..=20.0).contains(&task.work_blue));
            assert!((1.0..=20.0).contains(&task.work_red));
        }
        for e in g.edge_ids() {
            let edge = g.edge(e);
            assert!((1.0..=10.0).contains(&edge.size));
            assert!((1.0..=10.0).contains(&edge.comm_cost));
        }
    }

    #[test]
    fn every_non_source_task_has_a_parent() {
        let g = gen(11, DaggenParams::small_rand(), WeightRanges::small_rand());
        let levels = algo::levels(&g);
        for t in g.task_ids() {
            if levels[t.index()] > 0 {
                assert!(g.in_degree(t) >= 1);
            }
        }
        // There is at least one source and one sink.
        assert!(!g.sources().is_empty());
        assert!(!g.sinks().is_empty());
    }

    #[test]
    fn acyclic_and_connected_enough() {
        let g = gen(
            13,
            DaggenParams::large_rand().with_size(200),
            WeightRanges::large_rand(),
        );
        assert_eq!(g.n_tasks(), 200);
        assert!(algo::topological_order(&g).is_ok());
        // Edges never point "forward to backward": guaranteed by construction,
        // but double-check via levels.
        let levels = algo::levels(&g);
        for e in g.edge_ids() {
            let edge = g.edge(e);
            assert!(levels[edge.src.index()] < levels[edge.dst.index()]);
        }
    }

    #[test]
    fn width_parameter_controls_parallelism() {
        let narrow = gen(
            5,
            DaggenParams {
                size: 120,
                width: 0.1,
                density: 0.5,
                jumps: 2,
            },
            WeightRanges::small_rand(),
        );
        let wide = gen(
            5,
            DaggenParams {
                size: 120,
                width: 0.9,
                density: 0.5,
                jumps: 2,
            },
            WeightRanges::small_rand(),
        );
        let max_level_width = |g: &TaskGraph| {
            let levels = algo::levels(g);
            let mut counts = vec![0usize; levels.iter().max().map(|&m| m + 1).unwrap_or(1)];
            for &l in &levels {
                counts[l] += 1;
            }
            counts.into_iter().max().unwrap_or(0)
        };
        assert!(
            max_level_width(&wide) > max_level_width(&narrow),
            "a larger width parameter should produce wider DAGs"
        );
    }

    #[test]
    fn jumps_allow_level_skipping() {
        let g = gen(
            3,
            DaggenParams {
                size: 100,
                width: 0.3,
                density: 0.9,
                jumps: 5,
            },
            WeightRanges::small_rand(),
        );
        let levels = algo::levels(&g);
        let has_jump = g.edge_ids().any(|e| {
            let edge = g.edge(e);
            levels[edge.dst.index()] - levels[edge.src.index()] >= 2
        });
        assert!(
            has_jump,
            "with jumps=5 and high density some edge should skip a level"
        );
    }

    #[test]
    #[should_panic(expected = "empty DAG")]
    fn zero_size_panics() {
        let mut rng = Pcg64::new(0);
        let params = DaggenParams {
            size: 0,
            width: 0.3,
            density: 0.5,
            jumps: 1,
        };
        let _ = generate(&params, &WeightRanges::small_rand(), &mut rng);
    }

    #[test]
    fn single_task_graph() {
        let g = gen(
            0,
            DaggenParams {
                size: 1,
                width: 0.3,
                density: 0.5,
                jumps: 1,
            },
            WeightRanges::small_rand(),
        );
        assert_eq!(g.n_tasks(), 1);
        assert_eq!(g.n_edges(), 0);
    }

    /// FNV-style structural fingerprint: tasks, edges, endpoints, weights.
    fn fingerprint(g: &TaskGraph) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x100000001b3);
        };
        mix(g.n_tasks() as u64);
        mix(g.n_edges() as u64);
        for t in g.task_ids() {
            let d = g.task(t);
            mix(d.work_blue.to_bits());
            mix(d.work_red.to_bits());
        }
        for e in g.edge_ids() {
            let d = g.edge(e);
            mix(d.src.index() as u64);
            mix(d.dst.index() as u64);
            mix(d.size.to_bits());
            mix(d.comm_cost.to_bits());
        }
        h
    }

    /// The flat-construction rewrite must not change any seeded output:
    /// these fingerprints were recorded against the original incremental
    /// generator (pre-refactor) and pin the full structure — endpoints,
    /// weights, edge order — of three representative instances.
    #[test]
    fn seeded_output_matches_pre_refactor_golden_fingerprints() {
        let cases: [(u64, DaggenParams, WeightRanges, u64); 3] = [
            (
                42,
                DaggenParams::small_rand(),
                WeightRanges::small_rand(),
                0x11309b8efffee180,
            ),
            (
                7,
                DaggenParams::large_rand().with_size(200),
                WeightRanges::large_rand(),
                0xfffefbf945f6dafc,
            ),
            (
                0x5EED_0002,
                DaggenParams::large_rand(),
                WeightRanges::large_rand(),
                0x7dbcc556331aef95,
            ),
        ];
        for (seed, params, weights, expected) in cases {
            let g = gen(seed, params, weights);
            assert_eq!(
                fingerprint(&g),
                expected,
                "seed {seed} ({} tasks) diverged from the pre-refactor generator",
                params.size
            );
        }
    }

    #[test]
    fn scales_to_huge_instances() {
        // The 10⁵-task scaling target builds and validates in one pass; in
        // debug builds a scaled-down instance keeps the test quick while the
        // release bench exercises the full size.
        let size = if cfg!(debug_assertions) {
            20_000
        } else {
            100_000
        };
        let g = gen(
            1,
            DaggenParams::huge_rand().with_size(size),
            WeightRanges::large_rand(),
        );
        assert_eq!(g.n_tasks(), size);
        assert!(g.n_edges() > size); // densely connected
        assert!(algo::topological_order(&g).is_ok());
    }

    #[test]
    fn preset_params_match_paper() {
        let s = DaggenParams::small_rand();
        assert_eq!((s.size, s.jumps), (30, 5));
        assert_eq!((s.width, s.density), (0.3, 0.5));
        let l = DaggenParams::large_rand();
        assert_eq!(l.size, 1000);
        let w = WeightRanges::small_rand();
        assert_eq!(w.work, (1, 20));
        assert_eq!(w.file_size, (1, 10));
        let wl = WeightRanges::large_rand();
        assert_eq!(wl.work, (1, 100));
    }
}
