//! One entry point per figure of the paper's evaluation section.
//!
//! Every function has a `Default` configuration scaled down for interactive /
//! benchmark use and a `paper()` configuration matching the instance sizes of
//! the paper. The experiment binaries print which configuration is in effect,
//! so no scaling is ever silent.
//!
//! Solvers are selected **by registry key** (`"memheft"`, `"bb"`, `"milp"`,
//! …; resolved against `mals_exact::solver_registry()`), so every figure
//! runs heuristics and exact backends through the same engine-layer code
//! path and the series labels come from the solvers' display names.

use crate::campaign::{
    run_streaming_campaign, CampaignConfig, CampaignIo, CampaignPoint, CampaignRun,
};
use crate::sweep::{heft_baseline, sweep_absolute, SweepPoint};
use mals_dag::TaskGraph;
use mals_exact::bounds::makespan_lower_bound;
use mals_gen::{cholesky_dag, lu_dag, KernelCosts, SetParams};
use mals_platform::Platform;
use mals_sched::{SolveCtx, SolveLimits, Solver};
use mals_util::{ParallelConfig, WorkerPool};

/// Configuration of the Figure 10 campaign (SmallRandSet vs the optimal).
#[derive(Debug, Clone)]
pub struct Fig10Config {
    /// Number of random DAGs.
    pub n_dags: usize,
    /// Tasks per DAG.
    pub n_tasks: usize,
    /// Normalised memory bounds.
    pub alphas: Vec<f64>,
    /// Registry key of the exact solver drawing the optimal series.
    pub exact_solver: String,
    /// Node budget of the exact solver per (DAG, bound) pair.
    pub optimal_node_limit: u64,
    /// Thread configuration.
    pub parallel: ParallelConfig,
}

impl Default for Fig10Config {
    fn default() -> Self {
        Fig10Config {
            n_dags: 10,
            n_tasks: 16,
            alphas: (0..=10).map(|i| i as f64 / 10.0).collect(),
            exact_solver: "bb".into(),
            optimal_node_limit: 50_000,
            parallel: ParallelConfig::default(),
        }
    }
}

impl Fig10Config {
    /// The paper's configuration: 50 DAGs of 30 tasks (slow: the exact solver
    /// runs on every DAG × memory-bound combination).
    pub fn paper() -> Self {
        Fig10Config {
            n_dags: 50,
            n_tasks: 30,
            alphas: (0..=20).map(|i| i as f64 / 20.0).collect(),
            exact_solver: "bb".into(),
            optimal_node_limit: 2_000_000,
            parallel: ParallelConfig::default(),
        }
    }
}

/// Figure 10: SmallRandSet — normalised makespan and success rate of MemHEFT,
/// MemMinMin and the optimal schedule, as a function of the normalised memory
/// bound, on a 1 blue + 1 red platform.
pub fn fig10(config: &Fig10Config) -> Vec<CampaignPoint> {
    fig10_with_io(config, &CampaignIo::default())
        .expect("in-memory campaign cannot fail")
        .points
        .expect("no early stop requested")
}

/// [`fig10`] with checkpoint/resume support (the `--checkpoint` / `--resume`
/// wiring of the `fig10` binary); the campaign streams DAG by DAG from the
/// set's seeds instead of materialising the whole set.
pub fn fig10_with_io(config: &Fig10Config, io: &CampaignIo) -> Result<CampaignRun, String> {
    let set = SetParams::small_rand().scaled(config.n_dags, config.n_tasks);
    let platform = Platform::single_pair(0.0, 0.0);
    let campaign = CampaignConfig {
        alphas: config.alphas.clone(),
        solvers: vec![
            "memheft".into(),
            "memminmin".into(),
            config.exact_solver.clone(),
        ],
        optimal_node_limit: config.optimal_node_limit,
        parallel: config.parallel,
    };
    run_streaming_campaign(&set, &platform, &campaign, io)
}

/// Configuration of the Figure 12 campaign (LargeRandSet).
#[derive(Debug, Clone)]
pub struct Fig12Config {
    /// Number of random DAGs.
    pub n_dags: usize,
    /// Tasks per DAG.
    pub n_tasks: usize,
    /// Normalised memory bounds.
    pub alphas: Vec<f64>,
    /// Optional exact solver key: the paper omits the optimal at this size,
    /// but `--exact-backend` lets scaled-down runs include it anyway.
    pub exact_solver: Option<String>,
    /// Node budget of the exact solver per (DAG, bound) pair.
    pub optimal_node_limit: u64,
    /// Thread configuration.
    pub parallel: ParallelConfig,
}

impl Default for Fig12Config {
    fn default() -> Self {
        Fig12Config {
            n_dags: 6,
            n_tasks: 150,
            alphas: (0..=10).map(|i| i as f64 / 10.0).collect(),
            exact_solver: None,
            optimal_node_limit: 200_000,
            parallel: ParallelConfig::default(),
        }
    }
}

impl Fig12Config {
    /// The paper's configuration: 100 DAGs of 1000 tasks.
    pub fn paper() -> Self {
        Fig12Config {
            n_dags: 100,
            n_tasks: 1000,
            alphas: (0..=20).map(|i| i as f64 / 20.0).collect(),
            exact_solver: None,
            optimal_node_limit: 200_000,
            parallel: ParallelConfig::default(),
        }
    }
}

/// Figure 12: LargeRandSet — normalised makespan and success rate of MemHEFT
/// and MemMinMin (the optimal is out of reach at the paper's size; an exact
/// solver can be opted in for scaled-down runs), on a 1 blue + 1 red
/// platform.
pub fn fig12(config: &Fig12Config) -> Vec<CampaignPoint> {
    fig12_with_io(config, &CampaignIo::default())
        .expect("in-memory campaign cannot fail")
        .points
        .expect("no early stop requested")
}

/// [`fig12`] with checkpoint/resume support — the scaling campaign of the
/// workspace: DAGs are generated from their seeds one chunk at a time,
/// folded into streaming aggregates and dropped, so the LargeRandSet
/// configuration extends to 10⁴–10⁵-task instances and thousands of seeds
/// without memory growth, and a killed run resumes from its checkpoint to
/// byte-identical output.
pub fn fig12_with_io(config: &Fig12Config, io: &CampaignIo) -> Result<CampaignRun, String> {
    let set = SetParams::large_rand().scaled(config.n_dags, config.n_tasks);
    let platform = Platform::single_pair(0.0, 0.0);
    let mut solvers = vec!["memheft".to_string(), "memminmin".to_string()];
    solvers.extend(config.exact_solver.iter().cloned());
    let campaign = CampaignConfig {
        alphas: config.alphas.clone(),
        solvers,
        optimal_node_limit: config.optimal_node_limit,
        parallel: config.parallel,
    };
    run_streaming_campaign(&set, &platform, &campaign, io)
}

/// Result of a single-DAG absolute sweep (Figures 11, 13, 14, 15).
#[derive(Debug, Clone)]
pub struct SingleDagSweep {
    /// The DAG used.
    pub graph: TaskGraph,
    /// The sweep rows.
    pub points: Vec<SweepPoint>,
    /// Memory- and platform-independent makespan lower bound (the "Lower
    /// bound" line of Figure 11).
    pub lower_bound: f64,
    /// Memory needed by the memory-oblivious HEFT schedule (the right end of
    /// the interesting memory range).
    pub heft_memory: f64,
}

/// Builds the memory grid of an absolute sweep: `steps + 1` evenly spaced
/// bounds from 0 to ~110% of HEFT's requirement.
fn memory_grid(heft_memory: f64, steps: usize) -> Vec<f64> {
    let top = (heft_memory * 1.1).max(1.0);
    (0..=steps)
        .map(|i| (top * i as f64 / steps as f64).round())
        .collect()
}

fn single_dag_sweep(
    graph: TaskGraph,
    platform: &Platform,
    steps: usize,
    parallel: ParallelConfig,
    exact: Option<(&str, u64)>,
) -> SingleDagSweep {
    let heft_memory = heft_baseline(&graph, platform).peaks.max();
    let grid = memory_grid(heft_memory, steps);
    // A single DAG cannot be spread over threads the way a campaign spreads
    // whole DAGs, so the parallelism goes *inside* each schedule: one worker
    // pool, shared by every solver through the solve context.
    let registry = mals_exact::solver_registry();
    let build = |key: &str| {
        registry
            .build(key)
            .unwrap_or_else(|| panic!("solver `{key}` not registered"))
    };
    let memheft = build("memheft");
    let memminmin = build("memminmin");
    let heft = build("heft");
    let minmin = build("minmin");
    let exact_solver = exact.as_ref().map(|&(key, _)| build(key));
    let mut memory_aware: Vec<&dyn Solver> = vec![&memheft, &memminmin];
    if let Some(s) = &exact_solver {
        memory_aware.push(s);
    }
    let pool = (parallel.resolved_threads() > 1).then(|| WorkerPool::new(parallel));
    let ctx = SolveCtx {
        limits: exact
            .map(|(_, node_limit)| SolveLimits::with_node_limit(node_limit))
            .unwrap_or_default(),
        pool: pool.as_ref(),
        ..Default::default()
    };
    let points = sweep_absolute(
        &graph,
        platform,
        &grid,
        &memory_aware,
        &[&heft, &minmin],
        &ctx,
    );
    let lower_bound = makespan_lower_bound(&graph, platform);
    SingleDagSweep {
        graph,
        points,
        lower_bound,
        heft_memory,
    }
}

/// Configuration for the single-DAG random sweeps (Figures 11 and 13).
#[derive(Debug, Clone)]
pub struct SingleRandConfig {
    /// Tasks in the DAG.
    pub n_tasks: usize,
    /// Number of memory points in the sweep.
    pub steps: usize,
    /// Within-schedule thread configuration (ready-list evaluation).
    pub parallel: ParallelConfig,
    /// Optional registry key of an exact solver adding an optimal series to
    /// the sweep (only sensible for small `n_tasks`).
    pub exact_solver: Option<String>,
    /// Node budget of the exact solver per memory point.
    pub exact_node_limit: u64,
}

impl SingleRandConfig {
    /// Figure 11 default (paper: the 30-task DAG of Figure 8).
    pub fn fig11_default() -> Self {
        SingleRandConfig {
            n_tasks: 30,
            steps: 20,
            parallel: ParallelConfig::sequential(),
            exact_solver: None,
            exact_node_limit: 200_000,
        }
    }

    /// Figure 11 paper configuration.
    pub fn fig11_paper() -> Self {
        SingleRandConfig {
            n_tasks: 30,
            steps: 35,
            ..SingleRandConfig::fig11_default()
        }
    }

    /// Figure 13 default (scaled down from the paper's 1000-task DAG).
    pub fn fig13_default() -> Self {
        SingleRandConfig {
            n_tasks: 300,
            steps: 20,
            ..SingleRandConfig::fig11_default()
        }
    }

    /// Figure 13 paper configuration.
    pub fn fig13_paper() -> Self {
        SingleRandConfig {
            n_tasks: 1000,
            steps: 25,
            ..SingleRandConfig::fig11_default()
        }
    }
}

/// Figure 11: makespan versus (absolute) memory bound for one SmallRandSet
/// DAG — HEFT, MinMin, MemHEFT, MemMinMin and the makespan lower bound, on a
/// 1 blue + 1 red platform. The DAG is the first one of the (seeded)
/// SmallRandSet, mirroring the paper's use of the Figure 8 DAG.
pub fn fig11(config: &SingleRandConfig) -> SingleDagSweep {
    let graph = SetParams::small_rand()
        .scaled(1, config.n_tasks)
        .generate()
        .pop()
        .expect("one DAG requested");
    single_dag_sweep(
        graph,
        &Platform::single_pair(0.0, 0.0),
        config.steps,
        config.parallel,
        config
            .exact_solver
            .as_deref()
            .map(|key| (key, config.exact_node_limit)),
    )
}

/// Figure 13: the same sweep for one LargeRandSet DAG (the paper's Figure 9
/// DAG).
pub fn fig13(config: &SingleRandConfig) -> SingleDagSweep {
    let graph = SetParams::large_rand()
        .scaled(1, config.n_tasks)
        .generate()
        .pop()
        .expect("one DAG requested");
    single_dag_sweep(
        graph,
        &Platform::single_pair(0.0, 0.0),
        config.steps,
        config.parallel,
        config
            .exact_solver
            .as_deref()
            .map(|key| (key, config.exact_node_limit)),
    )
}

/// Configuration for the linear-algebra sweeps (Figures 14 and 15).
#[derive(Debug, Clone)]
pub struct LinalgConfig {
    /// Number of tile rows/columns of the factored matrix.
    pub tiles: usize,
    /// Number of memory points in the sweep.
    pub steps: usize,
    /// Within-schedule thread configuration (ready-list evaluation).
    pub parallel: ParallelConfig,
}

impl LinalgConfig {
    /// Default (scaled-down) configuration: a 6×6 tile matrix.
    pub fn small() -> Self {
        LinalgConfig {
            tiles: 6,
            steps: 16,
            parallel: ParallelConfig::sequential(),
        }
    }

    /// The paper's configuration: a 13×13 tile matrix.
    pub fn paper() -> Self {
        LinalgConfig {
            tiles: 13,
            steps: 24,
            parallel: ParallelConfig::sequential(),
        }
    }
}

/// Figure 14: makespan versus memory (in tiles) for the tiled LU
/// factorisation on the mirage-like platform (12 CPU cores + 3 accelerators).
pub fn fig14(config: &LinalgConfig) -> SingleDagSweep {
    let graph = lu_dag(config.tiles, &KernelCosts::table1());
    single_dag_sweep(
        graph,
        &Platform::mirage(0.0, 0.0),
        config.steps,
        config.parallel,
        None,
    )
}

/// Figure 15: the same sweep for the tiled Cholesky factorisation.
pub fn fig15(config: &LinalgConfig) -> SingleDagSweep {
    let graph = cholesky_dag(config.tiles, &KernelCosts::table1());
    single_dag_sweep(
        graph,
        &Platform::mirage(0.0, 0.0),
        config.steps,
        config.parallel,
        None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10_tiny_run_has_expected_shape() {
        let config = Fig10Config {
            n_dags: 3,
            n_tasks: 6,
            alphas: vec![0.3, 1.0],
            optimal_node_limit: 10_000,
            parallel: ParallelConfig::sequential(),
            ..Fig10Config::default()
        };
        let points = fig10(&config);
        assert_eq!(points.len(), 2);
        let full = &points[1];
        // At alpha = 1 every heuristic schedules every DAG.
        assert_eq!(full.method("MemHEFT").unwrap().success_rate, 1.0);
        assert_eq!(full.method("MemMinMin").unwrap().success_rate, 1.0);
        let opt = full.method("Optimal(B&B)").unwrap();
        assert!(opt.success_rate >= 1.0 - 1e-9);
        // The optimal normalised makespan is never worse than MemHEFT's.
        assert!(
            opt.mean_normalized_makespan.unwrap()
                <= full
                    .method("MemHEFT")
                    .unwrap()
                    .mean_normalized_makespan
                    .unwrap()
                    + 1e-9
        );
    }

    #[test]
    fn fig12_tiny_run() {
        let config = Fig12Config {
            n_dags: 2,
            n_tasks: 40,
            alphas: vec![0.4, 1.0],
            parallel: ParallelConfig::sequential(),
            ..Fig12Config::default()
        };
        let points = fig12(&config);
        assert_eq!(points.len(), 2);
        assert!(points[1].method("MemHEFT").unwrap().success_rate >= 0.99);
        assert!(
            points[0].method("Optimal(B&B)").is_none(),
            "no exact solver at this scale"
        );
    }

    #[test]
    fn fig11_tiny_run() {
        let sweep = fig11(&SingleRandConfig {
            n_tasks: 12,
            steps: 6,
            ..SingleRandConfig::fig11_default()
        });
        assert_eq!(sweep.points.len(), 7);
        assert!(sweep.lower_bound > 0.0);
        assert!(sweep.heft_memory > 0.0);
        // At the top of the grid every scheduler succeeds and respects the
        // lower bound.
        let top = sweep.points.last().unwrap();
        for outcome in &top.outcomes {
            let mk = outcome.makespan.expect("ample memory");
            assert!(mk >= sweep.lower_bound - 1e-9);
        }
    }

    #[test]
    fn fig14_and_fig15_tiny_runs() {
        let config = LinalgConfig {
            tiles: 3,
            steps: 6,
            parallel: ParallelConfig::sequential(),
        };
        let lu = fig14(&config);
        let chol = fig15(&config);
        assert!(lu.graph.n_tasks() > chol.graph.n_tasks());
        for sweep in [&lu, &chol] {
            let top = sweep.points.last().unwrap();
            assert!(top.outcome("MemHEFT").unwrap().makespan.is_some());
            assert!(top.outcome("MemMinMin").unwrap().makespan.is_some());
        }
    }

    #[test]
    fn fig11_with_exact_solver_adds_a_dominating_series() {
        // A tiny sweep with the MILP backend: the optimal series exists and
        // is never worse than MemHEFT wherever both succeed.
        let sweep = fig11(&SingleRandConfig {
            n_tasks: 8,
            steps: 4,
            exact_solver: Some("milp".into()),
            ..SingleRandConfig::fig11_default()
        });
        let mut saw_optimal = false;
        for point in &sweep.points {
            let opt = point.outcome("Optimal(MILP)").expect("series present");
            if let (Some(o), Some(h)) = (
                opt.makespan,
                point.outcome("MemHEFT").and_then(|m| m.makespan),
            ) {
                saw_optimal = true;
                assert!(o <= h + 1e-9, "optimal {o} worse than MemHEFT {h}");
                assert!(o >= sweep.lower_bound - 1e-9);
            }
        }
        assert!(saw_optimal, "the exact series never succeeded");
    }

    #[test]
    fn single_dag_sweep_is_thread_count_invariant() {
        let base = SingleRandConfig {
            n_tasks: 24,
            steps: 4,
            parallel: ParallelConfig::sequential(),
            ..SingleRandConfig::fig11_default()
        };
        let seq = fig11(&base);
        let par = fig11(&SingleRandConfig {
            parallel: ParallelConfig::with_threads(4),
            ..base
        });
        for (a, b) in seq.points.iter().zip(&par.points) {
            assert_eq!(a.memory_bound, b.memory_bound);
            for (oa, ob) in a.outcomes.iter().zip(&b.outcomes) {
                assert_eq!(oa.name, ob.name);
                // Bitwise equality: the parallel engine must not perturb a
                // single makespan anywhere in the sweep.
                assert_eq!(oa.makespan, ob.makespan, "{} diverged", oa.name);
            }
        }
    }

    #[test]
    fn memory_grid_covers_zero_to_above_heft() {
        let grid = memory_grid(100.0, 10);
        assert_eq!(grid.len(), 11);
        assert_eq!(grid[0], 0.0);
        assert!(*grid.last().unwrap() >= 100.0);
    }
}
