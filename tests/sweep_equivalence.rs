//! `Solver::solve_sweep` against one `Solver::solve` per platform, schedule
//! for schedule and bit for bit, for every list heuristic that shares a
//! memory-bound grid in one pass: MemHEFT, MemMinMin and the
//! `memheft-{cpsum,memreq,red,rand}` ablations.
//!
//! The grids are the campaigns' own — α · (HEFT's peak) at 21 points on
//! 1000-task LargeRandSet DAGs — and the shapes a sweep must also get
//! right: shuffled and duplicated bounds, α = 0, α > 1 and `+∞`, unequal
//! blue/red pairs, incomparable pairs (which lead chains of their own) and
//! platforms with other processor counts. That the sweep actually shares
//! commits on the campaign grid is checked by the selection core's own
//! tests, which can count them.

use mals::prelude::*;

/// The list heuristics with their own `solve_sweep`.
const KEYS: [&str; 6] = [
    "memheft",
    "memminmin",
    "memheft-cpsum",
    "memheft-memreq",
    "memheft-red",
    "memheft-rand",
];

/// Asserts that entry `i` of the sweep is the solve of `platforms[i]`.
fn assert_sweep_matches(key: &str, graph: &TaskGraph, platforms: &[Platform]) {
    let solver = solver_registry().build_seeded(key, 7).expect("registered");
    let ctx = SolveCtx::sequential();
    let swept = solver.solve_sweep(graph, platforms, &ctx);
    assert_eq!(swept.len(), platforms.len(), "{key}");
    for (platform, outcome) in platforms.iter().zip(&swept) {
        let alone = solver.solve(graph, platform, &ctx);
        let at = format!("{key} at ({}, {})", platform.mem_blue, platform.mem_red);
        assert_eq!(outcome.schedule, alone.schedule, "{at}");
        assert_eq!(outcome.status, alone.status, "{at}");
        assert_eq!(outcome.nodes, alone.nodes, "{at}");
        assert_eq!(outcome.error, alone.error, "{at}");
    }
}

/// HEFT's memory peak on `graph`: the campaigns' α = 1 bound.
fn heft_peak(graph: &TaskGraph, platform: &Platform) -> f64 {
    mals::experiments::heft_baseline(graph, platform)
        .peaks
        .max()
}

/// `platform` at the bounds `α_blue · peak`, `α_red · peak`, with the
/// campaigns' float expression.
fn at(platform: &Platform, peak: f64, alpha_blue: f64, alpha_red: f64) -> Platform {
    platform.with_memory_bounds(alpha_blue * peak, alpha_red * peak)
}

/// The campaign grid: α = i / 20 for i in 0..=20.
fn campaign_grid(platform: &Platform, peak: f64) -> Vec<Platform> {
    (0..=20)
        .map(|i| {
            let alpha = i as f64 / 20.0;
            at(platform, peak, alpha, alpha)
        })
        .collect()
}

/// The awkward shapes: the campaign grid shuffled with duplicates, bounds
/// past HEFT's peak, unequal and incomparable blue/red pairs, and other
/// processor counts.
fn mixed_grid(platform: &Platform, peak: f64, seed: u64) -> Vec<Platform> {
    let mut grid = campaign_grid(platform, peak);
    grid.extend(campaign_grid(platform, peak).into_iter().step_by(3));
    for (blue, red) in [
        (1.5, 1.5),
        (3.0, 3.0),
        (0.9, 0.6),
        (0.6, 0.9),
        (0.8, 0.5),
        (0.5, 0.8),
        (0.7, 0.7),
        (1.2, 0.4),
        (0.0, 1.0),
        (1.0, 0.0),
    ] {
        grid.push(at(platform, peak, blue, red));
    }
    grid.push(platform.with_memory_bounds(f64::INFINITY, f64::INFINITY));
    grid.push(platform.with_memory_bounds(f64::INFINITY, 0.8 * peak));
    grid.push(platform.with_memory_bounds(f64::INFINITY, 0.6 * peak));
    let wider = Platform::new(3, 2, 0.0, 0.0).unwrap();
    grid.push(at(&wider, peak, 0.8, 0.8));
    grid.push(at(&wider, peak, 0.6, 0.6));
    Pcg64::new(seed).shuffle(&mut grid);
    grid
}

#[test]
fn sweeps_match_single_solves_on_the_campaign_grid() {
    for seed in [1, 2] {
        let graph = mals_bench::large_rand_dag(1000, 0x5eed + seed);
        let platform = Platform::single_pair(0.0, 0.0);
        let grid = campaign_grid(&platform, heft_peak(&graph, &platform));
        for key in KEYS {
            assert_sweep_matches(key, &graph, &grid);
        }
    }
}

#[test]
fn sweeps_match_single_solves_on_mixed_grids() {
    for seed in [3, 4] {
        let graph = mals_bench::large_rand_dag(1000, 0x5eed + seed);
        let platform = Platform::new(2, 2, 0.0, 0.0).unwrap();
        let grid = mixed_grid(&platform, heft_peak(&graph, &platform), seed);
        for key in KEYS {
            assert_sweep_matches(key, &graph, &grid);
        }
    }
}

#[test]
fn empty_and_single_platform_sweeps() {
    let (graph, _) = dex();
    let solver = MemHeft::new();
    let ctx = SolveCtx::sequential();
    assert!(solver.solve_sweep(&graph, &[], &ctx).is_empty());
    for bound in [2.0, 5.0, 100.0] {
        assert_sweep_matches("memheft", &graph, &[Platform::single_pair(bound, bound)]);
        assert_sweep_matches("memminmin", &graph, &[Platform::single_pair(bound, bound)]);
    }
}

#[test]
fn cyclic_graphs_are_rejected_at_every_bound() {
    let mut graph = TaskGraph::new();
    let a = graph.add_task("a", 1.0, 1.0);
    let b = graph.add_task("b", 1.0, 1.0);
    graph.add_edge(a, b, 1.0, 1.0).unwrap();
    graph.add_edge(b, a, 1.0, 1.0).unwrap();
    let grid: Vec<Platform> = [1.0, 5.0, 5.0]
        .map(|bound| Platform::single_pair(bound, bound))
        .to_vec();
    for key in KEYS {
        assert_sweep_matches(key, &graph, &grid);
        let swept = solver_registry().build(key).unwrap().solve_sweep(
            &graph,
            &grid,
            &SolveCtx::sequential(),
        );
        assert!(swept.iter().all(|o| o.error.is_some()), "{key}");
    }
}

#[test]
fn a_pre_tripped_token_stops_every_entry() {
    let graph = mals_bench::large_rand_dag(100, 9);
    let platform = Platform::single_pair(0.0, 0.0);
    let grid = campaign_grid(&platform, heft_peak(&graph, &platform));
    let token = mals::util::CancelToken::new();
    token.cancel();
    let ctx = SolveCtx::sequential().with_cancel_token(&token);
    for key in KEYS {
        let swept = solver_registry()
            .build(key)
            .unwrap()
            .solve_sweep(&graph, &grid, &ctx);
        assert!(
            swept.iter().all(|o| o.status == OptimalityStatus::LimitHit),
            "{key}"
        );
    }
}
