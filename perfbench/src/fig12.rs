//! `fig12-paper`: the paper's Figure 12 campaign at paper scale through
//! `run_streaming_campaign` — 100 LargeRandSet DAGs of 1000 tasks (set
//! seed = workload seed), 21 α points from 0 to 1, MemHEFT and MemMinMin,
//! the across-DAG pool at 2 threads. The only workload under memory
//! pressure (α < 1), and the only one running MemMinMin and the campaign
//! pool.

use crate::measure::{self, median, median_setup, timed_loop, Outcome};
use crate::schedule_gen::traced_reference;
use crate::trace::{Reduced, Tracer};
use crate::{span_metrics, Ctx};
use mals_experiments::csv::campaign_to_csv;
use mals_experiments::{run_streaming_campaign, CampaignConfig, CampaignIo, CampaignPoint};
use mals_gen::{daggen, SetParams};
use mals_platform::Platform;
use mals_sched::{Heft, Scheduler, SolveCtx, SolveLimits, Solver};
use mals_sim::memory_peaks;
use mals_util::{parallel_map_indexed, ParallelConfig, Pcg64};
use std::time::Instant;

const DAGS: usize = 100;
const TASKS: usize = 1000;
const THREADS: usize = 2;

/// The benchmark's own preparation: the campaign's set, platform and
/// configuration (`Fig12Config::paper()` with the set seed and the pool
/// fixed), the solvers resolved from the registry, and the expected α = 1
/// MemHEFT mean for the cross-check.
struct Inputs {
    set: SetParams,
    platform: Platform,
    config: CampaignConfig,
    solvers: Vec<Box<dyn Solver>>,
    alpha_one: Result<f64, String>,
}

fn inputs(seed: u64) -> Inputs {
    let mut set = SetParams::large_rand().scaled(DAGS, TASKS);
    set.seed = seed;
    let config = CampaignConfig {
        alphas: (0..=20).map(|i| i as f64 / 20.0).collect(),
        solvers: vec!["memheft".into(), "memminmin".into()],
        optimal_node_limit: 200_000,
        parallel: ParallelConfig::with_threads(THREADS),
    };
    let registry = mals_exact::solver_registry();
    let solvers: Vec<Box<dyn Solver>> = config
        .solvers
        .iter()
        .map(|key| {
            registry
                .build(key)
                .expect("campaign solver keys are registered")
        })
        .collect();
    let platform = Platform::single_pair(0.0, 0.0);
    Inputs {
        alpha_one: alpha_one_mean(&set, &platform, solvers[0].as_ref()),
        set,
        platform,
        config,
        solvers,
    }
}

/// The α = 1 MemHEFT mean normalised makespan, computed outside the
/// campaign: each DAG of the set (generated one at a time from the set's
/// seed forks), its HEFT makespan and peak, then MemHEFT at that bound.
fn alpha_one_mean(
    set: &SetParams,
    platform: &Platform,
    memheft: &dyn Solver,
) -> Result<f64, String> {
    let unbounded = platform.unbounded();
    let mut master = Pcg64::new(set.seed);
    let mut sum = 0.0;
    for i in 0..set.count {
        let graph = daggen::generate(&set.shape, &set.weights, &mut master.fork(i as u64));
        let heft = Heft::new()
            .schedule(&graph, &unbounded)
            .expect("HEFT cannot fail");
        let bound = memory_peaks(&graph, &unbounded, &heft).max();
        let bounded = platform.with_memory_bounds(bound, bound);
        let makespan = memheft
            .solve(&graph, &bounded, &SolveCtx::sequential())
            .makespan()
            .ok_or_else(|| format!("MemHEFT found no schedule for DAG {i} at alpha 1"))?;
        sum += makespan / heft.makespan().max(f64::MIN_POSITIVE);
    }
    Ok(sum / set.count as f64)
}

fn campaign(inputs: &Inputs) -> Result<Vec<CampaignPoint>, String> {
    run_streaming_campaign(
        &inputs.set,
        &inputs.platform,
        &inputs.config,
        &CampaignIo::default(),
    )?
    .points
    .ok_or_else(|| "campaign stopped early".to_string())
}

/// Share of (DAG, α, solver) solves that found a schedule, and the mean
/// normalised makespan over those solves.
fn summary(points: &[CampaignPoint]) -> (f64, f64) {
    let (mut rate_sum, mut weighted, mut series) = (0.0, 0.0, 0usize);
    for method in points.iter().flat_map(|p| &p.methods) {
        series += 1;
        rate_sum += method.success_rate;
        if let Some(mean) = method.mean_normalized_makespan {
            weighted += mean * method.success_rate;
        }
    }
    (
        rate_sum / series.max(1) as f64,
        weighted / rate_sum.max(f64::MIN_POSITIVE),
    )
}

fn check_points(points: &[CampaignPoint]) -> Result<(), String> {
    let last = points.last().ok_or("campaign has no points")?;
    match last.method("MemHEFT") {
        Some(m) if last.alpha == 1.0 && m.success_rate == 1.0 => Ok(()),
        other => Err(format!(
            "MemHEFT success at alpha {} is {:?}, expected 1.0",
            last.alpha,
            other.map(|m| m.success_rate)
        )),
    }
}

/// The campaign's α = 1 MemHEFT mean matches the one computed in set-up.
fn check_alpha_one(inputs: &Inputs, points: &[CampaignPoint]) -> Result<(), String> {
    let expected = inputs.alpha_one.clone()?;
    let campaign = points
        .last()
        .and_then(|p| p.method("MemHEFT"))
        .and_then(|m| m.mean_normalized_makespan)
        .ok_or("campaign has no MemHEFT mean at alpha 1")?;
    if (campaign - expected).abs() > 1e-9 * expected {
        return Err(format!(
            "campaign's MemHEFT mean at alpha 1 is {campaign}, recomputed {expected}"
        ));
    }
    Ok(())
}

pub fn run(ctx: &Ctx) -> Outcome {
    if ctx.trace {
        return traced(ctx);
    }
    let mut out = Outcome::default();
    let (setup_s, inputs) = median_setup(3, || inputs(ctx.seed));

    let mut results: Vec<Result<Vec<CampaignPoint>, String>> = Vec::new();
    let walls = timed_loop(ctx.budget(), 1, || {
        let result = campaign(&inputs);
        let keep_going = result.is_ok();
        results.push(result);
        keep_going
    });
    let peak_rss_mb = measure::self_peak_rss_mb();

    // Checks, outside the timed window: MemHEFT always succeeds at α = 1
    // with the mean recomputed outside the campaign, and every campaign of
    // this seed prints the same CSV.
    out.attempted = results.len();
    let mut first: Option<(&Vec<CampaignPoint>, String)> = None;
    for (i, result) in results.iter().enumerate() {
        let checked = result.as_ref().map_err(Clone::clone).and_then(|points| {
            check_points(points)?;
            let csv = campaign_to_csv(points);
            match &first {
                None => check_alpha_one(&inputs, points)?,
                Some((_, first_csv)) if *first_csv != csv => {
                    return Err("CSV differs from the first campaign's".to_string())
                }
                Some(_) => {}
            }
            Ok((points, csv))
        });
        match checked {
            Ok(done) => {
                first.get_or_insert(done);
            }
            Err(e) => out.fail(format!("campaign {i}: {e}")),
        }
    }
    let (success_share, makespan_ratio) = first.as_ref().map_or((0.0, 0.0), |f| summary(f.0));

    out.metric("wall_s", median(&walls), "s", walls.len());
    out.metric("setup_s", setup_s, "s", 3);
    out.metric("peak_rss_mb", peak_rss_mb, "MiB", 1);
    out.metric("makespan_ratio", makespan_ratio, "ratio", DAGS);
    out.metric("success_share", success_share, "share", DAGS);
    out
}

/// One (DAG, α, solver) grid of normalised makespans.
type DagOutcomes = Vec<Vec<Option<f64>>>;

/// The body of the campaign's per-DAG step, with a span per public call:
/// daggen, the HEFT reference, then every (α, solver) solve.
fn traced_dag(tracer: &mut Tracer, inputs: &Inputs, rng: &Pcg64) -> DagOutcomes {
    tracer.span("campaign.dag", |t| {
        let mut rng = rng.clone();
        let set = &inputs.set;
        let graph = t.span("gen.daggen", |_| {
            daggen::generate(&set.shape, &set.weights, &mut rng)
        });
        let reference = t.span("sweep.heft_reference", |t| {
            traced_reference(t, &graph, &inputs.platform)
        });
        let memory = reference.heft_peaks.max();
        let makespan = reference.heft_makespan.max(f64::MIN_POSITIVE);
        let ctx = SolveCtx::with_limits(SolveLimits::with_node_limit(
            inputs.config.optimal_node_limit,
        ));
        inputs
            .config
            .alphas
            .iter()
            .map(|&alpha| {
                let bounded = inputs
                    .platform
                    .with_memory_bounds(alpha * memory, alpha * memory);
                inputs
                    .solvers
                    .iter()
                    .map(|solver| {
                        let outcome =
                            t.span("sched.solve", |_| solver.solve(&graph, &bounded, &ctx));
                        if outcome.makespan().is_none() {
                            t.flag_last();
                        }
                        outcome.makespan().map(|m| m / makespan)
                    })
                    .collect()
            })
            .collect()
    })
}

/// One untraced campaign, then the same campaign with spans: the seed
/// forks, chunks and pool of `run_streaming_campaign`, with each DAG's
/// step traced on the worker that ran it.
fn traced(ctx: &Ctx) -> Outcome {
    let mut out = Outcome {
        attempted: 2,
        ..Outcome::default()
    };
    let inputs = inputs(ctx.seed);
    let started = Instant::now();
    let untraced = campaign(&inputs);
    let untraced_s = started.elapsed().as_secs_f64();

    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    let mut grids: Vec<DagOutcomes> = Vec::with_capacity(DAGS);
    let mut master = Pcg64::new(inputs.set.seed);
    let chunk = inputs.config.parallel.resolved_threads().max(1) * 4;
    let mut lo = 0;
    while lo < DAGS {
        let hi = (lo + chunk).min(DAGS);
        let rngs: Vec<Pcg64> = (lo..hi).map(|i| master.fork(i as u64)).collect();
        let done = parallel_map_indexed(&rngs, inputs.config.parallel, |i, rng| {
            let mut worker = Tracer::new(epoch);
            worker.set_request((lo + i) as u64 + 1);
            let grid = traced_dag(&mut worker, &inputs, rng);
            (grid, worker)
        });
        for (grid, worker) in done {
            grids.push(grid);
            tracer.absorb(worker);
        }
        lo = hi;
    }
    let traced_s = epoch.elapsed().as_secs_f64();

    // Check: the traced path reproduces the campaign's aggregates.
    let reproduced = untraced.and_then(|points| {
        check_points(&points)?;
        check_alpha_one(&inputs, &points)?;
        for (a, point) in points.iter().enumerate() {
            for (m, method) in point.methods.iter().enumerate() {
                let values: Vec<f64> = grids.iter().filter_map(|g| g[a][m]).collect();
                let rate = values.len() as f64 / DAGS as f64;
                let mean = measure::mean(&values);
                let same_mean = match method.mean_normalized_makespan {
                    Some(x) => (x - mean).abs() <= 1e-9 * x.abs(),
                    None => values.is_empty(),
                };
                if rate != method.success_rate || !same_mean {
                    return Err(format!(
                        "traced campaign differs at alpha {} for {}",
                        point.alpha, method.name
                    ));
                }
            }
        }
        Ok(())
    });
    if let Err(e) = reproduced {
        out.fail(e);
    }

    let reduced = Reduced::of(&tracer.spans);
    span_metrics(&mut out, &reduced, 1, traced_s, untraced_s);
    let infeasible: Vec<f64> = tracer
        .spans
        .iter()
        .filter(|s| s.flagged)
        .map(|s| s.duration())
        .collect();
    out.metric(
        "sched.infeasible_solves",
        infeasible.len() as f64,
        "count",
        1,
    );
    out.metric(
        "sched.infeasible_ms",
        infeasible.iter().sum::<f64>() * 1e3,
        "ms",
        1,
    );
    out.metric(
        "campaign.dag_ms",
        reduced.total_of("campaign.dag") * 1e3 / DAGS as f64,
        "ms",
        DAGS,
    );
    out.note(format!(
        "span times are summed over the {THREADS} pool threads; campaign.dag_ms is per DAG"
    ));
    ctx.write_trace("fig12-paper", &tracer, &mut out);
    out
}
