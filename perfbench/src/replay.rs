//! `replay-poisson-10k`: `online::replay` of a 10⁴-task α = 1 instance
//! under a Poisson(50) arrival trace, online MemHEFT re-planning on every
//! arrival, 1 thread — the `replay` binary's defaults, called in-process.
//! The only workload of the online layer.

use crate::measure::{self, median, median_setup, timed_loop, Outcome};
use crate::trace::{Reduced, Tracer};
use crate::{span_metrics, Ctx};
use mals_experiments::heft_reference;
use mals_gen::{daggen, ArrivalProcess, ArrivalTrace, DaggenParams, WeightRanges};
use mals_platform::Platform;
use mals_sched::{online, OnlineConfig, OnlineFlavor, OnlineOutcome, ReplanPolicy, SolveCtx};
use mals_sim::validate;
use mals_util::Pcg64;
use std::time::Instant;

const TASKS: usize = 10_000;
const RATE: f64 = 50.0;

/// The replay binary's instance for `seed`: daggen DAG, both bounds at the
/// HEFT schedule's peak, Poisson arrivals.
struct Instance {
    graph: mals_dag::TaskGraph,
    platform: Platform,
    trace: ArrivalTrace,
    heft_makespan: f64,
}

fn build(seed: u64) -> Instance {
    let graph = daggen::generate(
        &DaggenParams::large_rand().with_size(TASKS),
        &WeightRanges::large_rand(),
        &mut Pcg64::new(seed),
    );
    let platform = Platform::single_pair(0.0, 0.0);
    let reference = heft_reference(&graph, &platform);
    let bound = reference.heft_peaks.max();
    let trace = ArrivalProcess::Poisson { rate: RATE }.generate(&graph, seed);
    Instance {
        platform: platform.with_memory_bounds(bound, bound),
        graph,
        trace,
        heft_makespan: reference.heft_makespan,
    }
}

fn replay_once(instance: &Instance) -> Result<OnlineOutcome, String> {
    online::replay(
        &instance.graph,
        &instance.platform,
        &instance.trace,
        OnlineConfig::new(OnlineFlavor::MemHeft, ReplanPolicy::EveryArrival),
        &SolveCtx::sequential(),
    )
    .map_err(|e| format!("replay failed: {e}"))
}

/// The online schedule validates within the bounds, and no task starts
/// before it arrives.
fn check_outcome(instance: &Instance, outcome: &OnlineOutcome) -> Result<(), String> {
    let verdict = validate(&instance.graph, &instance.platform, &outcome.schedule);
    if !verdict.is_valid() {
        return Err(format!(
            "online schedule fails validation: {} errors",
            verdict.errors.len()
        ));
    }
    let mut arrival = vec![f64::NAN; instance.graph.n_tasks()];
    for event in instance.trace.events() {
        for task in &event.tasks {
            arrival[task.index()] = event.at;
        }
    }
    for placement in outcome.schedule.task_placements() {
        let at = arrival[placement.task.index()];
        if at.is_nan() || placement.start < at - mals_util::EPSILON {
            return Err(format!(
                "task {} starts at {} before its arrival at {at}",
                placement.task.index(),
                placement.start
            ));
        }
    }
    if outcome.makespan != outcome.schedule.makespan() {
        return Err("reported makespan differs from the schedule's".into());
    }
    Ok(())
}

pub fn run(ctx: &Ctx) -> Outcome {
    if ctx.trace {
        return traced(ctx);
    }
    let mut out = Outcome::default();
    let (setup_s, instance) = median_setup(3, || build(ctx.seed));

    let mut results: Vec<Result<OnlineOutcome, String>> = Vec::new();
    let walls = timed_loop(ctx.budget(), 1, || {
        let result = replay_once(&instance);
        let keep_going = result.is_ok();
        results.push(result);
        keep_going
    });
    let peak_rss_mb = measure::self_peak_rss_mb();

    // Checks, outside the timed window: the first schedule in full, every
    // later one bit-identical to it.
    out.attempted = results.len();
    let mut ratios = Vec::new();
    let mut first: Option<&OnlineOutcome> = None;
    for (i, result) in results.iter().enumerate() {
        let checked = result.as_ref().map_err(Clone::clone).and_then(|o| {
            match first {
                None => check_outcome(&instance, o)?,
                Some(f) if f.schedule != o.schedule => {
                    return Err("schedule differs from the first replay's".into())
                }
                Some(_) => {}
            }
            Ok(o)
        });
        match checked {
            Ok(o) => {
                first.get_or_insert(o);
                ratios.push(o.makespan / instance.heft_makespan);
            }
            Err(e) => out.fail(format!("replay {i}: {e}")),
        }
    }

    out.metric("wall_s", median(&walls), "s", walls.len());
    out.metric("setup_s", setup_s, "s", 3);
    out.metric("peak_rss_mb", peak_rss_mb, "MiB", 1);
    out.metric(
        "makespan_ratio",
        measure::mean(&ratios),
        "ratio",
        ratios.len(),
    );
    out.metric(
        "success_share",
        ratios.len() as f64 / results.len().max(1) as f64,
        "share",
        results.len(),
    );
    if let Some(o) = first {
        out.note(format!(
            "replans {} events {} re-planning total {:.1} ms per replay",
            o.replans,
            o.events,
            o.replan_total.as_secs_f64() * 1e3
        ));
    }
    out
}

/// One untraced replay, then one inside an `online.replay` span whose
/// synthetic `online.replan` child is the outcome's `replan_total`; the
/// rest of the call is admission (`online.admit_ms`).
fn traced(ctx: &Ctx) -> Outcome {
    let mut out = Outcome {
        attempted: 2,
        ..Outcome::default()
    };
    let instance = build(ctx.seed);
    let started = Instant::now();
    let untraced = replay_once(&instance);
    let untraced_s = started.elapsed().as_secs_f64();

    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    tracer.set_request(1);
    let traced = tracer.span("online.replay", |t| {
        let result = replay_once(&instance);
        if let Ok(o) = &result {
            t.synthetic("online.replan", o.replan_total.as_secs_f64());
        }
        result
    });
    let traced_s = epoch.elapsed().as_secs_f64();

    // `online::replay` never calls `validate`, so the check below is not
    // timed: `sim.validate_ms` reads 0 here.
    let checked = traced.as_ref().map_err(Clone::clone).and_then(|o| {
        check_outcome(&instance, o)?;
        match &untraced {
            Ok(u) if u.schedule == o.schedule => Ok(o),
            Ok(_) => Err("traced and untraced schedules differ".to_string()),
            Err(e) => Err(e.clone()),
        }
    });
    match checked {
        Ok(o) => {
            out.metric("online.replans", o.replans as f64, "count", 1);
            out.metric("online.events", o.events as f64, "count", 1);
        }
        Err(e) => out.fail(e),
    }
    span_metrics(
        &mut out,
        &Reduced::of(&tracer.spans),
        1,
        traced_s,
        untraced_s,
    );
    ctx.write_trace("replay-poisson-10k", &tracer, &mut out);
    out
}
