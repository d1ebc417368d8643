//! Normalised campaigns over whole DAG sets (Figures 10 and 12), built for
//! scale: streaming aggregation and checkpoint/resume.
//!
//! For every DAG of a set, the memory axis is normalised by the amount of
//! memory the classical HEFT schedule of that DAG needs
//! (`max(M_blue^HEFT, M_red^HEFT)`), and the makespan axis by HEFT's
//! makespan. At every normalised bound `α ∈ [0, 1]` the campaign reports, for
//! each solver, the average normalised makespan over the DAGs it managed
//! to schedule and the fraction of DAGs it managed to schedule (the paper's
//! plain and dotted lines).
//!
//! Solvers are selected **by registry key** ([`CampaignConfig::solvers`],
//! resolved against `mals_exact::solver_registry()`), so heuristics and
//! exact backends run through one code path. Each DAG costs one
//! [`Solver::solve_sweep_with`] call per solver over the whole α grid: the
//! list heuristics solve the grid in one pass that shares every step no
//! bound constrains, with outcomes bit for bit those of one solve per α,
//! each reduced to its normalised makespan as soon as it is final.
//!
//! # Streaming aggregation
//!
//! Campaign memory is independent of the number of DAGs: each instance is
//! generated from its seed, solved at every `(α, solver)` point, folded into
//! a [`CampaignAccumulator`] (Welford statistics plus a fixed-grid quantile
//! sketch per series, from `mals_util::streaming`), and dropped. Folding
//! happens in DAG-index order no matter how the solves were spread over
//! threads, so the aggregates — and therefore the final CSV — are identical
//! for every thread count and every chunking.
//!
//! # Checkpoint / resume
//!
//! [`run_streaming_campaign`] can persist a JSON checkpoint (seed cursor +
//! aggregates, via `mals_util::json`, whose float encoding round-trips
//! bit-exactly) after every chunk of DAGs. A killed campaign resumed from
//! its checkpoint folds the exact same stream of values in the exact same
//! order, so the final aggregates are byte-identical to an uninterrupted
//! run; a checkpoint recorded under a different configuration is rejected by
//! a fingerprint check instead of silently blending two campaigns.

use crate::sweep::heft_baseline;
use mals_dag::TaskGraph;
use mals_gen::{daggen, SetParams};
use mals_platform::Platform;
use mals_sched::{SolveCtx, SolveLimits, Solver};
use mals_util::streaming::{stats_from_json, stats_to_json};
use mals_util::{parallel_map, Json, OnlineStats, ParallelConfig, Pcg64, QuantileSketch};
use std::path::PathBuf;

/// Configuration of a normalised campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Normalised memory bounds to sweep (fractions of HEFT's requirement).
    pub alphas: Vec<f64>,
    /// Registry keys of the solvers to run (default: `memheft`,
    /// `memminmin`; append `"bb"` / `"milp"` for an optimal series).
    pub solvers: Vec<String>,
    /// Node budget of the exact solvers.
    pub optimal_node_limit: u64,
    /// Parallelism used to spread the DAGs over threads.
    pub parallel: ParallelConfig,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            alphas: (0..=20).map(|i| i as f64 / 20.0).collect(),
            solvers: vec!["memheft".into(), "memminmin".into()],
            optimal_node_limit: 200_000,
            parallel: ParallelConfig::default(),
        }
    }
}

impl CampaignConfig {
    /// Appends a solver (by registry key) to the campaign.
    pub fn with_solver(mut self, key: impl Into<String>) -> Self {
        self.solvers.push(key.into());
        self
    }

    /// Campaign with the default exact solver (`bb`) enabled — the Figure 10
    /// configuration.
    pub fn with_optimal(mut self, node_limit: u64) -> Self {
        self.optimal_node_limit = node_limit;
        self.with_solver("bb")
    }
}

/// Aggregated results of one solver at one normalised memory bound.
#[derive(Debug, Clone)]
pub struct MethodAggregate {
    /// Solver display name.
    pub name: String,
    /// Mean of `makespan / makespan_HEFT` over the DAGs successfully
    /// scheduled (`None` when every DAG failed).
    pub mean_normalized_makespan: Option<f64>,
    /// Fraction of the DAGs successfully scheduled.
    pub success_rate: f64,
}

/// One point (one normalised memory bound) of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignPoint {
    /// Normalised memory bound `α`.
    pub alpha: f64,
    /// Per-solver aggregates.
    pub methods: Vec<MethodAggregate>,
}

impl CampaignPoint {
    /// Looks a method up by display name.
    pub fn method(&self, name: &str) -> Option<&MethodAggregate> {
        self.methods.iter().find(|m| m.name == name)
    }
}

/// Raw per-DAG, per-alpha outcome (normalised makespan or failure).
struct DagOutcomes {
    /// `per_alpha[alpha_index][method_index]`
    per_alpha: Vec<Vec<Option<f64>>>,
}

/// Constant-memory campaign state: one Welford accumulator and one quantile
/// sketch per `(α, solver)` series, plus the seed cursor. Fold order is the
/// DAG-index order, which makes the accumulated floats — and anything
/// printed from them — independent of threading and of any checkpoint/resume
/// boundary.
#[derive(Debug, Clone)]
pub struct CampaignAccumulator {
    alphas: Vec<f64>,
    names: Vec<String>,
    /// `stats[alpha_index][method_index]` over successful normalised makespans.
    stats: Vec<Vec<OnlineStats>>,
    /// Same layout; approximate distribution of the successes.
    sketches: Vec<Vec<QuantileSketch>>,
    /// Number of DAGs folded so far (the resume cursor).
    dags_done: usize,
}

impl CampaignAccumulator {
    /// Creates an empty accumulator for the given series grid.
    pub fn new(alphas: &[f64], names: &[String]) -> Self {
        CampaignAccumulator {
            alphas: alphas.to_vec(),
            names: names.to_vec(),
            stats: vec![vec![OnlineStats::new(); names.len()]; alphas.len()],
            sketches: vec![vec![QuantileSketch::normalized_makespan(); names.len()]; alphas.len()],
            dags_done: 0,
        }
    }

    /// Number of DAGs folded so far.
    pub fn dags_done(&self) -> usize {
        self.dags_done
    }

    /// Folds one DAG's outcomes in.
    fn fold(&mut self, outcomes: &DagOutcomes) {
        for (alpha_idx, row) in outcomes.per_alpha.iter().enumerate() {
            for (method_idx, outcome) in row.iter().enumerate() {
                if let Some(norm) = outcome {
                    self.stats[alpha_idx][method_idx].push(*norm);
                    self.sketches[alpha_idx][method_idx].push(*norm);
                }
            }
        }
        self.dags_done += 1;
    }

    /// Approximate median normalised makespan of one series (from the
    /// fixed-grid sketch), if any DAG succeeded there.
    pub fn approx_median(&self, alpha_idx: usize, method_idx: usize) -> Option<f64> {
        self.sketches[alpha_idx][method_idx].median()
    }

    /// Renders the aggregates as campaign points. `total_dags` is the
    /// denominator of the success rates (the full set size).
    pub fn points(&self, total_dags: usize) -> Vec<CampaignPoint> {
        self.alphas
            .iter()
            .enumerate()
            .map(|(alpha_idx, &alpha)| {
                let methods = self
                    .names
                    .iter()
                    .enumerate()
                    .map(|(method_idx, name)| {
                        let stats = &self.stats[alpha_idx][method_idx];
                        MethodAggregate {
                            name: name.clone(),
                            mean_normalized_makespan: (stats.count() > 0).then(|| stats.mean()),
                            success_rate: if total_dags == 0 {
                                0.0
                            } else {
                                stats.count() as f64 / total_dags as f64
                            },
                        }
                    })
                    .collect();
                CampaignPoint { alpha, methods }
            })
            .collect()
    }

    /// Serialises the accumulator (checkpoint payload).
    fn to_json(&self) -> Json {
        let series = |rows: &Vec<Vec<OnlineStats>>| {
            Json::Arr(
                rows.iter()
                    .map(|row| Json::Arr(row.iter().map(stats_to_json).collect()))
                    .collect(),
            )
        };
        Json::obj([
            ("dags_done", Json::Num(self.dags_done as f64)),
            ("stats", series(&self.stats)),
            (
                "sketches",
                Json::Arr(
                    self.sketches
                        .iter()
                        .map(|row| Json::Arr(row.iter().map(QuantileSketch::to_json).collect()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Restores an accumulator with the given grid from a checkpoint
    /// payload.
    fn from_json(alphas: &[f64], names: &[String], json: &Json) -> Result<Self, String> {
        let dags_done = json
            .get("dags_done")
            .and_then(Json::as_usize)
            .ok_or("checkpoint: missing dags_done")?;
        let parse_grid = |key: &str| -> Result<Vec<Vec<&Json>>, String> {
            let rows = json
                .get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("checkpoint: missing {key}"))?;
            if rows.len() != alphas.len() {
                return Err(format!("checkpoint: {key} has wrong alpha count"));
            }
            rows.iter()
                .map(|row| {
                    let row = row
                        .as_arr()
                        .ok_or_else(|| format!("checkpoint: malformed {key} row"))?;
                    if row.len() != names.len() {
                        return Err(format!("checkpoint: {key} has wrong method count"));
                    }
                    Ok(row.iter().collect())
                })
                .collect()
        };
        let stats = parse_grid("stats")?
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .map(|cell| stats_from_json(cell).ok_or("checkpoint: bad stats cell"))
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()?;
        let sketches = parse_grid("sketches")?
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .map(|cell| QuantileSketch::from_json(cell).ok_or("checkpoint: bad sketch"))
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CampaignAccumulator {
            alphas: alphas.to_vec(),
            names: names.to_vec(),
            stats,
            sketches,
            dags_done,
        })
    }
}

/// Resolves the configured solver keys against the full registry.
///
/// # Panics
/// Panics on an unknown key — campaign configurations are written by the
/// figure drivers, so this is a programming error, and the message lists
/// the valid keys.
fn build_solvers(config: &CampaignConfig) -> Vec<Box<dyn Solver>> {
    let registry = mals_exact::solver_registry();
    config
        .solvers
        .iter()
        .map(|key| {
            registry.build(key).unwrap_or_else(|| {
                panic!(
                    "unknown solver `{key}` in campaign config (known: {})",
                    registry.keys().join(", ")
                )
            })
        })
        .collect()
}

/// Runs the normalised campaign over pre-generated `dags` on `platform`
/// (whose memory bounds are ignored — they are replaced by the swept
/// values). Outcomes are folded into a [`CampaignAccumulator`] as they
/// arrive instead of being collected.
pub fn run_normalized_campaign(
    dags: &[TaskGraph],
    platform: &Platform,
    config: &CampaignConfig,
) -> Vec<CampaignPoint> {
    let solvers = build_solvers(config);
    let names: Vec<String> = solvers.iter().map(|s| s.name().to_string()).collect();
    let mut acc = CampaignAccumulator::new(&config.alphas, &names);
    // Chunked fan-out: each chunk's DAGs solve in parallel, then fold in
    // index order, so memory stays bounded by the chunk and the result is
    // thread-count invariant.
    for chunk in dags.chunks(campaign_chunk_size(config.parallel)) {
        let outcomes = parallel_map(chunk, config.parallel, |graph| {
            run_one_dag(graph, platform, config, &solvers)
        });
        for outcome in &outcomes {
            acc.fold(outcome);
        }
    }
    acc.points(dags.len())
}

/// DAGs solved per fan-out round (and between checkpoint writes).
fn campaign_chunk_size(parallel: ParallelConfig) -> usize {
    parallel.resolved_threads().max(1) * 4
}

/// Checkpoint / progress options of a streaming campaign run.
#[derive(Debug, Clone, Default)]
pub struct CampaignIo {
    /// Checkpoint file, written after every chunk of DAGs.
    pub checkpoint: Option<PathBuf>,
    /// Resume from the checkpoint file instead of starting fresh.
    pub resume: bool,
    /// Stop (after checkpointing) once this many DAGs were folded *in this
    /// run* — a deterministic stand-in for a mid-campaign kill, used by the
    /// resume round-trip checks.
    pub stop_after: Option<usize>,
    /// Emit a progress line on stderr after every chunk.
    pub progress: bool,
}

/// Outcome of a [`run_streaming_campaign`] call.
#[derive(Debug, Clone)]
pub struct CampaignRun {
    /// The campaign points — `None` when the run stopped early
    /// ([`CampaignIo::stop_after`]) with a checkpoint on disk.
    pub points: Option<Vec<CampaignPoint>>,
    /// DAGs folded so far (across all runs of this campaign).
    pub dags_done: usize,
    /// Total DAGs in the set.
    pub total_dags: usize,
}

/// The configuration fingerprint stored in (and checked against) a
/// checkpoint: resuming under a different DAG set, platform, grid or solver
/// list must fail loudly, not blend two campaigns.
fn fingerprint_json(set: &SetParams, platform: &Platform, config: &CampaignConfig) -> Json {
    let range = |(lo, hi): (u64, u64)| Json::Arr(vec![Json::Num(lo as f64), Json::Num(hi as f64)]);
    Json::obj([
        // Stringly encoded: seeds are arbitrary 64-bit values, beyond what a
        // JSON number represents exactly.
        ("seed", Json::str(set.seed.to_string())),
        ("count", Json::Num(set.count as f64)),
        ("size", Json::Num(set.shape.size as f64)),
        ("width", Json::Num(set.shape.width)),
        ("density", Json::Num(set.shape.density)),
        ("jumps", Json::Num(set.shape.jumps as f64)),
        ("work", range(set.weights.work)),
        ("file_size", range(set.weights.file_size)),
        ("comm_cost", range(set.weights.comm_cost)),
        // The platform's processor counts/speeds change every makespan; its
        // memory bounds are overridden by the swept α values but ride along
        // harmlessly.
        ("platform", platform.to_json()),
        (
            "alphas",
            Json::Arr(config.alphas.iter().map(|&a| Json::Num(a)).collect()),
        ),
        (
            "solvers",
            Json::Arr(config.solvers.iter().map(Json::str).collect()),
        ),
        ("node_limit", Json::Num(config.optimal_node_limit as f64)),
    ])
}

/// Runs a normalised campaign directly from the set's seeds: every DAG is
/// generated, solved at every `(α, solver)` point, folded into the
/// accumulator and dropped — memory is constant in the number of DAGs, which
/// is what lets the harness sweep thousands of seeds of 10⁴–10⁵-task
/// instances. With [`CampaignIo::checkpoint`] the accumulator and seed
/// cursor are persisted after every chunk; a resumed run produces
/// byte-identical final aggregates to an uninterrupted one.
pub fn run_streaming_campaign(
    set: &SetParams,
    platform: &Platform,
    config: &CampaignConfig,
    io: &CampaignIo,
) -> Result<CampaignRun, String> {
    // A stop without a checkpoint would silently discard every solved DAG
    // (and a zero budget would stop before the first checkpoint write):
    // reject both instead of losing work.
    match io.stop_after {
        Some(0) => return Err("stop-after expects a positive DAG count".into()),
        Some(_) if io.checkpoint.is_none() => {
            return Err(
                "stop-after without a checkpoint would discard the completed work; \
                 pass a checkpoint path"
                    .into(),
            )
        }
        _ => {}
    }
    let solvers = build_solvers(config);
    let names: Vec<String> = solvers.iter().map(|s| s.name().to_string()).collect();
    let fingerprint = fingerprint_json(set, platform, config);

    let mut acc = CampaignAccumulator::new(&config.alphas, &names);
    if io.resume {
        let path = io
            .checkpoint
            .as_ref()
            .ok_or("resume requested without a checkpoint path")?;
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read checkpoint {}: {e}", path.display()))?;
        let json = Json::parse(&text).map_err(|e| format!("bad checkpoint: {e}"))?;
        let stored = json
            .get("fingerprint")
            .ok_or("checkpoint: no fingerprint")?;
        if *stored != fingerprint {
            return Err(
                "checkpoint was recorded under a different campaign configuration \
                 (set/platform/alphas/solvers/limits); refusing to resume"
                    .into(),
            );
        }
        let payload = json
            .get("accumulator")
            .ok_or("checkpoint: no accumulator")?;
        acc = CampaignAccumulator::from_json(&config.alphas, &names, payload)?;
        if acc.dags_done() > set.count {
            return Err(format!(
                "checkpoint cursor {} exceeds the campaign size {}",
                acc.dags_done(),
                set.count
            ));
        }
    }

    // Replay the seed derivation up to the cursor: forking the master RNG is
    // O(1) per DAG, so resuming never regenerates (or re-solves) anything.
    // Forks are drawn one chunk at a time (the cursor only moves forward),
    // keeping memory constant in the number of seeds.
    let mut master = Pcg64::new(set.seed);
    for i in 0..acc.dags_done() {
        let _ = master.fork(i as u64);
    }

    let chunk_size = campaign_chunk_size(config.parallel);
    let mut folded_this_run = 0usize;
    while acc.dags_done() < set.count {
        let lo = acc.dags_done();
        let mut hi = (lo + chunk_size).min(set.count);
        if let Some(stop_after) = io.stop_after {
            let budget = stop_after.saturating_sub(folded_this_run);
            hi = hi.min(lo + budget);
            if hi == lo {
                break;
            }
        }
        let chunk_rngs: Vec<Pcg64> = (lo..hi).map(|i| master.fork(i as u64)).collect();
        let outcomes = parallel_map(&chunk_rngs, config.parallel, |rng| {
            let mut rng = rng.clone();
            let graph = daggen::generate(&set.shape, &set.weights, &mut rng);
            run_one_dag(&graph, platform, config, &solvers)
        });
        for outcome in &outcomes {
            acc.fold(outcome);
        }
        folded_this_run += hi - lo;

        if let Some(path) = &io.checkpoint {
            let checkpoint = Json::obj([
                ("schema", Json::Num(1.0)),
                ("kind", Json::str("mals-campaign-checkpoint")),
                ("fingerprint", fingerprint.clone()),
                ("accumulator", acc.to_json()),
            ]);
            // Write-then-rename so the kill this file exists to survive can
            // never leave a truncated checkpoint behind: the previous good
            // one stays intact until the replacement is fully on disk.
            let tmp = path.with_extension("tmp");
            std::fs::write(&tmp, checkpoint.to_pretty())
                .map_err(|e| format!("cannot write checkpoint {}: {e}", tmp.display()))?;
            std::fs::rename(&tmp, path)
                .map_err(|e| format!("cannot finalise checkpoint {}: {e}", path.display()))?;
        }
        if io.progress {
            progress_line(&acc, set.count, &names);
        }
    }

    let complete = acc.dags_done() == set.count;
    Ok(CampaignRun {
        points: complete.then(|| acc.points(set.count)),
        dags_done: acc.dags_done(),
        total_dags: set.count,
    })
}

/// One stderr progress line: cursor plus the α = 1 series summary (success
/// rate, streaming mean and sketch median of the first solver).
fn progress_line(acc: &CampaignAccumulator, total: usize, names: &[String]) {
    let last_alpha = acc.alphas.len().saturating_sub(1);
    let stats = &acc.stats[last_alpha][0];
    let median = acc
        .approx_median(last_alpha, 0)
        .map(|m| format!("{m:.3}"))
        .unwrap_or_else(|| "-".into());
    eprintln!(
        "# campaign: {}/{} dags | {} @ alpha={:.2}: n={} mean={:.3} p50~{}",
        acc.dags_done(),
        total,
        names.first().map(String::as_str).unwrap_or("?"),
        acc.alphas.get(last_alpha).copied().unwrap_or(1.0),
        stats.count(),
        stats.mean(),
        median,
    );
}

fn run_one_dag(
    graph: &TaskGraph,
    platform: &Platform,
    config: &CampaignConfig,
    solvers: &[Box<dyn Solver>],
) -> DagOutcomes {
    let baseline = heft_baseline(graph, platform);
    let baseline_memory = baseline.peaks.max();
    let baseline_makespan = baseline.makespan.max(f64::MIN_POSITIVE);
    let ctx = SolveCtx::with_limits(SolveLimits::with_node_limit(config.optimal_node_limit));

    let bounded: Vec<Platform> = config
        .alphas
        .iter()
        .map(|&alpha| {
            let bound = alpha * baseline_memory;
            platform.with_memory_bounds(bound, bound)
        })
        .collect();
    let mut per_alpha = vec![vec![None; solvers.len()]; bounded.len()];
    for (method, solver) in solvers.iter().enumerate() {
        // Streamed: each outcome is reduced to its normalised makespan as
        // soon as it is final, so the grid's schedules are never all alive.
        solver.solve_sweep_with(graph, &bounded, &ctx, &mut |i, outcome| {
            let makespan = crate::sweep::checked(solver.as_ref(), outcome);
            per_alpha[i][method] = makespan.map(|m| m / baseline_makespan);
        });
    }
    DagOutcomes { per_alpha }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mals_gen::SetParams;

    fn tiny_campaign(include_optimal: bool) -> Vec<CampaignPoint> {
        let dags = SetParams::small_rand().scaled(4, 8).generate();
        let platform = Platform::single_pair(0.0, 0.0);
        let mut config = CampaignConfig {
            alphas: vec![0.2, 0.5, 1.0],
            optimal_node_limit: 20_000,
            parallel: ParallelConfig::sequential(),
            ..Default::default()
        };
        if include_optimal {
            config = config.with_solver("bb");
        }
        run_normalized_campaign(&dags, &platform, &config)
    }

    #[test]
    fn campaign_structure() {
        let points = tiny_campaign(false);
        assert_eq!(points.len(), 3);
        for p in &points {
            assert_eq!(p.methods.len(), 2);
            assert!(p.method("MemHEFT").is_some());
            assert!(p.method("MemMinMin").is_some());
            for m in &p.methods {
                assert!((0.0..=1.0).contains(&m.success_rate));
            }
        }
    }

    #[test]
    fn full_memory_reproduces_heft_equivalence() {
        // At alpha = 1 the bounds equal HEFT's own requirement, so MemHEFT
        // succeeds on every DAG and its normalised makespan is 1.
        let points = tiny_campaign(false);
        let full = points.last().unwrap();
        let memheft = full.method("MemHEFT").unwrap();
        assert_eq!(memheft.success_rate, 1.0);
        let mean = memheft.mean_normalized_makespan.unwrap();
        assert!(
            (mean - 1.0).abs() < 1e-9,
            "mean normalised makespan {mean} should be 1 at alpha=1"
        );
    }

    #[test]
    fn success_rate_increases_with_memory() {
        let points = tiny_campaign(false);
        for name in ["MemHEFT", "MemMinMin"] {
            let rates: Vec<f64> = points
                .iter()
                .map(|p| p.method(name).unwrap().success_rate)
                .collect();
            for w in rates.windows(2) {
                assert!(
                    w[1] >= w[0] - 1e-9,
                    "{name} success rate must not decrease with memory"
                );
            }
        }
    }

    #[test]
    fn optimal_is_at_least_as_good_as_heuristics() {
        let points = tiny_campaign(true);
        for p in &points {
            let opt = p.method("Optimal(B&B)").unwrap();
            for name in ["MemHEFT", "MemMinMin"] {
                let h = p.method(name).unwrap();
                // The optimal schedules at least as many DAGs…
                assert!(opt.success_rate >= h.success_rate - 1e-9);
            }
        }
    }

    #[test]
    fn milp_backend_campaign_dominates_bb_series() {
        // The MILP backend must schedule at least as many DAGs as B&B and
        // never report a worse mean at any point of a tiny campaign.
        let dags = SetParams::small_rand().scaled(2, 6).generate();
        let platform = Platform::single_pair(0.0, 0.0);
        let base = CampaignConfig {
            alphas: vec![0.5, 1.0],
            optimal_node_limit: 50_000,
            parallel: ParallelConfig::sequential(),
            ..Default::default()
        };
        let bb = run_normalized_campaign(&dags, &platform, &base.clone().with_solver("bb"));
        let milp = run_normalized_campaign(&dags, &platform, &base.with_solver("milp"));
        for (p, q) in bb.iter().zip(&milp) {
            let a = p.method("Optimal(B&B)").unwrap();
            let b = q.method("Optimal(MILP)").unwrap();
            assert!(b.success_rate >= a.success_rate - 1e-9);
            if let (Some(x), Some(y)) = (a.mean_normalized_makespan, b.mean_normalized_makespan) {
                assert!(y <= x + 1e-6, "MILP mean {y} worse than B&B mean {x}");
            }
        }
    }

    #[test]
    fn empty_dag_set() {
        let platform = Platform::single_pair(0.0, 0.0);
        let config = CampaignConfig {
            alphas: vec![0.5],
            ..Default::default()
        };
        let points = run_normalized_campaign(&[], &platform, &config);
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].methods[0].success_rate, 0.0);
        assert!(points[0].methods[0].mean_normalized_makespan.is_none());
    }

    #[test]
    #[should_panic(expected = "unknown solver")]
    fn unknown_solver_key_panics_with_known_list() {
        let platform = Platform::single_pair(0.0, 0.0);
        let config = CampaignConfig::default().with_solver("cplex");
        run_normalized_campaign(&[], &platform, &config);
    }

    // ---- streaming / checkpoint tests ----

    fn tiny_set() -> SetParams {
        SetParams::small_rand().scaled(6, 8)
    }

    fn tiny_stream_config() -> CampaignConfig {
        CampaignConfig {
            alphas: vec![0.4, 1.0],
            optimal_node_limit: 10_000,
            parallel: ParallelConfig::sequential(),
            ..Default::default()
        }
    }

    fn points_csv(points: &[CampaignPoint]) -> String {
        crate::csv::campaign_to_csv(points)
    }

    #[test]
    fn streaming_campaign_matches_batch_campaign() {
        let set = tiny_set();
        let platform = Platform::single_pair(0.0, 0.0);
        let config = tiny_stream_config();
        let batch = run_normalized_campaign(&set.generate(), &platform, &config);
        let streamed = run_streaming_campaign(&set, &platform, &config, &CampaignIo::default())
            .unwrap()
            .points
            .expect("no stop requested");
        assert_eq!(points_csv(&batch), points_csv(&streamed));
    }

    #[test]
    fn killed_campaign_resumes_to_byte_identical_aggregates() {
        let set = tiny_set();
        let platform = Platform::single_pair(0.0, 0.0);
        let config = tiny_stream_config();
        let uninterrupted =
            run_streaming_campaign(&set, &platform, &config, &CampaignIo::default())
                .unwrap()
                .points
                .unwrap();

        let dir = std::env::temp_dir().join(format!(
            "mals-campaign-ck-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let ck = dir.join("checkpoint.json");
        // "Kill" the campaign after 2 of 6 DAGs (the chunk size exceeds the
        // budget, so this also exercises the partial-chunk path)…
        let stopped = run_streaming_campaign(
            &set,
            &platform,
            &config,
            &CampaignIo {
                checkpoint: Some(ck.clone()),
                stop_after: Some(2),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(stopped.points.is_none());
        assert_eq!(stopped.dags_done, 2);
        // …then resume to completion.
        let resumed = run_streaming_campaign(
            &set,
            &platform,
            &config,
            &CampaignIo {
                checkpoint: Some(ck.clone()),
                resume: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(resumed.dags_done, set.count);
        let resumed_points = resumed.points.unwrap();
        assert_eq!(
            points_csv(&uninterrupted),
            points_csv(&resumed_points),
            "resumed aggregates must be byte-identical"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_fingerprint_mismatch_is_rejected() {
        let set = tiny_set();
        let platform = Platform::single_pair(0.0, 0.0);
        let config = tiny_stream_config();
        let dir = std::env::temp_dir().join(format!(
            "mals-campaign-fp-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let ck = dir.join("checkpoint.json");
        run_streaming_campaign(
            &set,
            &platform,
            &config,
            &CampaignIo {
                checkpoint: Some(ck.clone()),
                stop_after: Some(1),
                ..Default::default()
            },
        )
        .unwrap();
        // Resuming with a different alpha grid must fail.
        let other = CampaignConfig {
            alphas: vec![0.5, 1.0],
            ..tiny_stream_config()
        };
        let err = run_streaming_campaign(
            &set,
            &platform,
            &other,
            &CampaignIo {
                checkpoint: Some(ck.clone()),
                resume: true,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(err.contains("different campaign configuration"), "{err}");
        // A different platform (more processors → different makespans) must
        // be refused too.
        let err = run_streaming_campaign(
            &set,
            &Platform::new(2, 2, 0.0, 0.0).unwrap(),
            &tiny_stream_config(),
            &CampaignIo {
                checkpoint: Some(ck.clone()),
                resume: true,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(err.contains("different campaign configuration"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stop_after_requires_a_checkpoint_and_a_positive_budget() {
        let set = tiny_set();
        let platform = Platform::single_pair(0.0, 0.0);
        let config = tiny_stream_config();
        let err = run_streaming_campaign(
            &set,
            &platform,
            &config,
            &CampaignIo {
                stop_after: Some(2),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(err.contains("checkpoint"), "{err}");
        let err = run_streaming_campaign(
            &set,
            &platform,
            &config,
            &CampaignIo {
                checkpoint: Some(std::env::temp_dir().join("unused.ck.json")),
                stop_after: Some(0),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(err.contains("positive"), "{err}");
    }

    #[test]
    fn resume_without_checkpoint_path_errors() {
        let err = run_streaming_campaign(
            &tiny_set(),
            &Platform::single_pair(0.0, 0.0),
            &tiny_stream_config(),
            &CampaignIo {
                resume: true,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(err.contains("checkpoint"), "{err}");
    }
}
