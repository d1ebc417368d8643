//! Online rolling-horizon scheduling: an event-driven replay of an
//! [`ArrivalTrace`] with dynamic re-planning.
//!
//! The static heuristics see the whole DAG before the first commit. The
//! online layer replays a release timeline instead: tasks become known to
//! the scheduler at their arrival instants, completions are reported back,
//! and the plan for the *unscheduled suffix* is revised without ever
//! touching the committed prefix. The event loop runs on a
//! [`VirtualClock`] — time jumps from event to event, so a 10⁴-task replay
//! takes seconds of wall time and is bit-reproducible.
//!
//! # The event loop
//!
//! Three event kinds interleave on one priority queue, ordered by virtual
//! time (ties: arrivals before completions before re-plans, then FIFO):
//!
//! * **TaskArrived** — the tasks of one trace event become visible; those
//!   whose parents are all committed join the candidate set;
//! * **TaskCompleted** — a previously committed task reaches its planned
//!   finish time (bookkeeping: it advances the clock and counts toward
//!   [`ReplanPolicy::EveryK`]);
//! * **ReplanTriggered** — a deferred re-plan fires (pushed by
//!   [`ReplanPolicy::Horizon`] when a candidate's start lies beyond the
//!   current window; at most one is pending per instant, since a second
//!   re-plan at the same instant would find nothing left to commit).
//!
//! A *re-plan* greedily commits candidates — MemHEFT order or MemMinMin
//! order, per [`OnlineFlavor`] — through the list-scheduling core of the
//! static solvers (`crate::list`), which admits each task when it arrives
//! and floors every evaluation at the virtual now (`est' = max(est, now)`),
//! because the online scheduler cannot start a task in its past. Flooring is
//! a no-op at `t = 0`, which yields the static-equivalence oracle: a trace
//! releasing the whole DAG at `t = 0` with [`ReplanPolicy::EveryArrival`]
//! reproduces the static solver's schedule bit for bit.
//!
//! The committed prefix is immutable by construction: a commit only ever
//! appends to the [`PartialSchedule`](crate::PartialSchedule), and re-plans
//! only look at uncommitted candidates.

use crate::error::ScheduleError;
use crate::list::{ListCore, Rule};
use crate::solver::{OptimalityStatus, SolveCtx, SolveOutcome, Solver};
use mals_dag::{algo::topological_order, TaskGraph, TaskId};
use mals_gen::ArrivalTrace;
use mals_platform::Platform;
use mals_sim::Schedule;
use mals_util::{F64Ord, VirtualClock};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
use std::time::{Duration, Instant};

/// When the rolling-horizon scheduler re-plans the unscheduled suffix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplanPolicy {
    /// Re-plan at every arrival event (the most reactive policy, and the
    /// static-equivalence oracle when the whole DAG arrives at `t = 0`).
    EveryArrival,
    /// Re-plan every K processed events (arrivals and completions alike),
    /// plus a final pass when the timeline is exhausted. `K = 1` re-plans
    /// on every event; larger K batches decisions.
    EveryK(u32),
    /// Re-plan at every arrival, but only commit candidates whose (floored)
    /// start time lies within `now + window`; starts beyond the window are
    /// deferred and a re-plan event is scheduled at the earliest deferred
    /// start.
    Horizon(f64),
}

impl ReplanPolicy {
    /// Parses the CLI spelling: `every-arrival`, `every-k:<K>` or
    /// `horizon:<window>`.
    pub fn parse(s: &str) -> Option<Self> {
        if s == "every-arrival" {
            return Some(ReplanPolicy::EveryArrival);
        }
        if let Some(k) = s.strip_prefix("every-k:") {
            let k: u32 = k.parse().ok()?;
            return (k >= 1).then_some(ReplanPolicy::EveryK(k));
        }
        if let Some(w) = s.strip_prefix("horizon:") {
            let w: f64 = w.parse().ok()?;
            return (w.is_finite() && w >= 0.0).then_some(ReplanPolicy::Horizon(w));
        }
        None
    }

    /// The stable CLI spelling parsed by [`ReplanPolicy::parse`].
    pub fn key(&self) -> String {
        match self {
            ReplanPolicy::EveryArrival => "every-arrival".into(),
            ReplanPolicy::EveryK(k) => format!("every-k:{k}"),
            ReplanPolicy::Horizon(w) => format!("horizon:{w}"),
        }
    }
}

/// Which static heuristic the online scheduler re-plans with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnlineFlavor {
    /// MemHEFT order: upward ranks over the *arrived* subgraph, first
    /// feasible candidate in priority order commits.
    MemHeft,
    /// MemMinMin order: the candidate with the globally smallest (floored)
    /// EFT commits.
    MemMinMin,
}

impl OnlineFlavor {
    /// Parses `memheft` / `memminmin`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "memheft" => Some(OnlineFlavor::MemHeft),
            "memminmin" => Some(OnlineFlavor::MemMinMin),
            _ => None,
        }
    }
}

/// Configuration of one online replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineConfig {
    /// The re-planning heuristic.
    pub flavor: OnlineFlavor,
    /// When re-plans fire.
    pub policy: ReplanPolicy,
}

impl OnlineConfig {
    /// A config with the given flavor and policy.
    pub fn new(flavor: OnlineFlavor, policy: ReplanPolicy) -> Self {
        OnlineConfig { flavor, policy }
    }
}

/// The result of a completed online replay: the schedule plus the event and
/// re-plan accounting of the run.
#[derive(Debug, Clone)]
pub struct OnlineOutcome {
    /// The complete schedule (passes `mals_sim::validate`).
    pub schedule: Schedule,
    /// Its makespan.
    pub makespan: f64,
    /// Total events processed (arrivals + completions + re-plan triggers).
    pub events: u64,
    /// Arrival events processed.
    pub arrivals: u64,
    /// Completion events processed.
    pub completions: u64,
    /// Re-plan passes run (including the final drain).
    pub replans: u64,
    /// Wall-clock time spent inside re-plan passes, summed.
    pub replan_total: Duration,
    /// Wall-clock time of the most expensive single re-plan pass.
    pub replan_max: Duration,
    /// The virtual time of the last processed event.
    pub virtual_end: f64,
}

impl OnlineOutcome {
    /// Mean wall-clock cost of one re-plan pass, in seconds.
    pub fn replan_mean_secs(&self) -> f64 {
        if self.replans == 0 {
            0.0
        } else {
            self.replan_total.as_secs_f64() / self.replans as f64
        }
    }
}

/// Event-queue tie-break ranks: at equal virtual times, arrivals are
/// processed before completions before re-plan triggers.
const RANK_ARRIVAL: u8 = 0;
const RANK_COMPLETION: u8 = 1;
const RANK_REPLAN: u8 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Payload {
    /// Index into the trace's event list.
    Arrival(u32),
    Completion,
    Replan,
}

/// One queued event, ordered by `(virtual time, kind rank, FIFO sequence)`.
#[derive(Debug, Clone, Copy)]
struct QueuedEvent {
    at: F64Ord,
    rank: u8,
    seq: u64,
    payload: Payload,
}

impl QueuedEvent {
    fn key(&self) -> (F64Ord, u8, u64) {
        (self.at, self.rank, self.seq)
    }
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for QueuedEvent {}

impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Replays `trace` against `graph` on `platform` with rolling-horizon
/// re-planning (see the module docs for the event-loop semantics).
///
/// A trace releasing the whole DAG at `t = 0` under
/// [`ReplanPolicy::EveryArrival`] reproduces the corresponding static
/// solver exactly. The replay is sequential; `ctx` contributes only its
/// cancellation signal.
///
/// # Errors
///
/// * [`ScheduleError::InvalidGraph`] — the graph fails validation;
/// * [`ScheduleError::InvalidTrace`] — the trace does not fit the graph;
/// * [`ScheduleError::Infeasible`] — some suffix cannot be placed within
///   the memory bounds (same condition as the static solvers);
/// * [`ScheduleError::Cancelled`] — `ctx.cancel` tripped mid-replay.
pub fn replay(
    graph: &TaskGraph,
    platform: &Platform,
    trace: &ArrivalTrace,
    config: OnlineConfig,
    ctx: &SolveCtx,
) -> Result<OnlineOutcome, ScheduleError> {
    graph.validate()?;
    trace
        .validate_for(graph)
        .map_err(|e| ScheduleError::InvalidTrace(e.to_string()))?;
    if let ReplanPolicy::EveryK(0) = config.policy {
        return Err(ScheduleError::InvalidTrace(
            "every-k policy needs K >= 1".into(),
        ));
    }
    if let ReplanPolicy::Horizon(w) = config.policy {
        if !(w.is_finite() && w >= 0.0) {
            return Err(ScheduleError::InvalidTrace(format!(
                "horizon window must be finite and non-negative, got {w}"
            )));
        }
    }
    Replayer::new(graph, platform, trace, config).run(ctx)
}

/// The mutable state of one replay (see the module docs): the event queue,
/// the arrivals and the rank refresh around the selection core.
struct Replayer<'a> {
    graph: &'a TaskGraph,
    trace: &'a ArrivalTrace,
    config: OnlineConfig,
    /// The schedule, the cache and the admitted candidates; a task is
    /// admitted when it arrives.
    core: ListCore<'a>,
    clock: VirtualClock,
    /// A topological order of the full graph, computed once; the arrived-
    /// subgraph rank walk visits it in reverse, skipping unarrived tasks.
    full_topo: Vec<TaskId>,
    /// Upward ranks over the arrived subgraph (MemHEFT flavor). Reused
    /// across refreshes: every arrived task is overwritten before any
    /// arrived parent reads it, exactly like the from-scratch walk.
    rank: Vec<f64>,
    /// Arrived tasks in priority order (MemHEFT flavor).
    order: Vec<TaskId>,
    queue: BinaryHeap<Reverse<QueuedEvent>>,
    /// The instants of the queued re-plan triggers.
    pending_replans: BTreeSet<F64Ord>,
    seq: u64,
    // Accounting.
    events: u64,
    arrivals: u64,
    completions: u64,
    replans: u64,
    replan_total: Duration,
    replan_max: Duration,
}

impl<'a> Replayer<'a> {
    fn new(
        graph: &'a TaskGraph,
        platform: &'a Platform,
        trace: &'a ArrivalTrace,
        config: OnlineConfig,
    ) -> Self {
        let n = graph.n_tasks();
        let rule = match config.flavor {
            OnlineFlavor::MemHeft => Rule::Priority,
            OnlineFlavor::MemMinMin => Rule::MinEft,
        };
        Replayer {
            graph,
            trace,
            config,
            core: ListCore::new(graph, platform, rule, false),
            clock: VirtualClock::new(),
            full_topo: topological_order(graph).expect("graph validated before replay"),
            rank: vec![0.0; n],
            order: Vec::with_capacity(n),
            queue: BinaryHeap::new(),
            pending_replans: BTreeSet::new(),
            seq: 0,
            events: 0,
            arrivals: 0,
            completions: 0,
            replans: 0,
            replan_total: Duration::ZERO,
            replan_max: Duration::ZERO,
        }
    }

    fn run(mut self, ctx: &SolveCtx) -> Result<OnlineOutcome, ScheduleError> {
        for (i, event) in self.trace.events().iter().enumerate() {
            self.push(event.at, RANK_ARRIVAL, Payload::Arrival(i as u32));
        }
        while let Some(Reverse(event)) = self.queue.pop() {
            self.clock.advance_to_secs(event.at.0);
            self.events += 1;
            let mut replan = false;
            match event.payload {
                Payload::Arrival(i) => {
                    self.arrivals += 1;
                    self.admit(i as usize);
                    replan = matches!(
                        self.config.policy,
                        ReplanPolicy::EveryArrival | ReplanPolicy::Horizon(_)
                    );
                }
                Payload::Completion => self.completions += 1,
                Payload::Replan => {
                    self.pending_replans.remove(&event.at);
                    replan = matches!(self.config.policy, ReplanPolicy::Horizon(_));
                }
            }
            if let ReplanPolicy::EveryK(k) = self.config.policy {
                replan = self.events.is_multiple_of(u64::from(k));
            }
            if replan {
                let window = match self.config.policy {
                    ReplanPolicy::Horizon(w) => Some(self.clock.now_secs() + w),
                    _ => None,
                };
                self.drain(ctx, window)?;
                if let Some(at) = self.core.deferred_min() {
                    // The deferred start lies strictly beyond `now + window`,
                    // so the re-plan event is strictly in the future and the
                    // loop makes progress. One already pending at `at` will
                    // re-plan then anyway.
                    if self.pending_replans.insert(F64Ord(at)) {
                        self.push(at, RANK_REPLAN, Payload::Replan);
                    }
                }
            }
        }
        // Final unrestricted pass: commits whatever the policy batched or
        // deferred past the last event. For the `t = 0` oracle this re-scan
        // finds nothing new (the state only changes through commits), so
        // the outcome — including Infeasible counts — matches the static
        // solver.
        self.drain(ctx, None)?;
        let schedule = self.core.finish()?;
        let makespan = schedule.makespan();
        Ok(OnlineOutcome {
            schedule,
            makespan,
            events: self.events,
            arrivals: self.arrivals,
            completions: self.completions,
            replans: self.replans,
            replan_total: self.replan_total,
            replan_max: self.replan_max,
            virtual_end: self.clock.now_secs(),
        })
    }

    /// Admits the tasks of trace event `i`; the MemHEFT flavor re-derives
    /// its priority order over the enlarged arrived subgraph.
    fn admit(&mut self, i: usize) {
        self.core
            .admit(self.trace.events()[i].tasks.iter().copied());
        if self.config.flavor == OnlineFlavor::MemHeft {
            self.refresh_priorities();
        }
    }

    /// Recomputes upward ranks over the arrived subgraph and re-sorts the
    /// priority order. The walk mirrors `mals_dag::rank::upward_ranks`
    /// operation for operation (same reverse-topological visit sequence,
    /// same float fold, same sort comparator) restricted to arrived tasks,
    /// so once everything has arrived the order equals
    /// `rank_sorted_tasks(graph)` bit for bit.
    fn refresh_priorities(&mut self) {
        let graph = self.graph;
        let core = &self.core;
        let rank = &mut self.rank;
        for &t in self.full_topo.iter().rev() {
            if !core.is_admitted(t) {
                continue;
            }
            let mut best_child = 0.0f64;
            for &e in graph.out_edges(t) {
                let edge = graph.edge(e);
                if !core.is_admitted(edge.dst) {
                    continue;
                }
                let cand = rank[edge.dst.index()] + edge.comm_cost / 2.0;
                if cand > best_child {
                    best_child = cand;
                }
            }
            rank[t.index()] = graph.task(t).mean_work() + best_child;
        }
        self.order.clear();
        self.order
            .extend(graph.task_ids().filter(|&t| core.is_admitted(t)));
        let rank = &self.rank;
        self.order.sort_by(|&a, &b| {
            rank[b.index()]
                .total_cmp(&rank[a.index()])
                .then_with(|| a.index().cmp(&b.index()))
        });
        self.core.reorder(&self.order);
    }

    /// One re-plan pass: greedily commits candidates until none is feasible
    /// (or none starts inside `window`, when given as an absolute latest
    /// allowed start).
    fn drain(&mut self, ctx: &SolveCtx, window: Option<f64>) -> Result<(), ScheduleError> {
        let started = Instant::now();
        self.replans += 1;
        let now = self.clock.now_secs();
        loop {
            if ctx.is_cancelled() {
                return Err(self.core.cancelled());
            }
            let Some((task, breakdown)) = self.core.select(now, window) else {
                break;
            };
            self.core.commit(task, &breakdown);
            self.push(breakdown.eft, RANK_COMPLETION, Payload::Completion);
        }
        let elapsed = started.elapsed();
        self.replan_total += elapsed;
        if elapsed > self.replan_max {
            self.replan_max = elapsed;
        }
        Ok(())
    }

    fn push(&mut self, at: f64, rank: u8, payload: Payload) {
        self.seq += 1;
        self.queue.push(Reverse(QueuedEvent {
            at: F64Ord(at),
            rank,
            seq: self.seq,
            payload,
        }));
    }
}

/// The registry face of the online layer: solves by replaying the
/// whole-DAG-at-`t = 0` trace with re-plan-on-every-arrival, which makes it
/// exactly the corresponding static heuristic (the oracle the equivalence
/// tests pin down) while exercising the full online code path.
#[derive(Debug, Clone, Copy)]
pub struct OnlineSolver {
    config: OnlineConfig,
}

impl OnlineSolver {
    /// An online solver with the given config (the registry entries use the
    /// every-arrival policy).
    pub fn new(config: OnlineConfig) -> Self {
        OnlineSolver { config }
    }

    /// Online MemHEFT with re-plan-on-every-arrival.
    pub fn memheft() -> Self {
        Self::new(OnlineConfig::new(
            OnlineFlavor::MemHeft,
            ReplanPolicy::EveryArrival,
        ))
    }

    /// Online MemMinMin with re-plan-on-every-arrival.
    pub fn memminmin() -> Self {
        Self::new(OnlineConfig::new(
            OnlineFlavor::MemMinMin,
            ReplanPolicy::EveryArrival,
        ))
    }

    /// The replay configuration this solver uses.
    pub fn config(&self) -> OnlineConfig {
        self.config
    }
}

impl Solver for OnlineSolver {
    fn name(&self) -> &str {
        match self.config.flavor {
            OnlineFlavor::MemHeft => "Online(MemHEFT)",
            OnlineFlavor::MemMinMin => "Online(MemMinMin)",
        }
    }

    fn solve(&self, graph: &TaskGraph, platform: &Platform, ctx: &SolveCtx) -> SolveOutcome {
        let trace = ArrivalTrace::at_once(graph.n_tasks());
        match replay(graph, platform, &trace, self.config, ctx) {
            Ok(outcome) => {
                SolveOutcome::with_schedule(outcome.schedule, OptimalityStatus::Heuristic, 0)
            }
            Err(e) => SolveOutcome::from_heuristic(Err(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memheft::MemHeft;
    use crate::memminmin::MemMinMin;
    use crate::partial::{EstBreakdown, PartialSchedule};
    use crate::traits::Scheduler;
    use crate::Heft;
    use mals_gen::{dex, ArrivalProcess, DaggenParams, WeightRanges};
    use mals_sim::validate;
    use mals_util::Pcg64;
    use std::cell::Cell;

    fn sample_graph(seed: u64) -> TaskGraph {
        let mut rng = Pcg64::new(seed);
        mals_gen::daggen::generate(
            &DaggenParams::small_rand(),
            &WeightRanges::small_rand(),
            &mut rng,
        )
    }

    fn every_arrival(flavor: OnlineFlavor) -> OnlineConfig {
        OnlineConfig::new(flavor, ReplanPolicy::EveryArrival)
    }

    #[test]
    fn at_once_replay_equals_static_memheft_on_dex() {
        let (g, _) = dex();
        let platform = Platform::single_pair(6.0, 6.0);
        let static_schedule = MemHeft::new().schedule(&g, &platform).unwrap();
        let trace = ArrivalTrace::at_once(g.n_tasks());
        let outcome = replay(
            &g,
            &platform,
            &trace,
            every_arrival(OnlineFlavor::MemHeft),
            &SolveCtx::sequential(),
        )
        .unwrap();
        assert_eq!(outcome.schedule, static_schedule);
        assert_eq!(outcome.arrivals, 1);
        assert_eq!(outcome.completions as usize, g.n_tasks());
    }

    #[test]
    fn at_once_replay_equals_static_memminmin_on_random_graphs() {
        for seed in [1, 2, 3] {
            let g = sample_graph(seed);
            let platform = Platform::new(2, 2, 150.0, 150.0).unwrap();
            let static_schedule = MemMinMin::new().schedule(&g, &platform).unwrap();
            let trace = ArrivalTrace::at_once(g.n_tasks());
            let outcome = replay(
                &g,
                &platform,
                &trace,
                every_arrival(OnlineFlavor::MemMinMin),
                &SolveCtx::sequential(),
            )
            .unwrap();
            assert_eq!(outcome.schedule, static_schedule, "seed {seed}");
        }
    }

    #[test]
    fn poisson_replay_is_valid_and_deterministic() {
        let g = sample_graph(21);
        let platform = Platform::new(2, 2, 150.0, 150.0).unwrap();
        let trace = ArrivalProcess::Poisson { rate: 1.5 }.generate(&g, 77);
        for flavor in [OnlineFlavor::MemHeft, OnlineFlavor::MemMinMin] {
            let a = replay(
                &g,
                &platform,
                &trace,
                every_arrival(flavor),
                &SolveCtx::sequential(),
            )
            .unwrap();
            let b = replay(
                &g,
                &platform,
                &trace,
                every_arrival(flavor),
                &SolveCtx::sequential(),
            )
            .unwrap();
            assert_eq!(a.schedule, b.schedule, "{flavor:?} replay not reproducible");
            let report = validate(&g, &platform, &a.schedule);
            assert!(report.is_valid(), "{flavor:?}: {:?}", report.errors);
            // No task may start before it arrived.
            let mut released = vec![0.0f64; g.n_tasks()];
            for event in trace.events() {
                for &t in &event.tasks {
                    released[t.index()] = event.at;
                }
            }
            for t in g.task_ids() {
                let placement = a.schedule.task(t).unwrap();
                assert!(
                    placement.start >= released[t.index()] - 1e-12,
                    "task {t} started at {} but arrived at {}",
                    placement.start,
                    released[t.index()]
                );
            }
        }
    }

    #[test]
    fn every_k_and_horizon_policies_produce_valid_schedules() {
        let g = sample_graph(33);
        let platform = Platform::new(2, 2, 150.0, 150.0).unwrap();
        let trace = ArrivalProcess::Bursty {
            batch: 4,
            rate: 2.0,
        }
        .generate(&g, 3);
        for policy in [
            ReplanPolicy::EveryK(1),
            ReplanPolicy::EveryK(5),
            ReplanPolicy::Horizon(0.0),
            ReplanPolicy::Horizon(2.5),
        ] {
            for flavor in [OnlineFlavor::MemHeft, OnlineFlavor::MemMinMin] {
                let outcome = replay(
                    &g,
                    &platform,
                    &trace,
                    OnlineConfig::new(flavor, policy),
                    &SolveCtx::sequential(),
                )
                .unwrap();
                let report = validate(&g, &platform, &outcome.schedule);
                assert!(
                    report.is_valid(),
                    "{flavor:?}/{policy:?}: {:?}",
                    report.errors
                );
                assert!(outcome.replans >= 1);
            }
        }
    }

    #[test]
    fn horizon_replans_at_most_once_per_instant() {
        // Every drain that defers a candidate asks for a re-plan at the
        // earliest deferred start; one already pending at that instant
        // covers it, so re-plans stay within one per processed event.
        let mut rng = Pcg64::new(5);
        let g = mals_gen::daggen::generate(
            &DaggenParams::small_rand().with_size(300),
            &WeightRanges::small_rand(),
            &mut rng,
        );
        let platform = Platform::new(2, 2, f64::INFINITY, f64::INFINITY).unwrap();
        let trace = ArrivalProcess::Poisson { rate: 100.0 }.generate(&g, 1);
        for flavor in [OnlineFlavor::MemHeft, OnlineFlavor::MemMinMin] {
            let config = OnlineConfig::new(flavor, ReplanPolicy::Horizon(50.0));
            let outcome = replay(&g, &platform, &trace, config, &SolveCtx::sequential()).unwrap();
            assert!(
                outcome.replans <= outcome.arrivals + outcome.completions + 1,
                "{flavor:?}: {} re-plans for {} arrivals and {} completions",
                outcome.replans,
                outcome.arrivals,
                outcome.completions
            );
            assert!(validate(&g, &platform, &outcome.schedule).is_valid());
        }
    }

    #[test]
    fn infeasible_instances_report_static_counts() {
        let (g, _) = dex();
        let platform = Platform::single_pair(2.0, 2.0);
        let static_err = MemHeft::new().schedule(&g, &platform).unwrap_err();
        let trace = ArrivalTrace::at_once(g.n_tasks());
        let online_err = replay(
            &g,
            &platform,
            &trace,
            every_arrival(OnlineFlavor::MemHeft),
            &SolveCtx::sequential(),
        )
        .unwrap_err();
        assert_eq!(online_err, static_err);
    }

    #[test]
    fn mismatched_trace_is_rejected() {
        let (g, _) = dex();
        let platform = Platform::single_pair(10.0, 10.0);
        let trace = ArrivalTrace::at_once(g.n_tasks() + 1);
        let err = replay(
            &g,
            &platform,
            &trace,
            every_arrival(OnlineFlavor::MemHeft),
            &SolveCtx::sequential(),
        )
        .unwrap_err();
        assert!(matches!(err, ScheduleError::InvalidTrace(_)));
        assert!(err.to_string().contains("trace"));
    }

    #[test]
    fn policy_parse_round_trips() {
        for policy in [
            ReplanPolicy::EveryArrival,
            ReplanPolicy::EveryK(7),
            ReplanPolicy::Horizon(1.5),
        ] {
            assert_eq!(ReplanPolicy::parse(&policy.key()), Some(policy));
        }
        assert_eq!(ReplanPolicy::parse("every-k:0"), None);
        assert_eq!(ReplanPolicy::parse("horizon:-1"), None);
        assert_eq!(ReplanPolicy::parse("bogus"), None);
        assert_eq!(OnlineFlavor::parse("memheft"), Some(OnlineFlavor::MemHeft));
        assert_eq!(
            OnlineFlavor::parse("memminmin"),
            Some(OnlineFlavor::MemMinMin)
        );
        assert_eq!(OnlineFlavor::parse("heft"), None);
    }

    #[test]
    fn online_solver_matches_static_through_solver_trait() {
        let g = sample_graph(44);
        let platform = Platform::new(2, 2, 150.0, 150.0).unwrap();
        let ctx = SolveCtx::sequential();
        let static_outcome = Solver::solve(&MemHeft::new(), &g, &platform, &ctx);
        let online_outcome = OnlineSolver::memheft().solve(&g, &platform, &ctx);
        assert_eq!(online_outcome.status, OptimalityStatus::Heuristic);
        assert_eq!(online_outcome.schedule, static_outcome.schedule);
        assert_eq!(OnlineSolver::memheft().name(), "Online(MemHEFT)");
        assert_eq!(OnlineSolver::memminmin().name(), "Online(MemMinMin)");
    }

    #[test]
    fn replan_accounting_is_populated() {
        let g = sample_graph(55);
        let platform = Platform::new(2, 2, 150.0, 150.0).unwrap();
        let trace = ArrivalProcess::Poisson { rate: 2.0 }.generate(&g, 8);
        let outcome = replay(
            &g,
            &platform,
            &trace,
            every_arrival(OnlineFlavor::MemMinMin),
            &SolveCtx::sequential(),
        )
        .unwrap();
        assert_eq!(outcome.arrivals as usize, trace.events().len());
        assert_eq!(outcome.completions as usize, g.n_tasks());
        // Every arrival replans, plus the final drain.
        assert_eq!(outcome.replans, outcome.arrivals + 1);
        assert_eq!(outcome.events, outcome.arrivals + outcome.completions);
        assert!(outcome.replan_total >= outcome.replan_max);
        assert!(outcome.replan_mean_secs() >= 0.0);
        assert!(outcome.virtual_end > 0.0);
        assert!(outcome.makespan > 0.0);
    }

    thread_local! {
        /// Selections audited at `now > 0`, and the candidate sides they
        /// left stale (skipped by the bound).
        static AUDITED: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
    }

    /// The unpruned, uncached min-EFT scan over the admitted ready tasks,
    /// every side evaluated afresh and floored at `now`.
    fn floored_scan(
        partial: &PartialSchedule<'_>,
        admitted: impl Fn(TaskId) -> bool,
        now: f64,
    ) -> Option<(TaskId, EstBreakdown)> {
        let mut best = None;
        for task in partial.ready_iter().filter(|&t| admitted(t)) {
            let pair = partial.evaluate_pair(task).map(|side| {
                side.map(|bd| {
                    if bd.est >= now {
                        bd
                    } else {
                        let work = partial.graph().task(task).work_on(bd.memory.is_blue());
                        EstBreakdown {
                            est: now,
                            eft: now + work,
                            ..bd
                        }
                    }
                })
            });
            if let Some(bd) = PartialSchedule::combine_pair(pair, false) {
                if PartialSchedule::is_better_choice(&best, task, &bd) {
                    best = Some((task, bd));
                }
            }
        }
        best
    }

    fn audit_min_eft(core: &ListCore<'_>, now: f64, chosen: Option<(TaskId, EstBreakdown)>) {
        let expected = floored_scan(core.partial(), |t| core.is_admitted(t), now);
        assert_eq!(chosen, expected, "pruned selection diverged at now = {now}");
        if now > 0.0 {
            AUDITED.with(|audited| {
                let (selections, skipped) = audited.get();
                audited.set((selections + 1, skipped + core.stale_sides()));
            });
        }
    }

    #[test]
    fn floored_pruning_matches_an_unpruned_scan_at_every_replan() {
        // Online MemMinMin replays under Poisson arrivals, re-planning on
        // every arrival and every third event, with memory bounds at α ×
        // HEFT's peak: every selection the core makes must be the one an
        // unpruned floored scan makes, and past t = 0 the bound must have
        // skipped some side.
        for seed in [1, 2] {
            let mut rng = Pcg64::new(seed);
            let g = mals_gen::daggen::generate(
                &DaggenParams {
                    size: 120,
                    width: 0.5,
                    density: 0.3,
                    jumps: 3,
                },
                &WeightRanges::small_rand(),
                &mut rng,
            );
            let unbounded = Platform::new(2, 2, f64::INFINITY, f64::INFINITY).unwrap();
            let heft = Heft::new().schedule(&g, &unbounded).unwrap();
            let peak = mals_sim::memory_peaks(&g, &unbounded, &heft).max();
            let trace = ArrivalProcess::Poisson { rate: 10.0 }.generate(&g, seed);
            for alpha in [0.5, 1.0] {
                let platform = Platform::new(2, 2, alpha * peak, alpha * peak).unwrap();
                for policy in [ReplanPolicy::EveryArrival, ReplanPolicy::EveryK(3)] {
                    let config = OnlineConfig::new(OnlineFlavor::MemMinMin, policy);
                    let mut replayer = Replayer::new(&g, &platform, &trace, config);
                    replayer.core.audit = Some(audit_min_eft);
                    replayer.run(&SolveCtx::sequential()).unwrap();
                }
            }
        }
        let (selections, skipped) = AUDITED.with(Cell::get);
        assert!(selections > 0, "no selection was made past t = 0");
        assert!(skipped > 0, "the bound never skipped a side past t = 0");
    }
}
