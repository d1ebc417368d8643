//! The list-scheduling selection core shared by every heuristic.
//!
//! MemHEFT and MemMinMin (Algorithms 1 and 2 of the paper) are one greedy
//! loop — pick a ready task and a memory, commit, repeat — that differs only
//! in the selection rule:
//!
//! * [`Rule::Priority`] — HEFT's rule (Topcuoglu et al. 2002): the first
//!   candidate in priority-list order whose evaluation is feasible;
//! * [`Rule::MinEft`] — MinMin's rule (Braun et al. 2001): the candidate
//!   with the globally smallest EFT, near-ties to the smaller task id.
//!
//! [`ListCore`] owns everything that loop needs: the [`PartialSchedule`],
//! the exact [`EstCache`], the reused [`CommitEffects`] and the *admitted*
//! ready candidates — keyed by priority-list position for the priority
//! rule, while the min-EFT rule scans the partial schedule's own ready set,
//! filtered by admission, in task-id order. The static solvers admit the
//! whole graph up front and drive [`sweep`] (a single solve is a sweep of
//! one platform); the online replayer admits tasks as they arrive and calls
//! [`ListCore::select`] at the virtual `now` of each re-plan.
//!
//! # Flooring at `now`
//!
//! A scheduler cannot start a task in its past: every evaluation is floored
//! at `now` (`est' = max(est, now)`, `eft' = est' + work`, the evaluator's
//! own formula). Flooring is safe — memory fits are sustained-forever and
//! processor availability and precedence are monotone, so a later start is
//! always still valid — and a no-op at `now = 0`, where raw ESTs are never
//! negative. That is why the static solvers and an online replay releasing
//! the whole graph at `t = 0` take the same decisions bit for bit.
//!
//! # Pruning the min-EFT scan
//!
//! Every commit stales one memory's side of every candidate, and most of
//! those sides cannot win the next step. For a stale side on memory `µ`
//! whose last evaluation was `Some`:
//!
//! * the floored `EFT ≥ max(resource_µ, precedence_µ, now) + W_µ` (float
//!   rounding is monotone, and the floored EFT is computed from the same
//!   terms);
//! * `resource_µ` is read once per step from the processor state;
//! * the stale breakdown's `precedence_µ` is still exact: it depends only on
//!   the parents' placements, and a ready task's parents never move.
//!
//! When that bound cannot beat the best candidate so far
//! (`PartialSchedule::cannot_beat`, beside the ordering it mirrors), the
//! side is skipped and its slot stays stale. A skipped side cannot change
//! the step: it cannot win on its own, and if the task's other side wins,
//! the skipped side's EFT is larger, so combining the pair would have picked
//! the winner anyway. Sides that were `None` (the task did not fit) and
//! newly ready tasks are always evaluated, since a release may have made
//! them fit. With a horizon window nothing is skipped: the deferred
//! candidates' exact starts are what schedules the next re-plan.
//!
//! # Sweeping memory bounds: a leader and its followers
//!
//! The experiments solve one DAG under many memory bounds, and a
//! memory-aware heuristic takes exactly the decisions of a larger bound for
//! as long as its own bound does not bind. [`sweep`] validates the graph
//! and builds the priority list once, then splits the platforms into
//! *chains*: a *leader*, the largest remaining bounds, and *followers*,
//! platforms with the same processors whose bounds descend from it
//! componentwise (equal wherever the leader's is `+∞`, which keeps no
//! profile to check against). Incomparable platforms start chains of their
//! own. Only the leader is solved; its followers share each commit for as
//! long as the check below holds.
//!
//! * **The check.** A bound enters a step only through the two memory fits
//!   of an evaluation ([`PartialSchedule::place`]), and of the breakdown
//!   they feed, the selection and the commit read only the start (and the
//!   finish, start plus work); the memory, precedence and transfer window
//!   do not depend on the bound. So at every evaluation the leader
//!   computes, the same evaluation is repeated at the smallest follower's
//!   bound, and when it does not start at the identical time (or fails
//!   where the leader's fits), that follower *splits off*. Nothing is
//!   compared with a tolerance. Everything a step reads is then the same
//!   for every remaining follower: fresh cache hits were checked when they
//!   were computed, and the min-EFT pruning bound does not depend on the
//!   bound. The start is monotone in the bound (every memory fit is), so
//!   an evaluation that agrees at the smallest follower's bound agrees at
//!   every bound between it and the leader's, and the followers that split
//!   off in a step are a prefix of the ascending chain.
//! * **Forks.** At the end of a step where followers split off, the
//!   pre-commit core is cloned and re-bounded to the largest of them; the
//!   others become its followers. The clone takes the leader's cache and
//!   stales both its epochs, since this step's evaluations were checked
//!   only against bounds that no longer split; the stale values still
//!   serve the min-EFT pruning, whose bound reads only the
//!   bound-independent precedence. It also takes the leader's placements,
//!   which it only extends. The fork runs to completion depth first and
//!   is dropped before the leader resumes: the leader takes its own
//!   placements back out of the fork's, and starts a fresh cache (every
//!   side stale, so nothing is pruned on a value it no longer holds). At
//!   most one fork per nesting level is alive, and no two caches or
//!   copies of the shared placements.
//! * **The rest** receive the leader's result: its schedule, or its
//!   infeasibility or cancellation with the same `scheduled` count.
//!
//! Each entry of a sweep is therefore bit for bit the solve of its platform
//! alone. A chain of one (a single solve, and every online replay) checks
//! nothing.

use crate::error::ScheduleError;
use crate::incremental::EstCache;
use crate::partial::{CommitEffects, EstBreakdown, PartialSchedule};
use mals_dag::{TaskGraph, TaskId};
use mals_platform::{Memory, Platform};
use mals_sim::Schedule;
use mals_util::{CancelSignal, ChunkedIndexSet};

/// How [`ListCore::select`] picks among the candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rule {
    /// The first feasible candidate in priority-list order (MemHEFT).
    Priority,
    /// The feasible candidate with the smallest EFT (MemMinMin).
    MinEft,
}

/// A list heuristic as a configuration of the core: a selection rule with
/// its priority list, and the memory preferred on exact EFT ties.
pub(crate) trait ListHeuristic {
    /// The priority list of `graph` (already validated, so acyclic) for
    /// [`Rule::Priority`], or `None` for [`Rule::MinEft`]. The list must
    /// contain every task exactly once.
    fn priority(&self, graph: &TaskGraph) -> Option<Vec<TaskId>>;

    /// `true` to break exact EFT ties between the memories toward red.
    fn prefer_red(&self) -> bool {
        false
    }
}

/// Where a sweep files its results: called once per distinct result, in
/// completion order, with the indices of the platforms it answers (a leader
/// and the followers that never split off share one result).
pub(crate) type Sink<'s> = &'s mut dyn FnMut(&[usize], Result<Schedule, ScheduleError>);

/// Schedules `graph` on every platform of `platforms` with `heuristic`
/// (see the module docs) and hands each result to `sink` as soon as it is
/// final: only the live cores are ever held, never the whole grid's
/// schedules, and a result shared by many platforms is never copied.
///
/// Polls `cancel` once per committed task: when it trips, the unfinished
/// platforms get [`ScheduleError::Cancelled`] without anything further
/// committed (a prefix of a schedule is not a schedule).
/// [`CancelSignal::default`] never trips.
///
/// # Errors
///
/// Per platform: [`ScheduleError::InvalidGraph`] when the graph fails
/// validation (checked before any priority list is built),
/// [`ScheduleError::Infeasible`] when no ready task fits in either memory,
/// now or ever.
pub(crate) fn sweep<H: ListHeuristic + ?Sized>(
    heuristic: &H,
    graph: &TaskGraph,
    platforms: &[Platform],
    cancel: CancelSignal<'_>,
    sink: Sink<'_>,
) {
    if let Err(e) = graph.validate() {
        let all: Vec<usize> = (0..platforms.len()).collect();
        sink(&all, Err(e.into()));
        return;
    }
    let order = heuristic.priority(graph);
    let rule = match order {
        Some(_) => Rule::Priority,
        None => Rule::MinEft,
    };
    for chain in chains(platforms) {
        let (leader, followers) = chain.split_first().expect("a chain has a leader");
        let mut core = ListCore::new(graph, leader.platform, rule, heuristic.prefer_red());
        core.admit(graph.task_ids());
        if let Some(order) = &order {
            core.reorder(order);
        }
        core.followers.chain = followers.iter().rev().copied().collect();
        drive(core, leader.index, cancel, sink).file(sink);
    }
}

/// [`sweep`] on the one platform of a single solve.
pub(crate) fn sweep_one<H: ListHeuristic + ?Sized>(
    heuristic: &H,
    graph: &TaskGraph,
    platform: &Platform,
    cancel: CancelSignal<'_>,
) -> Result<Schedule, ScheduleError> {
    let mut result = None;
    sweep(
        heuristic,
        graph,
        std::slice::from_ref(platform),
        cancel,
        &mut |_, r| result = Some(r),
    );
    result.expect("one platform, one result")
}

/// One platform of a sweep: its index in the caller's slice, and the
/// platform.
#[derive(Debug, Clone, Copy)]
struct Member<'a> {
    index: usize,
    platform: &'a Platform,
}

/// Splits `platforms` into chains (see the module docs), each listed from
/// its leader down: every member follows the one before it.
fn chains(platforms: &[Platform]) -> Vec<Vec<Member<'_>>> {
    let mut left: Vec<Member<'_>> = platforms
        .iter()
        .enumerate()
        .map(|(index, platform)| Member { index, platform })
        .collect();
    left.sort_by(|a, b| {
        let (a, b) = (a.platform, b.platform);
        (b.blue_procs, b.red_procs)
            .cmp(&(a.blue_procs, a.red_procs))
            .then(b.mem_blue.total_cmp(&a.mem_blue))
            .then(b.mem_red.total_cmp(&a.mem_red))
    });
    let mut chains = Vec::new();
    while let Some((&leader, rest)) = left.split_first() {
        let mut chain = vec![leader];
        let mut unchained = Vec::new();
        for &member in rest {
            let last = chain.last().expect("a chain has a leader");
            if follows(member.platform, last.platform) {
                chain.push(member);
            } else {
                unchained.push(member);
            }
        }
        chains.push(chain);
        left = unchained;
    }
    chains
}

/// `true` when `follower` may share the commits of `leader`: the same
/// processors and, on each memory, a finite bound no larger than the
/// leader's finite one, or the leader's own bound where that is infinite.
fn follows(follower: &Platform, leader: &Platform) -> bool {
    (follower.blue_procs, follower.red_procs) == (leader.blue_procs, leader.red_procs)
        && [Memory::Blue, Memory::Red].into_iter().all(|mem| {
            let (f, l) = (follower.memory_bound(mem), leader.memory_bound(mem));
            if l.is_infinite() {
                f == l
            } else {
                f.is_finite() && f <= l
            }
        })
}

/// How a core ended: the platforms it answers (its leader last), its
/// placements, complete or not, and the error that stopped it short.
struct Finished {
    indices: Vec<usize>,
    placements: Schedule,
    error: Option<ScheduleError>,
}

impl Finished {
    /// Hands the result to `sink`.
    fn file(self, sink: Sink<'_>) {
        let result = match self.error {
            None => Ok(self.placements),
            Some(error) => Err(error),
        };
        sink(&self.indices, result);
    }
}

/// Runs `core`, whose own platform is `platforms[leader]`, to completion,
/// forking depth first where followers split off and filing each fork's
/// result with `sink`.
fn drive(
    mut core: ListCore<'_>,
    leader: usize,
    cancel: CancelSignal<'_>,
    sink: Sink<'_>,
) -> Finished {
    let stopped = loop {
        if core.partial.is_complete() {
            break None;
        }
        if cancel.is_cancelled() {
            break Some(core.cancelled());
        }
        let choice = core.select(0.0, None);
        if core.followers.split > 0 {
            let (fork, fork_leader) = core.fork();
            let finished = drive(fork, fork_leader, cancel, sink);
            core.rejoin(&finished.placements);
            finished.file(sink);
        }
        let Some((task, breakdown)) = choice else {
            break Some(core.infeasible());
        };
        core.commit(task, &breakdown);
        #[cfg(test)]
        tests::SHARED_COMMITS.with(|shared| {
            shared.set(shared.get() + core.followers.chain.len() as u64);
        });
    };
    let mut indices: Vec<usize> = core.followers.chain.iter().map(|m| m.index).collect();
    indices.push(leader);
    Finished {
        indices,
        placements: core.partial.into_schedule(),
        error: stopped,
    }
}

/// The platforms sharing a core's commits (see the module docs).
#[derive(Debug, Clone, Default)]
struct Followers<'a> {
    /// Ascending bounds: `chain[0]` is the smallest.
    chain: Vec<Member<'a>>,
    /// How many of `chain` (a prefix) split off during the current step.
    split: usize,
}

impl Followers<'_> {
    /// `partial.evaluate(task, mem)`, splitting off every follower whose
    /// bound would change its start (the check of the module docs).
    fn evaluate(
        &mut self,
        partial: &PartialSchedule<'_>,
        task: TaskId,
        mem: Memory,
    ) -> Option<EstBreakdown> {
        if self.split == self.chain.len() {
            return partial.evaluate(task, mem);
        }
        let demand = partial.demand(task, mem)?;
        let bound = partial.memory_state().bound(mem);
        let value = partial.place(&demand, bound);
        while let Some(member) = self.chain.get(self.split) {
            let follower_bound = member.platform.memory_bound(mem);
            let start = |bd: Option<EstBreakdown>| bd.map(|bd| bd.est.to_bits());
            if follower_bound == bound
                || start(partial.place(&demand, follower_bound)) == start(value)
            {
                break;
            }
            self.split += 1;
        }
        value
    }
}

/// The selection core (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct ListCore<'a> {
    partial: PartialSchedule<'a>,
    cache: EstCache,
    /// The commit record, reused every step so steady state allocates
    /// nothing per commit.
    effects: CommitEffects,
    rule: Rule,
    prefer_red: bool,
    /// `admitted[t]`: task `t` may be selected once ready.
    admitted: Vec<bool>,
    /// The admitted tasks in priority order ([`Rule::Priority`]), and its
    /// inverse.
    order: Vec<TaskId>,
    position_of: Vec<u32>,
    /// The admitted, ready, uncommitted tasks keyed by priority position
    /// ([`Rule::Priority`] only). Chunked storage: at 10⁵ tasks the
    /// frontier holds thousands of candidates, past the point where a flat
    /// vector's insert memmove dominates.
    candidates: ChunkedIndexSet,
    /// Earliest floored start among the candidates the last `select`
    /// deferred past its window.
    deferred_min: Option<f64>,
    /// The sweep platforms sharing this core's commits (none outside a
    /// sweep).
    followers: Followers<'a>,
    /// Called with every selection and the `now` it was made at.
    #[cfg(test)]
    pub(crate) audit: Option<Audit>,
}

/// A test's check of one selection: the core after the scan, `now`, and the
/// choice.
#[cfg(test)]
pub(crate) type Audit = fn(&ListCore<'_>, f64, Option<(TaskId, EstBreakdown)>);

impl<'a> ListCore<'a> {
    /// An empty core: nothing committed, nothing admitted.
    pub(crate) fn new(
        graph: &'a TaskGraph,
        platform: &'a Platform,
        rule: Rule,
        prefer_red: bool,
    ) -> Self {
        let n = graph.n_tasks();
        ListCore {
            partial: PartialSchedule::new(graph, platform),
            cache: EstCache::new(n),
            effects: CommitEffects::empty(),
            rule,
            prefer_red,
            admitted: vec![false; n],
            order: Vec::new(),
            position_of: vec![u32::MAX; n],
            candidates: ChunkedIndexSet::new(),
            deferred_min: None,
            followers: Followers::default(),
            #[cfg(test)]
            audit: None,
        }
    }

    /// `true` once `task` has been admitted.
    pub(crate) fn is_admitted(&self, task: TaskId) -> bool {
        self.admitted[task.index()]
    }

    /// Earliest floored start among the candidates the last
    /// [`ListCore::select`] deferred past its window (`None`: none was).
    pub(crate) fn deferred_min(&self) -> Option<f64> {
        self.deferred_min
    }

    /// Admits `tasks`: once ready, they are candidates. Under
    /// [`Rule::Priority`] they have no position yet: call
    /// [`ListCore::reorder`] before the next [`ListCore::select`].
    pub(crate) fn admit(&mut self, tasks: impl IntoIterator<Item = TaskId>) {
        for task in tasks {
            self.admitted[task.index()] = true;
        }
    }

    /// Installs `order` — every admitted task exactly once — as the
    /// priority list, and re-keys the candidates by their new positions.
    pub(crate) fn reorder(&mut self, order: &[TaskId]) {
        self.order.clear();
        self.order.extend_from_slice(order);
        for (position, &task) in order.iter().enumerate() {
            self.position_of[task.index()] = position as u32;
        }
        let mut positions: Vec<u32> = self
            .partial
            .ready_iter()
            .filter(|task| self.admitted[task.index()])
            .map(|task| self.position_of[task.index()])
            .collect();
        positions.sort_unstable();
        self.candidates = ChunkedIndexSet::from_sorted(positions);
    }

    /// One selection step at virtual time `now`: the candidate `rule` picks
    /// among the floored evaluations (see the module docs), or `None` when
    /// no candidate is feasible. With a `window` (an absolute latest start),
    /// candidates starting after it do not compete; the earliest of their
    /// starts is kept as [`ListCore::deferred_min`].
    pub(crate) fn select(
        &mut self,
        now: f64,
        window: Option<f64>,
    ) -> Option<(TaskId, EstBreakdown)> {
        let ListCore {
            partial,
            cache,
            rule,
            prefer_red,
            admitted,
            order,
            candidates,
            deferred_min,
            followers,
            ..
        } = self;
        let (partial, rule, prefer_red) = (&*partial, *rule, *prefer_red);
        *deferred_min = None;
        let procs = partial.processor_state();
        let resource = [Memory::Blue, Memory::Red].map(|mem| procs.earliest_available(mem));
        let mut best: Option<(TaskId, EstBreakdown)> = None;
        // Weighs one candidate against `best`; `true` once the rule has
        // its choice.
        let mut consider = |task: TaskId| {
            let work = |mem: Memory| partial.graph().task(task).work_on(mem.is_blue());
            let mut pair = [None, None];
            for mem in [Memory::Blue, Memory::Red] {
                let i = mem.index();
                let side = match cache.cached(task, mem) {
                    Ok(current) => current,
                    Err(stale) => {
                        // With no best yet nothing can be skipped, so the
                        // priority rule never pays for the bound.
                        if let (None, Some(_), Some(stale)) = (window, &best, stale) {
                            let bound = resource[i].max(stale.precedence).max(now) + work(mem);
                            if PartialSchedule::cannot_beat(&best, task, bound) {
                                continue;
                            }
                        }
                        cache.store(task, mem, followers.evaluate(partial, task, mem))
                    }
                };
                pair[i] = side;
                // Floored at `now`: `est' = max(est, now)`, `eft' = est' + work`.
                if let Some(bd) = &mut pair[i] {
                    if bd.est < now {
                        bd.est = now;
                        bd.eft = now + work(mem);
                    }
                }
            }
            let Some(bd) = PartialSchedule::combine_pair(pair, prefer_red) else {
                return false;
            };
            if window.is_some_and(|limit| bd.est > limit) {
                *deferred_min = Some(deferred_min.map_or(bd.est, |d| d.min(bd.est)));
                false
            } else if PartialSchedule::is_better_choice(&best, task, &bd) {
                best = Some((task, bd));
                rule == Rule::Priority
            } else {
                false
            }
        };
        match rule {
            Rule::Priority => {
                for key in candidates.iter() {
                    if consider(order[key as usize]) {
                        break;
                    }
                }
            }
            Rule::MinEft => {
                for task in partial.ready_iter() {
                    if admitted[task.index()] && consider(task) {
                        break;
                    }
                }
            }
        }
        #[cfg(test)]
        if let Some(audit) = self.audit {
            audit(self, now, best);
        }
        best
    }

    /// Commits `task` at `breakdown` (from the last [`ListCore::select`]) and
    /// maintains the candidates and the cache epochs.
    pub(crate) fn commit(&mut self, task: TaskId, breakdown: &EstBreakdown) {
        self.partial.commit_into(task, breakdown, &mut self.effects);
        if self.rule == Rule::Priority {
            let position_of = &self.position_of;
            self.candidates.remove(position_of[task.index()]);
            for &child in &self.effects.newly_ready {
                if self.admitted[child.index()] {
                    self.candidates.insert(position_of[child.index()]);
                }
            }
        }
        self.cache.apply(&self.effects);
    }

    /// Splits the followers that split off in this step into a fork (see
    /// the module docs), returned with the index of its leader. The fork
    /// takes the cache and the placements rather than copies of them, so a
    /// paused leader and its fork hold one of each:
    /// [`ListCore::rejoin`] must take them back before the next step.
    fn fork(&mut self) -> (ListCore<'a>, usize) {
        let split: Vec<Member<'a>> = self.followers.chain.drain(..self.followers.split).collect();
        self.followers.split = 0;
        let (&leader, rest) = split.split_last().expect("a fork has a leader");
        let cache = std::mem::replace(&mut self.cache, EstCache::new(0));
        let placements = self.partial.lend_placements();
        let mut fork = self.clone();
        fork.cache = cache;
        fork.cache.stale_all();
        fork.followers.chain = rest.to_vec();
        fork.partial.rebound(leader.platform, placements);
        (fork, leader.index)
    }

    /// Resumes after a fork: takes the lent placements back from the
    /// fork's `placements`, and starts a fresh cache (every side stale)
    /// in place of the one the fork took.
    fn rejoin(&mut self, placements: &Schedule) {
        self.partial.rejoin(placements);
        self.cache = EstCache::new(self.partial.graph().n_tasks());
    }

    /// The paper's "cannot be processed within the memory bounds" error, for
    /// a solve no ready task can continue.
    fn infeasible(&self) -> ScheduleError {
        ScheduleError::Infeasible {
            scheduled: self.partial.n_scheduled(),
            total: self.partial.graph().n_tasks(),
        }
    }

    /// The error a cancelled solve reports.
    pub(crate) fn cancelled(&self) -> ScheduleError {
        ScheduleError::Cancelled {
            scheduled: self.partial.n_scheduled(),
            total: self.partial.graph().n_tasks(),
        }
    }

    /// The complete schedule, or the paper's "cannot be processed within the
    /// memory bounds" error.
    pub(crate) fn finish(self) -> Result<Schedule, ScheduleError> {
        self.partial.finish_or_error()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ablation::{MemHeftVariant, MemoryPreference, PriorityScheme, TieBreak};
    use crate::traits::Scheduler;
    use crate::{Heft, MemHeft, MemMinMin, MinMin};
    use mals_gen::{DaggenParams, WeightRanges};
    use mals_util::Pcg64;
    use std::cell::Cell;

    thread_local! {
        /// Commits the sweeps on this thread shared: one per follower per
        /// commit of its leader.
        pub(super) static SHARED_COMMITS: Cell<u64> = const { Cell::new(0) };
    }

    impl<'a> ListCore<'a> {
        /// The schedule under construction.
        pub(crate) fn partial(&self) -> &PartialSchedule<'a> {
            &self.partial
        }

        /// The number of candidate sides whose cached evaluation is stale:
        /// after a window-free `select`, the sides its bound skipped.
        pub(crate) fn stale_sides(&self) -> usize {
            self.partial
                .ready_iter()
                .filter(|&task| self.is_admitted(task))
                .flat_map(|task| [Memory::Blue, Memory::Red].map(|mem| (task, mem)))
                .filter(|&(task, mem)| self.cache.cached(task, mem).is_err())
                .count()
        }
    }

    #[test]
    fn pruned_choice_matches_best_ready_choice_at_every_commit() {
        // Daggen DAGs under memory bounds α × HEFT's peak: at every commit
        // the pruned, cached step must pick exactly what the uncached scan
        // picks, and over the run some stale side must have been skipped.
        let mut rng = Pcg64::new(1812);
        let mut skipped = 0;
        for _ in 0..3 {
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
            for alpha in [0.3, 0.5, 0.7, 1.0] {
                let platform = Platform::new(2, 2, alpha * peak, alpha * peak).unwrap();
                let mut core = ListCore::new(&g, &platform, Rule::MinEft, false);
                core.admit(g.task_ids());
                loop {
                    let pruned = core.select(0.0, None);
                    assert_eq!(pruned, core.partial.best_ready_choice(), "α = {alpha}");
                    skipped += core.stale_sides();
                    let Some((task, bd)) = pruned else {
                        break;
                    };
                    core.commit(task, &bd);
                }
            }
        }
        assert!(skipped > 0, "the bound never pruned a side");
    }

    #[test]
    fn every_scheduler_rejects_a_cyclic_graph() {
        // Validation comes before any priority list is built: the rank
        // computations would panic on a cycle.
        let mut g = TaskGraph::new();
        let a = g.add_task("a", 1.0, 1.0);
        let b = g.add_task("b", 1.0, 1.0);
        g.add_edge(a, b, 1.0, 1.0).unwrap();
        g.add_edge(b, a, 1.0, 1.0).unwrap();
        let variants = [
            MemHeftVariant {
                priority: PriorityScheme::CriticalPathSum,
                ..Default::default()
            },
            MemHeftVariant {
                priority: PriorityScheme::MemoryRequirement,
                ..Default::default()
            },
            MemHeftVariant {
                memory_preference: MemoryPreference::Red,
                ..Default::default()
            },
            MemHeftVariant {
                tie_break: TieBreak::Random(1),
                ..Default::default()
            },
        ];
        let (heft, minmin) = (Heft::new(), MinMin::new());
        let mut schedulers: Vec<&dyn Scheduler> = vec![&MemHeft, &MemMinMin, &heft, &minmin];
        schedulers.extend(variants.iter().map(|v| v as &dyn Scheduler));
        for scheduler in schedulers {
            let err = scheduler.schedule(&g, &Platform::default()).unwrap_err();
            assert!(
                matches!(err, ScheduleError::InvalidGraph(_)),
                "{}: {err}",
                scheduler.name()
            );
        }
    }

    /// The tasks a result placed: all of them, or the count an error
    /// reports.
    fn placed(result: &Result<Schedule, ScheduleError>, n: usize) -> u64 {
        match result {
            Ok(_) => n as u64,
            Err(ScheduleError::Infeasible { scheduled, .. }) => *scheduled as u64,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    #[test]
    fn chains_descend_and_leave_incomparable_platforms_to_their_own_leaders() {
        let pair = Platform::single_pair;
        let platforms = [
            pair(5.0, 5.0),
            pair(9.0, 4.0),
            pair(4.0, 9.0),
            pair(10.0, 10.0),
            pair(5.0, 5.0),
            pair(f64::INFINITY, 3.0),
            pair(f64::INFINITY, 8.0),
            Platform::new(2, 1, 5.0, 5.0).unwrap(),
        ];
        let chains: Vec<Vec<usize>> = chains(&platforms)
            .iter()
            .map(|chain| chain.iter().map(|member| member.index).collect())
            .collect();
        // Other processors, then +∞ blue (which only +∞ blue may follow),
        // then the finite pairs, each chain descending from its leader.
        assert_eq!(
            chains,
            vec![vec![7], vec![6, 5], vec![3, 1], vec![0, 4], vec![2]]
        );
    }

    #[test]
    fn sweep_shares_the_unbound_steps_of_a_figure_12_grid() {
        // One 1000-task LargeRandSet DAG at the campaign's 21 bounds
        // α · (HEFT's peak): each entry is the solve of its platform alone,
        // and the α = 1 leader shares at least 30 % of the α < 1 commits.
        let mut rng = Pcg64::new(0x1000 + 1000);
        let g = mals_gen::daggen::generate(
            &DaggenParams::large_rand().with_size(1000),
            &WeightRanges::large_rand(),
            &mut rng,
        );
        let open = Platform::single_pair(f64::INFINITY, f64::INFINITY);
        let heft = Heft::new().schedule(&g, &open).unwrap();
        let peak = mals_sim::memory_peaks(&g, &open, &heft).max();
        let platforms: Vec<Platform> = (0..=20)
            .map(|i| {
                let bound = i as f64 / 20.0 * peak;
                open.with_memory_bounds(bound, bound)
            })
            .collect();
        let heuristics: [&dyn ListHeuristic; 2] = [&MemHeft, &MemMinMin];
        for heuristic in heuristics {
            SHARED_COMMITS.with(|shared| shared.set(0));
            let mut swept = vec![None; platforms.len()];
            sweep(
                heuristic,
                &g,
                &platforms,
                CancelSignal::default(),
                &mut |indices, result| {
                    for &i in indices {
                        swept[i] = Some(result.clone());
                    }
                },
            );
            let shared = SHARED_COMMITS.with(Cell::get);
            let mut total = 0;
            for (platform, result) in platforms.iter().zip(&swept) {
                let result = result.as_ref().expect("every platform has a result");
                let alone = sweep_one(heuristic, &g, platform, CancelSignal::default());
                assert_eq!(&alone, result, "bound {}", platform.mem_blue);
                if platform.mem_blue < peak {
                    total += placed(result, g.n_tasks());
                }
            }
            eprintln!("shared {shared} of {total} commits");
            assert!(
                10 * shared >= 3 * total,
                "shared {shared} of {total} commits"
            );
        }
    }
}
