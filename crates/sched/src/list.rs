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
//! whole graph up front and drive [`run`]; the online replayer admits tasks
//! as they arrive and calls [`ListCore::select`] at the virtual `now` of
//! each re-plan.
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

/// Schedules `graph` on `platform` with `heuristic`, polling `cancel` once
/// per committed task: when it trips, returns [`ScheduleError::Cancelled`]
/// without committing anything further (a prefix of a schedule is not a
/// schedule). [`CancelSignal::default`] never trips.
///
/// # Errors
///
/// [`ScheduleError::InvalidGraph`] when the graph fails validation (checked
/// before any priority list is built), [`ScheduleError::Infeasible`] when no
/// ready task fits in either memory, now or ever.
pub(crate) fn run<H: ListHeuristic + ?Sized>(
    heuristic: &H,
    graph: &TaskGraph,
    platform: &Platform,
    cancel: CancelSignal<'_>,
) -> Result<Schedule, ScheduleError> {
    graph.validate()?;
    let order = heuristic.priority(graph);
    let rule = match order {
        Some(_) => Rule::Priority,
        None => Rule::MinEft,
    };
    let mut core = ListCore::new(graph, platform, rule, heuristic.prefer_red());
    core.admit(graph.task_ids());
    if let Some(order) = order {
        core.reorder(&order);
    }
    while !core.partial.is_complete() {
        if cancel.is_cancelled() {
            return Err(core.cancelled());
        }
        let Some((task, breakdown)) = core.select(0.0, None) else {
            break;
        };
        core.commit(task, &breakdown);
    }
    core.finish()
}

/// The selection core (see the module docs).
#[derive(Debug)]
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
                        cache.reevaluate(partial, task, mem)
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
}
