//! The scheduling engine shared by every list scheduler in the workspace.
//!
//! [`PartialSchedule`] owns the state of an in-construction schedule:
//!
//! * per-processor availability ([`ProcessorState`]),
//! * per-memory usage profiles ([`MemoryState`]),
//! * the placements committed so far.
//!
//! Its two key operations follow Section 5.1 of the paper:
//!
//! * [`PartialSchedule::evaluate`] computes, for a ready task and a candidate
//!   memory, the four components of the earliest start time —
//!   `resource_EST`, `precedence_EST`, `task_mem_EST`, `comm_mem_EST` — and
//!   the resulting earliest finish time `EFT`, or `None` when the task can
//!   never fit in that memory given the current reservations;
//! * [`PartialSchedule::commit`] places the task at its `EST`, schedules its
//!   incoming cross-memory transfers *as late as possible* and updates the
//!   memory profiles (reserving output files until their consumers are
//!   scheduled, releasing input files when the task completes).
//!
//! MemHEFT and MemMinMin differ only in the order in which they call these
//! two operations; the memory-oblivious HEFT and MinMin baselines call them
//! on a platform whose memory bounds are infinite.

use crate::error::ScheduleError;
use mals_dag::{TaskGraph, TaskId};
use mals_platform::{Memory, MemoryState, Platform, ProcessorState};
use mals_sim::{CommPlacement, Schedule, TaskPlacement};
use mals_util::ChunkedIndexSet;

/// The decomposition of the earliest start / finish time of a task on a
/// candidate memory (Section 5.1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstBreakdown {
    /// Candidate memory this evaluation refers to.
    pub memory: Memory,
    /// `resource_EST⁽µ⁾`: earliest availability of a processor of `µ`.
    pub resource: f64,
    /// `precedence_EST⁽µ⁾`: all parents finished and their files arrived.
    pub precedence: f64,
    /// `task_mem_EST⁽µ⁾`: earliest time from which the new files of the task
    /// (cross-memory inputs + outputs) fit in `µ` forever.
    pub task_mem: f64,
    /// `comm_mem_EST⁽µ⁾`: earliest time from which the cross-memory input
    /// files alone fit in `µ` forever.
    pub comm_mem: f64,
    /// `C⁽µ⁾_i`: the longest incoming cross-memory transfer (0 if none); the
    /// transfers are scheduled inside the window `[EST − C⁽µ⁾_i, EST)`.
    pub comm_window: f64,
    /// The earliest start time: `max(resource, precedence, task_mem,
    /// comm_mem + C⁽µ⁾_i)`.
    pub est: f64,
    /// The earliest finish time: `EST + W⁽µ⁾_i`.
    pub eft: f64,
}

/// The part of an evaluation that does not depend on the memory bound
/// ([`PartialSchedule::demand`]): the processor and precedence terms and
/// the amounts that must fit, for one task on one memory.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Demand {
    memory: Memory,
    resource: f64,
    precedence: f64,
    /// The cross-memory input files (`comm_mem_EST`'s amount).
    cross_inputs: f64,
    /// Cross-memory inputs plus outputs (`task_mem_EST`'s amount).
    task_need: f64,
    comm_window: f64,
    work: f64,
}

/// What a [`PartialSchedule::commit`] changed, in exactly the terms an
/// incremental driver needs:
///
/// * which per-memory state (processor availability and/or usage profile)
///   was touched — the commit's own memory always is; the *other* memory only
///   when a cross-memory transfer released a file there;
/// * which tasks became ready (their cached evaluations cannot exist yet —
///   a task is evaluated only once ready, and it was not ready before).
///
/// An EST cache keyed on these facts (the selection core's) is exact: an
/// evaluation `evaluate(task, µ)` reads only `µ`'s processor/memory state and
/// the placements of `task`'s (already committed) parents.
#[derive(Debug, Clone)]
pub struct CommitEffects {
    /// The task that was committed.
    pub task: TaskId,
    /// The memory it was placed on.
    pub memory: Memory,
    /// `true` when the commit also mutated the *other* memory's profile
    /// (a cross-memory transfer released the file from the producer side).
    pub other_memory_touched: bool,
    /// Tasks whose last parent this commit scheduled, in child-list order.
    pub newly_ready: Vec<TaskId>,
}

impl CommitEffects {
    /// A blank effects record to pass to [`PartialSchedule::commit_into`];
    /// reuse one per schedule so the `newly_ready` vector is allocated once.
    pub fn empty() -> Self {
        CommitEffects {
            task: TaskId::from_index(0),
            memory: Memory::Blue,
            other_memory_touched: false,
            newly_ready: Vec::new(),
        }
    }
}

impl Default for CommitEffects {
    fn default() -> Self {
        Self::empty()
    }
}

/// State of a schedule under construction.
#[derive(Debug, Clone)]
pub struct PartialSchedule<'a> {
    graph: &'a TaskGraph,
    platform: &'a Platform,
    procs: ProcessorState,
    mem: MemoryState,
    schedule: Schedule,
    assigned_memory: Vec<Option<Memory>>,
    finish: Vec<f64>,
    remaining_parents: Vec<usize>,
    /// Indices of the ready tasks, kept incrementally by `commit` so no loop
    /// ever rescans the whole task set to find them. Chunked storage
    /// ([`ChunkedIndexSet`]): a 10⁵-task layered DAG keeps thousands of
    /// tasks ready at once, where a flat sorted vector's per-commit
    /// `Vec::insert` memmove becomes the dominant cost.
    ready: ChunkedIndexSet,
    n_scheduled: usize,
}

impl<'a> PartialSchedule<'a> {
    /// Creates an empty partial schedule for `graph` on `platform`.
    pub fn new(graph: &'a TaskGraph, platform: &'a Platform) -> Self {
        let remaining_parents: Vec<usize> = graph.task_ids().map(|t| graph.in_degree(t)).collect();
        let ready = ChunkedIndexSet::from_sorted(
            remaining_parents
                .iter()
                .enumerate()
                .filter(|&(_, &parents)| parents == 0)
                .map(|(i, _)| i as u32),
        );
        PartialSchedule {
            graph,
            platform,
            procs: ProcessorState::new(platform),
            mem: MemoryState::new(platform),
            schedule: Schedule::for_graph(graph),
            assigned_memory: vec![None; graph.n_tasks()],
            finish: vec![0.0; graph.n_tasks()],
            remaining_parents,
            ready,
            n_scheduled: 0,
        }
    }

    /// The task graph being scheduled.
    pub fn graph(&self) -> &TaskGraph {
        self.graph
    }

    /// The target platform.
    pub fn platform(&self) -> &Platform {
        self.platform
    }

    /// Number of tasks already placed.
    pub fn n_scheduled(&self) -> usize {
        self.n_scheduled
    }

    /// Number of tasks not placed yet.
    pub fn n_remaining(&self) -> usize {
        self.graph.n_tasks() - self.n_scheduled
    }

    /// Returns `true` once every task is placed.
    pub fn is_complete(&self) -> bool {
        self.n_remaining() == 0
    }

    /// Returns `true` if `task` has been placed.
    pub fn is_scheduled(&self, task: TaskId) -> bool {
        self.assigned_memory[task.index()].is_some()
    }

    /// Returns `true` if `task` is ready: not placed yet and all its parents
    /// placed.
    pub fn is_ready(&self, task: TaskId) -> bool {
        !self.is_scheduled(task) && self.remaining_parents[task.index()] == 0
    }

    /// All ready tasks, in task-id order (the `available_tasks` set of
    /// MemMinMin). `O(|ready|)` — the set is maintained incrementally.
    pub fn ready_tasks(&self) -> Vec<TaskId> {
        self.ready_iter().collect()
    }

    /// Iterates the ready tasks in task-id order without allocating (the
    /// allocation-free counterpart of [`PartialSchedule::ready_tasks`]);
    /// callers that need a materialised list extend a reusable buffer.
    pub fn ready_iter(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.ready.iter().map(|i| TaskId::from_index(i as usize))
    }

    /// Number of ready tasks.
    pub fn n_ready(&self) -> usize {
        self.ready.len()
    }

    /// Actual finish time of a placed task.
    pub fn finish_time(&self, task: TaskId) -> Option<f64> {
        self.is_scheduled(task).then(|| self.finish[task.index()])
    }

    /// Memory a placed task was assigned to.
    pub fn memory_of(&self, task: TaskId) -> Option<Memory> {
        self.assigned_memory[task.index()]
    }

    /// Makespan of the placements committed so far.
    pub fn makespan(&self) -> f64 {
        self.schedule.makespan()
    }

    /// Lends the placements to a fork of this schedule under construction
    /// (see [`PartialSchedule::rebound`]): this one holds none until
    /// [`PartialSchedule::rejoin`] takes them back, so the two never hold
    /// two copies of the prefix.
    pub(crate) fn lend_placements(&mut self) -> Schedule {
        std::mem::replace(&mut self.schedule, Schedule::empty(0, 0))
    }

    /// Makes this copy of a schedule under construction a fork on
    /// `platform`, which may differ from the current one only in its memory
    /// bounds (finite where the current ones are finite, since a `+∞`
    /// memory keeps no profile), holding `placements`, lent by the
    /// original.
    pub(crate) fn rebound(&mut self, platform: &'a Platform, placements: Schedule) {
        assert_eq!(
            (platform.blue_procs, platform.red_procs),
            (self.platform.blue_procs, self.platform.red_procs),
            "re-bounding keeps the processors"
        );
        self.mem.rebound([platform.mem_blue, platform.mem_red]);
        self.platform = platform;
        self.schedule = placements;
    }

    /// Takes back the placements lent to a fork from `fork`, the fork's
    /// own: they extend this schedule's, so this schedule's are those of
    /// its own placed tasks and of their incoming transfers.
    pub(crate) fn rejoin(&mut self, fork: &Schedule) {
        let mut schedule = Schedule::for_graph(self.graph);
        for task in self.graph.task_ids().filter(|&t| self.is_scheduled(t)) {
            schedule.place_task(*fork.task(task).expect("a fork keeps what it was lent"));
            for &e in self.graph.in_edges(task) {
                if let Some(comm) = fork.comm(e) {
                    schedule.place_comm(comm);
                }
            }
        }
        self.schedule = schedule;
    }

    /// Read-only access to the memory profiles (used by tests and tracing).
    pub fn memory_state(&self) -> &MemoryState {
        &self.mem
    }

    /// Read-only access to the processor availabilities.
    pub fn processor_state(&self) -> &ProcessorState {
        &self.procs
    }

    /// Consumes the partial schedule and returns the placements committed so
    /// far (complete or not).
    pub fn into_schedule(self) -> Schedule {
        self.schedule
    }

    /// Consumes the partial schedule; returns the schedule if complete, or
    /// the paper's "cannot be processed within the memory bounds" error.
    pub fn finish_or_error(self) -> Result<Schedule, ScheduleError> {
        if self.is_complete() {
            Ok(self.schedule)
        } else {
            Err(ScheduleError::Infeasible {
                scheduled: self.n_scheduled,
                total: self.graph.n_tasks(),
            })
        }
    }

    /// Evaluates the earliest start / finish time of `task` on `mem`.
    ///
    /// Returns `None` when the task is not ready (some parent unplaced) or
    /// when its memory requirement can never be satisfied on `mem` given the
    /// current reservations (the paper's `EFT = +∞` case).
    pub fn evaluate(&self, task: TaskId, mem: Memory) -> Option<EstBreakdown> {
        let demand = self.demand(task, mem)?;
        self.place(&demand, self.mem.bound(mem))
    }

    /// The half of [`PartialSchedule::evaluate`] that does not depend on
    /// the memory bound: everything but the two memory fits. `None` when
    /// `task` is not ready.
    #[inline]
    pub(crate) fn demand(&self, task: TaskId, mem: Memory) -> Option<Demand> {
        if !self.is_ready(task) {
            return None;
        }
        // resource_EST: a processor of `mem` must be free.
        let resource = self.procs.earliest_available(mem);

        // One pass over the in-edges:
        // * precedence_EST: every parent finished, plus the transfer time
        //   for parents hosted on the other memory;
        // * the input files that would have to be brought into `mem`
        //   (produced on the other memory), summed in in-edge order;
        // * `C⁽µ⁾_i`: the longest of those incoming transfers.
        let mut precedence = 0.0f64;
        let mut cross_inputs = 0.0;
        let mut comm_window = 0.0f64;
        for &e in self.graph.in_edges(task) {
            let edge = self.graph.edge(e);
            let parent_mem = self.assigned_memory[edge.src.index()]
                .expect("ready task implies scheduled parents");
            let arrival = self.finish[edge.src.index()]
                + if parent_mem == mem {
                    0.0
                } else {
                    cross_inputs += edge.size;
                    comm_window = comm_window.max(edge.comm_cost);
                    edge.comm_cost
                };
            precedence = precedence.max(arrival);
        }

        // Memory requirements: new files that must fit in `mem`.
        let outputs = self.graph.output_size(task);
        Some(Demand {
            memory: mem,
            resource,
            precedence,
            cross_inputs,
            task_need: cross_inputs + outputs,
            comm_window,
            work: self.graph.task(task).work_on(mem.is_blue()),
        })
    }

    /// The evaluation of `demand` as if its memory had capacity `bound`
    /// (the rest of [`PartialSchedule::evaluate`]). Every memory-dependent
    /// term is monotone in `bound`, so the start is too: a larger bound
    /// never starts later, and never fails where a smaller one fits.
    #[inline]
    pub(crate) fn place(&self, demand: &Demand, bound: f64) -> Option<EstBreakdown> {
        let Demand {
            memory: mem,
            resource,
            precedence,
            cross_inputs,
            task_need,
            comm_window,
            work,
        } = *demand;
        let task_mem = self.mem.earliest_fit_within(mem, 0.0, task_need, bound)?;
        let comm_mem = self
            .mem
            .earliest_fit_within(mem, 0.0, cross_inputs, bound)?;

        let est = resource
            .max(precedence)
            .max(task_mem)
            .max(comm_mem + comm_window);
        let eft = est + work;
        Some(EstBreakdown {
            memory: mem,
            resource,
            precedence,
            task_mem,
            comm_mem,
            comm_window,
            est,
            eft,
        })
    }

    /// Evaluates `task` on both memories, returning the per-memory
    /// breakdowns as `[blue, red]` (the cacheable unit of the incremental
    /// engine).
    pub fn evaluate_pair(&self, task: TaskId) -> [Option<EstBreakdown>; 2] {
        [
            self.evaluate(task, Memory::Blue),
            self.evaluate(task, Memory::Red),
        ]
    }

    /// Combines a `[blue, red]` evaluation pair into the preferred
    /// breakdown: smaller EFT wins, exact ties go to the blue memory unless
    /// `prefer_red` is set (the ablation variants exercise both policies).
    pub fn combine_pair(pair: [Option<EstBreakdown>; 2], prefer_red: bool) -> Option<EstBreakdown> {
        let [blue, red] = pair;
        match (blue, red) {
            (Some(b), Some(r)) => Some(match prefer_red {
                false => {
                    if b.eft <= r.eft {
                        b
                    } else {
                        r
                    }
                }
                true => {
                    if r.eft <= b.eft {
                        r
                    } else {
                        b
                    }
                }
            }),
            (Some(b), None) => Some(b),
            (None, Some(r)) => Some(r),
            (None, None) => None,
        }
    }

    /// Evaluates `task` on both memories and returns the breakdown with the
    /// smallest EFT (ties broken in favour of the blue memory), or `None` if
    /// the task fits on neither memory.
    pub fn evaluate_best(&self, task: TaskId) -> Option<EstBreakdown> {
        self.evaluate_best_with(task, false)
    }

    /// Like [`PartialSchedule::evaluate_best`], but EFT ties between the two
    /// memories are broken in favour of the red memory when `prefer_red` is
    /// set.
    pub fn evaluate_best_with(&self, task: TaskId, prefer_red: bool) -> Option<EstBreakdown> {
        Self::combine_pair(self.evaluate_pair(task), prefer_red)
    }

    /// The ready task with the globally smallest EFT and its breakdown: one
    /// uncached MemMinMin selection step (the reference the incremental
    /// loop is checked against).
    pub fn best_ready_choice(&self) -> Option<(TaskId, EstBreakdown)> {
        let mut best: Option<(TaskId, EstBreakdown)> = None;
        for task in self.ready_iter() {
            if let Some(bd) = self.evaluate_best(task) {
                if Self::is_better_choice(&best, task, &bd) {
                    best = Some((task, bd));
                }
            }
        }
        best
    }

    /// The (EFT, task-index) ordering of every MemMinMin selection (static,
    /// online and [`PartialSchedule::best_ready_choice`]): smaller EFT wins,
    /// near-ties (within [`mals_util::EPSILON`]) go to the smaller task id.
    pub(crate) fn is_better_choice(
        best: &Option<(TaskId, EstBreakdown)>,
        task: TaskId,
        bd: &EstBreakdown,
    ) -> bool {
        match best {
            None => true,
            Some((best_task, best_bd)) => {
                bd.eft < best_bd.eft - mals_util::EPSILON
                    || (mals_util::approx_eq(bd.eft, best_bd.eft)
                        && task.index() < best_task.index())
            }
        }
    }

    /// `true` when no EFT of at least `lower_bound` can win
    /// [`PartialSchedule::is_better_choice`] for `task` against `best`, so a
    /// MemMinMin scan may skip evaluating a side whose EFT is known to be at
    /// least `lower_bound`. Covers both branches of the ordering:
    ///
    /// * *strictly smaller*: `lower_bound ≥ best − EPSILON` rules it out for
    ///   every larger EFT, with the very float expression the ordering uses;
    /// * *near-tie, smaller id*: only a task with a smaller id than the best
    ///   can win a tie, and for it `lower_bound` must clear the best EFT by
    ///   twice the tolerance of [`mals_util::approx_eq`]. That margin makes
    ///   the whole ray `[lower_bound, +∞)` provably outside the tolerance
    ///   band, whatever the rounding inside `approx_eq`.
    ///
    /// With no best yet, anything wins, so nothing can be skipped.
    pub(crate) fn cannot_beat(
        best: &Option<(TaskId, EstBreakdown)>,
        task: TaskId,
        lower_bound: f64,
    ) -> bool {
        let Some((best_task, best_bd)) = best else {
            return false;
        };
        let best_eft = best_bd.eft;
        if lower_bound < best_eft - mals_util::EPSILON {
            return false;
        }
        if task.index() > best_task.index() {
            return true;
        }
        let scale = 1.0f64.max(lower_bound.abs()).max(best_eft.abs());
        lower_bound - best_eft > 2.0 * mals_util::EPSILON * scale
    }

    /// Commits the placement described by `breakdown` (obtained from
    /// [`PartialSchedule::evaluate`] on the *current* state): places the task
    /// on the best-fitting processor of the chosen memory, schedules its
    /// incoming cross-memory transfers as late as possible, and updates the
    /// memory profiles.
    ///
    /// Returns the [`CommitEffects`] — which per-memory state the commit
    /// touched and which tasks became ready — so incremental drivers can
    /// invalidate exactly the evaluations this placement stales.
    ///
    /// # Panics
    /// Panics if the task is not ready or the breakdown is stale (no
    /// processor available at the chosen start time).
    pub fn commit(&mut self, task: TaskId, breakdown: &EstBreakdown) -> CommitEffects {
        let mut effects = CommitEffects::empty();
        self.commit_into(task, breakdown, &mut effects);
        effects
    }

    /// [`PartialSchedule::commit`] into a caller-owned [`CommitEffects`]:
    /// `effects` is overwritten (its `newly_ready` vector cleared and
    /// refilled, reusing its capacity). The solver loops hold one effects
    /// record per schedule, so steady state commits allocate nothing.
    ///
    /// Every reservation and release of the commit (one or two per in-edge,
    /// plus the outputs) runs inside one [`MemoryState::batch`]: each
    /// mutation's values are applied at once, in the historical order, and
    /// each profile repairs its extrema once when the commit ends.
    ///
    /// # Panics
    /// Panics if the task is not ready or the breakdown is stale (no
    /// processor available at the chosen start time).
    pub fn commit_into(
        &mut self,
        task: TaskId,
        breakdown: &EstBreakdown,
        effects: &mut CommitEffects,
    ) {
        assert!(self.is_ready(task), "commit on a non-ready task");
        let mem = breakdown.memory;
        let est = breakdown.est;
        let eft = breakdown.eft;
        let mut other_memory_touched = false;

        // Processor selection: the available processor wasting the least idle
        // time (paper: minimise `EST(i, µ) − avail_proc(p)`).
        let proc = self
            .procs
            .best_proc(mem, est)
            .expect("evaluate guarantees a processor is available by EST");
        self.procs.assign(proc, eft);
        self.schedule.place_task(TaskPlacement {
            task,
            proc,
            start: est,
            finish: eft,
        });

        let mut profiles = self.mem.batch();

        // Incoming files.
        for &e in self.graph.in_edges(task) {
            let edge = self.graph.edge(e);
            let parent_mem = self.assigned_memory[edge.src.index()]
                .expect("ready task implies scheduled parents");
            if parent_mem == mem {
                // The file was reserved in `mem` when the parent was placed;
                // it is consumed (discarded) when this task completes.
                profiles.release_from(mem, eft, edge.size);
            } else {
                // Cross-memory transfer, scheduled as late as possible: it
                // completes exactly at EST. The file occupies the destination
                // memory from the (conservative) start of the transfer window
                // until this task completes, and leaves the source memory
                // when the transfer completes.
                let window_start = est - breakdown.comm_window;
                let transfer_start = est - edge.comm_cost;
                self.schedule.place_comm(CommPlacement {
                    edge: e,
                    start: transfer_start,
                    finish: est,
                });
                profiles.reserve_range(mem, window_start, eft, edge.size);
                profiles.release_from(parent_mem, est, edge.size);
                other_memory_touched |= edge.size != 0.0;
            }
        }

        // Output files: resident in `mem` from the start of the task until
        // their consumers are scheduled (released by the consumers' commits).
        let outputs = self.graph.output_size(task);
        profiles.reserve_from(mem, est, outputs);
        drop(profiles);

        // Bookkeeping.
        self.assigned_memory[task.index()] = Some(mem);
        self.finish[task.index()] = eft;
        self.n_scheduled += 1;
        self.ready.remove(task.index() as u32);
        effects.task = task;
        effects.memory = mem;
        effects.other_memory_touched = other_memory_touched;
        effects.newly_ready.clear();
        for child in self.graph.children(task) {
            self.remaining_parents[child.index()] -= 1;
            if self.remaining_parents[child.index()] == 0 {
                self.ready.insert(child.index() as u32);
                effects.newly_ready.push(child);
            }
        }

        debug_assert!(
            self.mem.check_invariants().is_ok(),
            "memory invariant violated after committing {task}: {:?}",
            self.mem.check_invariants()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mals_gen::dex;
    use mals_util::approx_eq;

    fn single_pair(mem: f64) -> Platform {
        Platform::single_pair(mem, mem)
    }

    #[test]
    fn initial_state() {
        let (g, [t1, ..]) = dex();
        let p = single_pair(10.0);
        let ps = PartialSchedule::new(&g, &p);
        assert_eq!(ps.n_scheduled(), 0);
        assert_eq!(ps.n_remaining(), 4);
        assert!(!ps.is_complete());
        assert!(ps.is_ready(t1));
        assert_eq!(ps.ready_tasks(), vec![t1]);
    }

    #[test]
    fn evaluate_source_task() {
        let (g, [t1, ..]) = dex();
        let p = single_pair(10.0);
        let ps = PartialSchedule::new(&g, &p);
        let blue = ps.evaluate(t1, Memory::Blue).unwrap();
        assert_eq!(blue.est, 0.0);
        assert_eq!(blue.eft, 3.0); // W1(T1) = 3
        let red = ps.evaluate(t1, Memory::Red).unwrap();
        assert_eq!(red.eft, 1.0); // W2(T1) = 1
                                  // Best memory for T1 is red.
        assert_eq!(ps.evaluate_best(t1).unwrap().memory, Memory::Red);
    }

    #[test]
    fn evaluate_not_ready_returns_none() {
        let (g, [_, t2, ..]) = dex();
        let p = single_pair(10.0);
        let ps = PartialSchedule::new(&g, &p);
        assert!(ps.evaluate(t2, Memory::Blue).is_none());
        assert!(ps.evaluate_best(t2).is_none());
    }

    #[test]
    fn memory_too_small_returns_none() {
        // T1's outputs are F12 + F13 = 3 units: a memory of 2 can never host it.
        let (g, [t1, ..]) = dex();
        let p = single_pair(2.0);
        let ps = PartialSchedule::new(&g, &p);
        assert!(ps.evaluate(t1, Memory::Blue).is_none());
        assert!(ps.evaluate(t1, Memory::Red).is_none());
    }

    #[test]
    fn commit_updates_state_and_readiness() {
        let (g, [t1, t2, t3, _t4]) = dex();
        let p = single_pair(10.0);
        let mut ps = PartialSchedule::new(&g, &p);
        let bd = ps.evaluate(t1, Memory::Red).unwrap();
        ps.commit(t1, &bd);
        assert!(ps.is_scheduled(t1));
        assert_eq!(ps.finish_time(t1), Some(1.0));
        assert_eq!(ps.memory_of(t1), Some(Memory::Red));
        assert_eq!(ps.n_scheduled(), 1);
        // T2 and T3 become ready, T4 does not.
        assert!(ps.is_ready(t2) && ps.is_ready(t3));
        assert_eq!(ps.ready_tasks(), vec![t2, t3]);
        // T1's outputs (3 units) are now resident in red memory.
        assert!(approx_eq(ps.memory_state().used_at(Memory::Red, 2.0), 3.0));
        assert!(approx_eq(ps.memory_state().used_at(Memory::Blue, 2.0), 0.0));
    }

    #[test]
    fn cross_memory_child_pays_transfer_and_reserves_both() {
        let (g, [t1, t2, ..]) = dex();
        let p = single_pair(10.0);
        let mut ps = PartialSchedule::new(&g, &p);
        let bd1 = ps.evaluate(t1, Memory::Red).unwrap();
        ps.commit(t1, &bd1);
        // Schedule T2 on blue: the file F12 (1 unit) must cross memories,
        // paying C12 = 1 after T1 completes at t=1.
        let bd2 = ps.evaluate(t2, Memory::Blue).unwrap();
        assert!(approx_eq(bd2.precedence, 1.0 + 1.0));
        assert!(approx_eq(bd2.comm_window, 1.0));
        assert!(approx_eq(bd2.est, 2.0));
        assert!(approx_eq(bd2.eft, 4.0));
        ps.commit(t2, &bd2);
        // The transfer is placed as late as possible: [1, 2).
        let sched = ps.clone().into_schedule();
        let e12 = g.edge_between(t1, t2).unwrap();
        let comm = sched.comm(e12).unwrap();
        assert!(approx_eq(comm.start, 1.0));
        assert!(approx_eq(comm.finish, 2.0));
        // Blue memory holds F12 (in transit / input) plus T2's output F24.
        assert!(ps.memory_state().used_at(Memory::Blue, 2.5) >= 2.0 - 1e-9);
        // Red memory released F12 when the transfer completed, keeps F13.
        assert!(approx_eq(ps.memory_state().used_at(Memory::Red, 3.0), 2.0));
    }

    #[test]
    fn same_memory_child_releases_input_at_completion() {
        let (g, [t1, t3, ..]) = {
            let (g, [t1, _t2, t3, t4]) = dex();
            (g, [t1, t3, t4, t4])
        };
        let p = single_pair(10.0);
        let mut ps = PartialSchedule::new(&g, &p);
        let bd1 = ps.evaluate(t1, Memory::Red).unwrap();
        ps.commit(t1, &bd1);
        let bd3 = ps.evaluate(t3, Memory::Red).unwrap();
        // Same memory: no transfer, starts right after T1.
        assert!(approx_eq(bd3.precedence, 1.0));
        assert!(approx_eq(bd3.comm_window, 0.0));
        ps.commit(t3, &bd3);
        // After T3 completes (t = 1 + 3 = 4), its input F13 is released:
        // red memory holds F12 (1, still waiting for T2) + F34 (2) = 3.
        assert!(approx_eq(ps.memory_state().used_at(Memory::Red, 5.0), 3.0));
    }

    #[test]
    fn full_manual_schedule_is_valid() {
        let (g, [t1, t2, t3, t4]) = dex();
        let p = single_pair(10.0);
        let mut ps = PartialSchedule::new(&g, &p);
        for t in [t1, t3, t2, t4] {
            let bd = ps.evaluate_best(t).expect("feasible");
            ps.commit(t, &bd);
        }
        assert!(ps.is_complete());
        let makespan = ps.makespan();
        let schedule = ps.finish_or_error().unwrap();
        let report = mals_sim::validate(&g, &p, &schedule);
        assert!(report.is_valid(), "errors: {:?}", report.errors);
        assert!(approx_eq(report.makespan, makespan));
    }

    #[test]
    fn finish_or_error_reports_infeasibility() {
        let (g, _) = dex();
        let p = single_pair(2.0); // too small for T1's outputs
        let ps = PartialSchedule::new(&g, &p);
        match ps.finish_or_error() {
            Err(ScheduleError::Infeasible { scheduled, total }) => {
                assert_eq!(scheduled, 0);
                assert_eq!(total, 4);
            }
            other => panic!("expected Infeasible, got {other:?}"),
        }
    }

    #[test]
    fn resource_est_waits_for_processor() {
        // Two source tasks, single pair of processors: the second task on the
        // same memory must wait for the first.
        let mut g = TaskGraph::new();
        let a = g.add_task("a", 5.0, 5.0);
        let b = g.add_task("b", 5.0, 5.0);
        let c = g.add_task("c", 1.0, 1.0);
        g.add_edge(a, c, 1.0, 1.0).unwrap();
        g.add_edge(b, c, 1.0, 1.0).unwrap();
        let p = single_pair(100.0);
        let mut ps = PartialSchedule::new(&g, &p);
        let bda = ps.evaluate(a, Memory::Blue).unwrap();
        ps.commit(a, &bda);
        let bdb = ps.evaluate(b, Memory::Blue).unwrap();
        assert!(approx_eq(bdb.resource, 5.0));
        assert!(approx_eq(bdb.est, 5.0));
        // On the red memory it could start immediately.
        let bdb_red = ps.evaluate(b, Memory::Red).unwrap();
        assert!(approx_eq(bdb_red.est, 0.0));
    }

    #[test]
    fn task_mem_est_waits_for_memory_release() {
        // A chain a -> b -> c with large files; a small memory forces the
        // scheduler to wait for releases before placing later tasks.
        let mut g = TaskGraph::new();
        let a = g.add_task("a", 1.0, 1.0);
        let b = g.add_task("b", 1.0, 1.0);
        let c = g.add_task("c", 1.0, 1.0);
        let d = g.add_task("d", 1.0, 1.0);
        g.add_edge(a, b, 6.0, 1.0).unwrap();
        g.add_edge(b, c, 6.0, 1.0).unwrap();
        g.add_edge(c, d, 6.0, 1.0).unwrap();
        let p = single_pair(12.0);
        let mut ps = PartialSchedule::new(&g, &p);
        for t in [a, b, c, d] {
            let bd = ps.evaluate(t, Memory::Blue).expect("feasible on 12 units");
            ps.commit(t, &bd);
        }
        let schedule = ps.finish_or_error().unwrap();
        let report = mals_sim::validate(&g, &p, &schedule);
        assert!(report.is_valid(), "errors: {:?}", report.errors);
        assert!(report.peaks.blue <= 12.0 + 1e-9);
    }

    #[test]
    fn memory_preference_flips_only_exact_ties() {
        // Two identical memories: every evaluation ties, so the preferred
        // memory wins; with distinct work costs the preference is inert.
        let mut g = TaskGraph::new();
        let t = g.add_task("t", 2.0, 2.0);
        let p = single_pair(10.0);
        let ps = PartialSchedule::new(&g, &p);
        assert_eq!(
            ps.evaluate_best_with(t, false).unwrap().memory,
            Memory::Blue
        );
        assert_eq!(ps.evaluate_best_with(t, true).unwrap().memory, Memory::Red);
    }

    /// A placeholder breakdown carrying only an EFT (all the selection
    /// ordering reads).
    fn with_eft(eft: f64) -> EstBreakdown {
        EstBreakdown {
            memory: Memory::Blue,
            resource: 0.0,
            precedence: 0.0,
            task_mem: 0.0,
            comm_mem: 0.0,
            comm_window: 0.0,
            est: 0.0,
            eft,
        }
    }

    #[test]
    fn cannot_beat_needs_a_best() {
        let t = TaskId::from_index(3);
        assert!(!PartialSchedule::cannot_beat(&None, t, f64::INFINITY));
    }

    #[test]
    fn cannot_beat_covers_the_strictly_smaller_branch() {
        let best = Some((TaskId::from_index(5), with_eft(10.0)));
        for id in [3, 7] {
            let t = TaskId::from_index(id);
            // A bound clearly below the best may still win outright.
            assert!(!PartialSchedule::cannot_beat(&best, t, 9.0));
            // A bound well above it loses on either side of the id order.
            assert!(PartialSchedule::cannot_beat(&best, t, 11.0));
        }
    }

    #[test]
    fn cannot_beat_a_bound_equal_to_the_best_eft() {
        let best = Some((TaskId::from_index(5), with_eft(10.0)));
        // A larger id cannot win a tie; a smaller id wins it.
        assert!(PartialSchedule::cannot_beat(
            &best,
            TaskId::from_index(7),
            10.0
        ));
        assert!(!PartialSchedule::cannot_beat(
            &best,
            TaskId::from_index(3),
            10.0
        ));
        assert!(PartialSchedule::is_better_choice(
            &best,
            TaskId::from_index(3),
            &with_eft(10.0)
        ));
    }

    #[test]
    fn cannot_beat_a_near_tie_within_epsilon() {
        let best = Some((TaskId::from_index(5), with_eft(10.0)));
        let near = 10.0 + 0.5 * mals_util::EPSILON;
        let (smaller, larger) = (TaskId::from_index(3), TaskId::from_index(7));
        assert!(PartialSchedule::is_better_choice(
            &best,
            smaller,
            &with_eft(near)
        ));
        assert!(!PartialSchedule::cannot_beat(&best, smaller, near));
        assert!(PartialSchedule::cannot_beat(&best, larger, near));
        // Just below the best by less than the tolerance: still a tie.
        let below = 10.0 - 0.5 * mals_util::EPSILON;
        assert!(!PartialSchedule::cannot_beat(&best, smaller, below));
        assert!(PartialSchedule::cannot_beat(&best, larger, below));
    }

    #[test]
    fn cannot_beat_the_smaller_id_tie_branch() {
        // approx_eq's tolerance at 10.0 is 10 · EPSILON (relative).
        let best = Some((TaskId::from_index(5), with_eft(10.0)));
        let smaller = TaskId::from_index(3);
        // Inside the tolerance band: a tie the smaller id would win.
        let inside = 10.0 + 5.0 * mals_util::EPSILON;
        assert!(PartialSchedule::is_better_choice(
            &best,
            smaller,
            &with_eft(inside)
        ));
        assert!(!PartialSchedule::cannot_beat(&best, smaller, inside));
        // Between one and two tolerances: no tie, but inside the safety
        // margin, so the predicate stays conservative.
        let margin = 10.0 + 15.0 * mals_util::EPSILON;
        assert!(!PartialSchedule::is_better_choice(
            &best,
            smaller,
            &with_eft(margin)
        ));
        assert!(!PartialSchedule::cannot_beat(&best, smaller, margin));
        // Past twice the tolerance: provably out of the band.
        let past = 10.0 + 25.0 * mals_util::EPSILON;
        assert!(PartialSchedule::cannot_beat(&best, smaller, past));
        // An infinite bound is approx-equal to everything, so it is never
        // pruned on the tie branch.
        assert!(!PartialSchedule::cannot_beat(&best, smaller, f64::INFINITY));
    }

    #[test]
    fn cannot_beat_implies_no_larger_eft_wins() {
        // Whenever the predicate prunes, no EFT at or above the bound wins
        // the ordering, across magnitudes from below 1 to 10⁹.
        let mut rng = mals_util::Pcg64::new(5);
        for _ in 0..20_000 {
            let scale = 10f64.powi((rng.next_u64() % 10) as i32 - 1);
            let best_eft = scale * (1.0 + (rng.next_u64() % 1000) as f64 / 100.0);
            let best_task = TaskId::from_index((rng.next_u64() % 8) as usize);
            let task = TaskId::from_index((rng.next_u64() % 8) as usize);
            let offset = ((rng.next_u64() % 200) as f64 - 50.0) * mals_util::EPSILON;
            let bound = best_eft + offset * best_eft.max(1.0);
            let best = Some((best_task, with_eft(best_eft)));
            if PartialSchedule::cannot_beat(&best, task, bound) {
                for k in [0.0, 1e-12, 1e-9, 1e-6, 1.0] {
                    let eft = bound + k * bound.max(1.0);
                    assert!(
                        !PartialSchedule::is_better_choice(&best, task, &with_eft(eft)),
                        "pruned bound {bound} but EFT {eft} beats {best_eft}"
                    );
                }
            }
        }
    }

    #[test]
    fn clone_preserves_state() {
        let (g, [t1, ..]) = dex();
        let p = single_pair(10.0);
        let mut ps = PartialSchedule::new(&g, &p);
        let bd = ps.evaluate(t1, Memory::Red).unwrap();
        ps.commit(t1, &bd);
        let copy = ps.clone();
        assert_eq!(copy.n_scheduled(), ps.n_scheduled());
        assert_eq!(copy.finish_time(t1), ps.finish_time(t1));
    }
}
