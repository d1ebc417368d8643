//! MemMinMin — Algorithm 2 of the paper.
//!
//! MemMinMin has no static prioritizing phase: at every step it looks at the
//! whole set of *ready* tasks (all predecessors already scheduled), evaluates
//! the memory-aware earliest finish time of each of them on both memories,
//! and commits the task/memory pair with the globally smallest EFT. It fails
//! when no ready task fits in either memory.
//!
//! Each selection step is [`EstCache::min_eft_choice`]: the ready list is
//! scanned in task-id order with the exact comparison of
//! [`PartialSchedule::best_ready_choice`], but a side whose cached
//! evaluation is current is not recomputed, and a stale side is skipped
//! outright when an exact lower bound on its EFT already loses to the best
//! candidate so far. The chosen placements are those of the uncached scan.

use crate::error::ScheduleError;
use crate::incremental::EstCache;
use crate::partial::{CommitEffects, PartialSchedule};
use crate::traits::Scheduler;
use mals_dag::TaskGraph;
use mals_platform::Platform;
use mals_sim::Schedule;
use mals_util::CancelSignal;

/// The MemMinMin scheduler (Algorithm 2 of the paper).
#[derive(Debug, Clone, Copy, Default)]
pub struct MemMinMin;

impl MemMinMin {
    /// Creates a MemMinMin scheduler.
    pub fn new() -> Self {
        MemMinMin
    }

    /// Runs the selection loop, polling `cancel` once per committed task:
    /// when it trips, the loop returns [`ScheduleError::Cancelled`] instead
    /// of committing anything further. [`CancelSignal::default`] never
    /// trips, which is what [`Scheduler::schedule`] passes.
    ///
    /// The loop is incremental: per-memory evaluations are cached in an
    /// exact [`EstCache`], stale sides that provably cannot win are not
    /// evaluated at all (see the module docs), and every commit updates the
    /// memory profiles in one batch.
    pub fn schedule_with_cancel(
        &self,
        graph: &TaskGraph,
        platform: &Platform,
        cancel: CancelSignal<'_>,
    ) -> Result<Schedule, ScheduleError> {
        graph.validate()?;
        let mut partial = PartialSchedule::new(graph, platform);
        let mut cache = EstCache::new(graph.n_tasks());
        // One commit record per schedule: `newly_ready` is refilled in
        // place, so steady state allocates nothing per commit.
        let mut effects = CommitEffects::empty();
        while !partial.is_complete() {
            if cancel.is_cancelled() {
                return Err(ScheduleError::Cancelled {
                    scheduled: partial.n_scheduled(),
                    total: graph.n_tasks(),
                });
            }
            match cache.min_eft_choice(&partial) {
                Some((task, breakdown)) => {
                    partial.commit_into(task, &breakdown, &mut effects);
                    cache.apply(&effects);
                }
                None => return partial.finish_or_error(),
            }
        }
        partial.finish_or_error()
    }
}

impl Scheduler for MemMinMin {
    fn name(&self) -> &'static str {
        "MemMinMin"
    }

    fn schedule(&self, graph: &TaskGraph, platform: &Platform) -> Result<Schedule, ScheduleError> {
        self.schedule_with_cancel(graph, platform, CancelSignal::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mals_gen::{dex, DaggenParams, WeightRanges};
    use mals_sim::validate;
    use mals_util::Pcg64;

    #[test]
    fn schedules_dex_within_bounds() {
        let (g, _) = dex();
        for bound in [5.0, 6.0, 10.0] {
            let platform = Platform::single_pair(bound, bound);
            let s = MemMinMin::new().schedule(&g, &platform).unwrap();
            let report = validate(&g, &platform, &s);
            assert!(report.is_valid(), "bound {bound}: {:?}", report.errors);
            assert!(report.peaks.blue <= bound + 1e-9);
            assert!(report.peaks.red <= bound + 1e-9);
        }
    }

    #[test]
    fn fails_cleanly_when_memory_is_hopeless() {
        let (g, _) = dex();
        let platform = Platform::single_pair(2.0, 2.0);
        let err = MemMinMin::new().schedule(&g, &platform).unwrap_err();
        assert!(matches!(err, ScheduleError::Infeasible { .. }));
    }

    #[test]
    fn greedy_choice_picks_fastest_first_task() {
        // T1 runs in 1 unit on red vs 3 on blue: the first committed task
        // must be T1 on the red memory (it is the only source).
        let (g, [t1, ..]) = dex();
        let platform = Platform::single_pair(100.0, 100.0);
        let partial = PartialSchedule::new(&g, &platform);
        let (task, bd) = partial.best_ready_choice().unwrap();
        assert_eq!(task, t1);
        assert_eq!(bd.memory, mals_platform::Memory::Red);
        assert_eq!(bd.eft, 1.0);
    }

    #[test]
    fn random_graphs_produce_valid_schedules() {
        let mut rng = Pcg64::new(21);
        for i in 0..10 {
            let g = mals_gen::daggen::generate(
                &DaggenParams::small_rand(),
                &WeightRanges::small_rand(),
                &mut rng,
            );
            let platform = Platform::new(2, 2, 150.0, 150.0).unwrap();
            let s = MemMinMin::new().schedule(&g, &platform).unwrap();
            let report = validate(&g, &platform, &s);
            assert!(report.is_valid(), "graph {i}: {:?}", report.errors);
        }
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(MemMinMin::new().name(), "MemMinMin");
    }

    #[test]
    fn rejects_cyclic_graph() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", 1.0, 1.0);
        let b = g.add_task("b", 1.0, 1.0);
        g.add_edge(a, b, 1.0, 1.0).unwrap();
        g.add_edge(b, a, 1.0, 1.0).unwrap();
        let err = MemMinMin::new()
            .schedule(&g, &Platform::default())
            .unwrap_err();
        assert!(matches!(err, ScheduleError::InvalidGraph(_)));
    }
}
