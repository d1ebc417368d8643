//! MemMinMin — Algorithm 2 of the paper.
//!
//! MemMinMin has no static prioritizing phase: at every step it looks at the
//! whole set of *ready* tasks (all predecessors already scheduled), evaluates
//! the memory-aware earliest finish time of each of them on both memories,
//! and commits the task/memory pair with the globally smallest EFT. It fails
//! when no ready task fits in either memory.
//!
//! [`MemMinMin`] is the smallest-EFT rule of the list-scheduling core
//! (`crate::list`), which skips every re-evaluation an exact cache or an
//! exact lower bound shows cannot change the step: the chosen placements
//! are those of the uncached scan.

use crate::error::ScheduleError;
use crate::list::{self, ListHeuristic};
use crate::traits::Scheduler;
use mals_dag::{TaskGraph, TaskId};
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
}

impl ListHeuristic for MemMinMin {
    fn priority(&self, _graph: &TaskGraph) -> Option<Vec<TaskId>> {
        None
    }
}

impl Scheduler for MemMinMin {
    fn name(&self) -> &'static str {
        "MemMinMin"
    }

    fn schedule(&self, graph: &TaskGraph, platform: &Platform) -> Result<Schedule, ScheduleError> {
        list::sweep_one(self, graph, platform, CancelSignal::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partial::PartialSchedule;
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
