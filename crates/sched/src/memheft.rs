//! MemHEFT — Algorithm 1 of the paper.
//!
//! MemHEFT keeps HEFT's two phases:
//!
//! 1. **task prioritizing** — tasks are sorted by non-increasing upward rank
//!    (mean processing times, half communication costs);
//! 2. **memory selection** — the highest-priority schedulable task is mapped
//!    to the memory minimising its earliest finish time `EFT⁽µ⁾`, where the
//!    earliest start time now also accounts for memory availability
//!    (`task_mem_EST`, `comm_mem_EST`), and then to the processor of that
//!    memory wasting the least idle time.
//!
//! When the highest-priority task fits in neither memory (its `EFT` is `+∞`
//! on both sides), MemHEFT moves down the priority list and tries the next
//! task; it fails — "the graph cannot be processed within the memory
//! bounds" — only when no remaining task can be placed.
//!
//! [`MemHeft`] is the priority rule of the list-scheduling core
//! (`crate::list`) on the upward-rank list.

use crate::error::ScheduleError;
use crate::list::{self, ListHeuristic};
use crate::traits::Scheduler;
use mals_dag::{rank, TaskGraph, TaskId};
use mals_platform::Platform;
use mals_sim::Schedule;
use mals_util::CancelSignal;

/// The MemHEFT scheduler (Algorithm 1 of the paper).
#[derive(Debug, Clone, Copy, Default)]
pub struct MemHeft;

impl MemHeft {
    /// Creates a MemHEFT scheduler.
    pub fn new() -> Self {
        MemHeft
    }
}

impl ListHeuristic for MemHeft {
    fn priority(&self, graph: &TaskGraph) -> Option<Vec<TaskId>> {
        Some(rank::rank_sorted_tasks(graph))
    }
}

impl Scheduler for MemHeft {
    fn name(&self) -> &'static str {
        "MemHEFT"
    }

    fn schedule(&self, graph: &TaskGraph, platform: &Platform) -> Result<Schedule, ScheduleError> {
        list::sweep_one(self, graph, platform, CancelSignal::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mals_gen::{dex, DaggenParams, WeightRanges};
    use mals_sim::{memory_peaks, validate};
    use mals_util::Pcg64;

    #[test]
    fn schedules_dex_with_ample_memory() {
        let (g, _) = dex();
        let platform = Platform::single_pair(100.0, 100.0);
        let s = MemHeft::new().schedule(&g, &platform).unwrap();
        let report = validate(&g, &platform, &s);
        assert!(report.is_valid(), "{:?}", report.errors);
        assert!(s.is_complete(&g));
        // The optimal makespan with both memories >= 5 is 6 (paper, Fig. 3);
        // MemHEFT must at least produce a valid schedule no faster than that.
        assert!(report.makespan >= 6.0 - 1e-9);
    }

    #[test]
    fn respects_memory_bounds_on_dex() {
        let (g, _) = dex();
        for bound in [4.0, 5.0, 6.0, 8.0] {
            let platform = Platform::single_pair(bound, bound);
            match MemHeft::new().schedule(&g, &platform) {
                Ok(s) => {
                    let report = validate(&g, &platform, &s);
                    assert!(report.is_valid(), "bound {bound}: {:?}", report.errors);
                    assert!(report.peaks.blue <= bound + 1e-9);
                    assert!(report.peaks.red <= bound + 1e-9);
                }
                Err(ScheduleError::Infeasible { .. }) => {
                    // Acceptable for tight bounds; the exact solver decides
                    // whether a schedule exists at all.
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
    }

    #[test]
    fn fails_cleanly_when_memory_is_hopeless() {
        let (g, _) = dex();
        let platform = Platform::single_pair(2.0, 2.0);
        let err = MemHeft::new().schedule(&g, &platform).unwrap_err();
        assert!(matches!(err, ScheduleError::Infeasible { .. }));
    }

    #[test]
    fn matches_unbounded_behaviour_when_memory_is_large() {
        // With memory bounds at least as large as the peaks of the unbounded
        // run, MemHEFT must take exactly the same decisions (paper, §6.2.1).
        let mut rng = Pcg64::new(99);
        let g = mals_gen::daggen::generate(
            &DaggenParams::small_rand(),
            &WeightRanges::small_rand(),
            &mut rng,
        );
        let unbounded = Platform::single_pair(f64::INFINITY, f64::INFINITY);
        let free = MemHeft::new().schedule(&g, &unbounded).unwrap();
        let peaks = memory_peaks(&g, &unbounded, &free);
        let bounded = Platform::single_pair(peaks.blue, peaks.red);
        let constrained = MemHeft::new().schedule(&g, &bounded).unwrap();
        assert_eq!(free, constrained);
    }

    #[test]
    fn random_graphs_produce_valid_schedules() {
        let mut rng = Pcg64::new(7);
        for i in 0..10 {
            let g = mals_gen::daggen::generate(
                &DaggenParams::small_rand(),
                &WeightRanges::small_rand(),
                &mut rng,
            );
            let platform = Platform::new(2, 2, 200.0, 200.0).unwrap();
            let s = MemHeft::new().schedule(&g, &platform).unwrap();
            let report = validate(&g, &platform, &s);
            assert!(report.is_valid(), "graph {i}: {:?}", report.errors);
        }
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(MemHeft::new().name(), "MemHEFT");
    }

    #[test]
    fn rejects_cyclic_graph() {
        let mut g = mals_dag::TaskGraph::new();
        let a = g.add_task("a", 1.0, 1.0);
        let b = g.add_task("b", 1.0, 1.0);
        g.add_edge(a, b, 1.0, 1.0).unwrap();
        g.add_edge(b, a, 1.0, 1.0).unwrap();
        // Validation comes before the rank computation, which requires
        // acyclicity.
        let err = MemHeft::new()
            .schedule(&g, &Platform::default())
            .unwrap_err();
        assert!(matches!(err, ScheduleError::InvalidGraph(_)));
    }
}
