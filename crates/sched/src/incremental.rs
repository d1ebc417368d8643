//! The incremental EST engine: an exact, epoch-based evaluation cache.
//!
//! The list schedulers used to re-evaluate every ready candidate from
//! scratch at every selection step. But one commit changes very little of
//! the state an evaluation reads:
//!
//! * `evaluate(task, µ)` depends on memory `µ`'s processor availability and
//!   usage profile, and on the placements of `task`'s parents — nothing
//!   else;
//! * a commit on memory `µ*` touches `µ*`'s processors and profile, touches
//!   the *other* memory's profile only when a cross-memory transfer released
//!   a file there ([`CommitEffects::other_memory_touched`]), and fixes the
//!   placement of one task — whose successors were not ready before, so none
//!   of them can have a cached evaluation.
//!
//! [`EstCache`] therefore keys validity on one epoch counter per memory:
//! every cached `(task, µ)` evaluation carries the `µ`-epoch it was computed
//! under, [`EstCache::apply`] bumps the epochs a commit touched, and a hit is
//! returned bit-for-bit — an evaluation is a pure function of the state, so
//! a fresh recomputation could not differ. Schedules are exactly those of
//! the scan-everything loops, at a fraction of the evaluations: after a
//! same-memory commit, the whole ready list keeps its other-memory
//! evaluations.
//!
//! The selection core (`crate::list`) reads the cache through
//! [`EstCache::cached`], which also hands back a stale slot's last value:
//! that is what lets the min-EFT scan skip a stale side an exact lower bound
//! shows cannot win, leaving the slot stale.

use crate::partial::{CommitEffects, EstBreakdown};
use mals_dag::TaskId;
use mals_platform::Memory;

/// One cached per-memory evaluation: the epoch it was computed under and the
/// result (`None` = the task can never fit on that memory *given the state
/// at that epoch* — exactly what `evaluate` returned).
#[derive(Debug, Clone, Copy)]
struct Slot {
    epoch: u64,
    value: Option<EstBreakdown>,
}

/// An exact EST cache over a [`PartialSchedule`](crate::partial::PartialSchedule)
/// (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct EstCache {
    /// Per-memory state epoch; slot entries are valid iff their stamp
    /// matches. Starts at 1 so the zero-initialised slots are stale.
    epoch: [u64; 2],
    slots: Vec<[Slot; 2]>,
}

impl EstCache {
    /// Creates an empty cache for `n_tasks` tasks.
    pub(crate) fn new(n_tasks: usize) -> Self {
        EstCache {
            epoch: [1, 1],
            slots: vec![
                [Slot {
                    epoch: 0,
                    value: None,
                }; 2];
                n_tasks
            ],
        }
    }

    /// Invalidates what `effects` staled: the committed memory always, the
    /// other memory when its profile was touched.
    pub(crate) fn apply(&mut self, effects: &CommitEffects) {
        self.epoch[effects.memory.index()] += 1;
        if effects.other_memory_touched {
            self.epoch[effects.memory.other().index()] += 1;
        }
    }

    /// The cached `mem` side of `task`: `Ok` with the evaluation when it is
    /// current, `Err` with the last (stale) one otherwise.
    pub(crate) fn cached(
        &self,
        task: TaskId,
        mem: Memory,
    ) -> Result<Option<EstBreakdown>, Option<EstBreakdown>> {
        let slot = self.slots[task.index()][mem.index()];
        if slot.epoch == self.epoch[mem.index()] {
            Ok(slot.value)
        } else {
            Err(slot.value)
        }
    }

    /// Stores `value`, a fresh evaluation of the `mem` side of `task`, as
    /// current, and returns it.
    pub(crate) fn store(
        &mut self,
        task: TaskId,
        mem: Memory,
        value: Option<EstBreakdown>,
    ) -> Option<EstBreakdown> {
        self.slots[task.index()][mem.index()] = Slot {
            epoch: self.epoch[mem.index()],
            value,
        };
        value
    }

    /// Stales every slot on both memories, keeping the last values (the
    /// selection core's fork re-bounds the state under the cache).
    pub(crate) fn stale_all(&mut self) {
        for epoch in &mut self.epoch {
            *epoch += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partial::PartialSchedule;
    use mals_gen::{dex, DaggenParams, WeightRanges};
    use mals_platform::Platform;
    use mals_util::Pcg64;

    /// The preferred breakdown of a ready `task` under `cache`, re-evaluating
    /// whichever side is stale.
    fn best(
        cache: &mut EstCache,
        partial: &PartialSchedule<'_>,
        task: TaskId,
    ) -> Option<EstBreakdown> {
        let pair = [Memory::Blue, Memory::Red].map(|mem| match cache.cached(task, mem) {
            Ok(current) => current,
            Err(_) => cache.store(task, mem, partial.evaluate(task, mem)),
        });
        PartialSchedule::combine_pair(pair, false)
    }

    fn is_fresh(cache: &EstCache, task: TaskId) -> bool {
        [Memory::Blue, Memory::Red]
            .iter()
            .all(|&mem| cache.cached(task, mem).is_ok())
    }

    #[test]
    fn cached_best_matches_fresh_evaluation_throughout_a_schedule() {
        // Drive a full schedule committing the cache's own choices while
        // cross-checking every step against an uncached evaluation.
        let mut rng = Pcg64::new(77);
        let g = mals_gen::daggen::generate(
            &DaggenParams::small_rand(),
            &WeightRanges::small_rand(),
            &mut rng,
        );
        let platform = Platform::new(2, 2, 120.0, 120.0).unwrap();
        let mut partial = PartialSchedule::new(&g, &platform);
        let mut cache = EstCache::new(g.n_tasks());
        while !partial.is_complete() {
            let ready = partial.ready_tasks();
            let mut committed = false;
            for &task in &ready {
                let cached = best(&mut cache, &partial, task);
                let fresh = partial.evaluate_best(task);
                assert_eq!(cached, fresh, "cache diverged on {task}");
                if let Some(bd) = cached {
                    let effects = partial.commit(task, &bd);
                    cache.apply(&effects);
                    committed = true;
                    break;
                }
            }
            assert!(committed, "ample memory: some ready task must fit");
        }
    }

    #[test]
    fn same_memory_commit_keeps_other_memory_fresh() {
        let (g, [t1, ..]) = dex();
        let platform = Platform::single_pair(100.0, 100.0);
        let mut partial = PartialSchedule::new(&g, &platform);
        let mut cache = EstCache::new(g.n_tasks());
        let bd = best(&mut cache, &partial, t1).unwrap();
        assert!(is_fresh(&cache, t1));
        let effects = partial.commit(t1, &bd);
        cache.apply(&effects);
        // T1 is a source: no transfers, so only its own memory is staled.
        assert!(!effects.other_memory_touched);
        assert!(cache.cached(t1, bd.memory).is_err());
        assert!(cache.cached(t1, bd.memory.other()).is_ok());
    }

    #[test]
    fn newly_ready_tasks_start_stale() {
        let (g, [t1, t2, ..]) = dex();
        let platform = Platform::single_pair(100.0, 100.0);
        let mut partial = PartialSchedule::new(&g, &platform);
        let mut cache = EstCache::new(g.n_tasks());
        let bd = best(&mut cache, &partial, t1).unwrap();
        let effects = partial.commit(t1, &bd);
        assert!(effects.newly_ready.contains(&t2));
        cache.apply(&effects);
        assert!(!is_fresh(&cache, t2));
        // And evaluating it now gives the real thing.
        assert_eq!(best(&mut cache, &partial, t2), partial.evaluate_best(t2));
    }
}
