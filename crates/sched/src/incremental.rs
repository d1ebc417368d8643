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
//! # Pruning the MemMinMin scan
//!
//! A MemMinMin step ([`EstCache::min_eft_choice`]) still has to look at
//! every ready task, and every commit stales one memory's side of all of
//! them. Most of those sides cannot win the step, and an exact lower bound
//! proves it without an evaluation. For a stale side on memory `µ` whose
//! last evaluation was `Some`:
//!
//! * `EST ≥ max(resource_µ, precedence_µ)`, so
//!   `EFT ≥ max(resource_µ, precedence_µ) + W_µ` (float rounding is
//!   monotone, and `evaluate` computes the EFT from the same terms);
//! * `resource_µ` is read once per step from the processor state;
//! * the stale breakdown's `precedence_µ` is still exact: it depends only on
//!   the parents' placements, and a ready task's parents never move.
//!
//! When that bound cannot beat the best candidate so far
//! (`PartialSchedule::cannot_beat`, beside the ordering it mirrors), the
//! side is skipped and its slot stays stale. A skipped side cannot change
//! the step: it cannot win on its own, and if the task's other side wins,
//! the skipped side's EFT is larger, so combining the pair would have
//! picked the winner anyway. Sides that were `None` (the task did not fit)
//! and newly ready tasks are always evaluated, since a release may have
//! made them fit.

use crate::partial::{CommitEffects, EstBreakdown, PartialSchedule};
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

/// An exact EST cache over a [`PartialSchedule`] (see the module docs).
#[derive(Debug, Clone)]
pub struct EstCache {
    /// Per-memory state epoch; slot entries are valid iff their stamp
    /// matches. Starts at 1 so the zero-initialised slots are stale.
    epoch: [u64; 2],
    slots: Vec<[Slot; 2]>,
}

impl EstCache {
    /// Creates an empty cache for `n_tasks` tasks.
    pub fn new(n_tasks: usize) -> Self {
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
    pub fn apply(&mut self, effects: &CommitEffects) {
        self.epoch[effects.memory.index()] += 1;
        if effects.other_memory_touched {
            self.epoch[effects.memory.other().index()] += 1;
        }
    }

    /// `true` when both per-memory evaluations of `task` are current.
    #[cfg(test)]
    fn is_fresh(&self, task: TaskId) -> bool {
        let slots = &self.slots[task.index()];
        slots[0].epoch == self.epoch[0] && slots[1].epoch == self.epoch[1]
    }

    /// The current `[blue, red]` evaluation pair of a ready `task`,
    /// recomputing whichever side is stale.
    pub fn pair(
        &mut self,
        partial: &PartialSchedule<'_>,
        task: TaskId,
    ) -> [Option<EstBreakdown>; 2] {
        let mut out = [None, None];
        for mem in [Memory::Blue, Memory::Red] {
            let slot = self.slots[task.index()][mem.index()];
            out[mem.index()] = if slot.epoch == self.epoch[mem.index()] {
                slot.value
            } else {
                self.reevaluate(partial, task, mem)
            };
        }
        out
    }

    /// Evaluates the `mem` side of `task` afresh and stores it as current.
    fn reevaluate(
        &mut self,
        partial: &PartialSchedule<'_>,
        task: TaskId,
        mem: Memory,
    ) -> Option<EstBreakdown> {
        let value = partial.evaluate(task, mem);
        self.slots[task.index()][mem.index()] = Slot {
            epoch: self.epoch[mem.index()],
            value,
        };
        value
    }

    /// One MemMinMin selection step over the ready tasks of `partial`: the
    /// same choice as [`PartialSchedule::best_ready_choice`], scanning in
    /// task-id order with the same (EFT, task-id) ordering, but reading
    /// current sides from the cache and skipping stale sides that provably
    /// cannot win (see the module docs). A skipped side stays stale.
    pub fn min_eft_choice(
        &mut self,
        partial: &PartialSchedule<'_>,
    ) -> Option<(TaskId, EstBreakdown)> {
        let procs = partial.processor_state();
        let resource = [Memory::Blue, Memory::Red].map(|mem| procs.earliest_available(mem));
        let mut best: Option<(TaskId, EstBreakdown)> = None;
        for task in partial.ready_iter() {
            let mut pair = [None, None];
            for mem in [Memory::Blue, Memory::Red] {
                let i = mem.index();
                let slot = self.slots[task.index()][i];
                pair[i] = if slot.epoch == self.epoch[i] {
                    slot.value
                } else {
                    if let Some(stale) = slot.value {
                        // EST ≥ max(resource, precedence), and a ready
                        // task's precedence never moves: a lower bound on
                        // the EFT this side would evaluate to now.
                        let work = partial.graph().task(task).work_on(mem.is_blue());
                        let bound = resource[i].max(stale.precedence) + work;
                        if PartialSchedule::cannot_beat(&best, task, bound) {
                            continue;
                        }
                    }
                    self.reevaluate(partial, task, mem)
                };
            }
            if let Some(bd) = PartialSchedule::combine_pair(pair, false) {
                if PartialSchedule::is_better_choice(&best, task, &bd) {
                    best = Some((task, bd));
                }
            }
        }
        best
    }

    /// The preferred breakdown of a ready `task` under this cache —
    /// bit-identical to [`PartialSchedule::evaluate_best_with`] on the same
    /// state.
    pub fn best(
        &mut self,
        partial: &PartialSchedule<'_>,
        task: TaskId,
        prefer_red: bool,
    ) -> Option<EstBreakdown> {
        PartialSchedule::combine_pair(self.pair(partial, task), prefer_red)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::Scheduler;
    use mals_gen::{dex, DaggenParams, WeightRanges};
    use mals_platform::Platform;
    use mals_util::Pcg64;

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
                let cached = cache.best(&partial, task, false);
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
            let heft = crate::Heft::new().schedule(&g, &unbounded).unwrap();
            let peak = mals_sim::memory_peaks(&g, &unbounded, &heft).max();
            for alpha in [0.3, 0.5, 0.7, 1.0] {
                let platform = Platform::new(2, 2, alpha * peak, alpha * peak).unwrap();
                let mut partial = PartialSchedule::new(&g, &platform);
                let mut cache = EstCache::new(g.n_tasks());
                loop {
                    let pruned = cache.min_eft_choice(&partial);
                    assert_eq!(pruned, partial.best_ready_choice(), "α = {alpha}");
                    skipped += partial.ready_iter().filter(|&t| !cache.is_fresh(t)).count();
                    let Some((task, bd)) = pruned else {
                        break;
                    };
                    let effects = partial.commit(task, &bd);
                    cache.apply(&effects);
                }
            }
        }
        assert!(skipped > 0, "the bound never pruned a side");
    }

    #[test]
    fn same_memory_commit_keeps_other_memory_fresh() {
        let (g, [t1, ..]) = dex();
        let platform = Platform::single_pair(100.0, 100.0);
        let mut partial = PartialSchedule::new(&g, &platform);
        let mut cache = EstCache::new(g.n_tasks());
        let bd = cache.best(&partial, t1, false).unwrap();
        assert!(cache.is_fresh(t1));
        let effects = partial.commit(t1, &bd);
        cache.apply(&effects);
        // T1 is a source: no transfers, so only its own memory is staled.
        assert!(!effects.other_memory_touched);
    }

    #[test]
    fn newly_ready_tasks_start_stale() {
        let (g, [t1, t2, ..]) = dex();
        let platform = Platform::single_pair(100.0, 100.0);
        let mut partial = PartialSchedule::new(&g, &platform);
        let mut cache = EstCache::new(g.n_tasks());
        let bd = cache.best(&partial, t1, false).unwrap();
        let effects = partial.commit(t1, &bd);
        assert!(effects.newly_ready.contains(&t2));
        cache.apply(&effects);
        assert!(!cache.is_fresh(t2));
        // And evaluating it now gives the real thing.
        assert_eq!(cache.best(&partial, t2, false), partial.evaluate_best(t2));
    }
}
