//! Per-memory usage profiles (`free_mem⁽µ⁾(t)` in the paper).
//!
//! The memory-aware heuristics must know, for each memory and every instant
//! of the partial schedule, how much memory is already promised to files that
//! will be resident at that instant. [`MemoryState`] stores one usage
//! staircase per memory and exposes exactly the operations the heuristics
//! perform:
//!
//! * reserve space for a file on a time interval or from a time onwards,
//! * release space when a file is consumed, and
//! * find the earliest instant after which a given amount of space is
//!   available **for good** (the `task_mem_EST` / `comm_mem_EST` queries).
//!
//! Reservations and releases run inside a [`MemoryState::batch`]. A commit
//! issues several of them in a row through one batch, so each profile
//! repairs its derived extrema once per commit rather than once per
//! mutation.
//!
//! A memory with a `+∞` bound keeps no profile: the mutators return at once
//! and [`MemoryState::earliest_fit`] answers without looking, so the
//! memory-oblivious baselines (HEFT, MinMin) pay nothing for staircases that
//! no query would ever read.

use crate::memory::Memory;
use crate::platform::Platform;
use mals_util::{Staircase, StaircaseBatch, EPSILON};

/// Memory usage profiles for the two memories of a dual-memory platform.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryState {
    bounds: [f64; 2],
    used: [Staircase; 2],
}

impl MemoryState {
    /// Creates an empty state (no memory used) for `platform`.
    pub fn new(platform: &Platform) -> Self {
        MemoryState {
            bounds: [platform.mem_blue, platform.mem_red],
            used: [Staircase::constant(0.0), Staircase::constant(0.0)],
        }
    }

    /// Capacity of memory `µ` (possibly `+∞`).
    #[inline]
    pub fn bound(&self, mem: Memory) -> f64 {
        self.bounds[mem.index()]
    }

    /// Amount of memory `µ` in use at time `t`.
    ///
    /// An unbounded memory keeps no profile, so this reads `0` there.
    #[inline]
    pub fn used_at(&self, mem: Memory, t: f64) -> f64 {
        self.used[mem.index()].value_at(t)
    }

    /// Amount of memory `µ` still free at time `t` (`+∞` for an unbounded
    /// memory).
    #[inline]
    pub fn free_at(&self, mem: Memory, t: f64) -> f64 {
        self.bound(mem) - self.used_at(mem, t)
    }

    /// Opens a batch of reservations and releases over both profiles (the
    /// only way to mutate them): the extrema of each profile are repaired
    /// once, when the batch is dropped (see [`StaircaseBatch`]).
    pub fn batch(&mut self) -> MemoryBatch<'_> {
        let [blue, red] = &mut self.used;
        MemoryBatch {
            bounds: self.bounds,
            used: [blue.batch(), red.batch()],
        }
    }

    /// Earliest time `t ≥ t_min` such that `amount` extra units fit in memory
    /// `µ` at every instant from `t` on. Returns `None` when the requirement
    /// can never be satisfied (the memory is permanently too full, or
    /// `amount` exceeds the capacity).
    pub fn earliest_fit(&self, mem: Memory, t_min: f64, amount: f64) -> Option<f64> {
        self.earliest_fit_within(mem, t_min, amount, self.bound(mem))
    }

    /// [`MemoryState::earliest_fit`] as if memory `µ` had capacity `bound`
    /// instead of its own, over the same usage profile. The answer is
    /// monotone in `bound`: a larger capacity never fits later, and never
    /// fails where a smaller one fits. A memory's profile is kept only when
    /// its own bound is finite, so a finite `bound` is only meaningful
    /// there.
    #[inline]
    pub fn earliest_fit_within(
        &self,
        mem: Memory,
        t_min: f64,
        amount: f64,
        bound: f64,
    ) -> Option<f64> {
        if amount <= EPSILON || bound.is_infinite() {
            return Some(t_min.max(0.0));
        }
        if amount > bound + EPSILON {
            return None;
        }
        self.used[mem.index()].earliest_sustained_le(t_min, bound - amount)
    }

    /// Returns `true` if `amount` extra units fit in `µ` at every instant
    /// from `t_min` on.
    pub fn fits(&self, mem: Memory, t_min: f64, amount: f64) -> bool {
        match self.earliest_fit(mem, t_min, amount) {
            Some(t) => t <= t_min + EPSILON,
            None => false,
        }
    }

    /// Replaces the capacities with `bounds` (`[blue, red]`), keeping the
    /// usage profiles. A memory keeps a profile only while its bound is
    /// finite, so a finite bound may not replace a `+∞` one.
    pub fn rebound(&mut self, bounds: [f64; 2]) {
        for (old, new) in self.bounds.iter().zip(bounds) {
            assert!(
                !old.is_infinite() || new == *old,
                "a +∞ memory keeps no profile to re-bound"
            );
        }
        self.bounds = bounds;
    }

    /// Checks the internal invariants: usage is never negative and never
    /// exceeds the capacity (up to the shared tolerance). An unbounded
    /// memory keeps no profile, so only bounded memories are checked.
    pub fn check_invariants(&self) -> Result<(), String> {
        for mem in Memory::BOTH {
            let profile = &self.used[mem.index()];
            for (x, v) in profile.breakpoints() {
                if v < -EPSILON {
                    return Err(format!("{mem} memory usage is negative ({v}) at t={x}"));
                }
                if v > self.bound(mem) + EPSILON {
                    return Err(format!(
                        "{mem} memory usage {v} exceeds bound {} at t={x}",
                        self.bound(mem)
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Reservations and releases over both profiles of a [`MemoryState`],
/// opened by [`MemoryState::batch`]. Each mutation's values apply at once,
/// in call order; dropping the batch settles the derived extrema of both
/// profiles. A memory with a `+∞` bound keeps no profile, so its mutations
/// return at once.
#[derive(Debug)]
pub struct MemoryBatch<'a> {
    bounds: [f64; 2],
    used: [StaircaseBatch<'a>; 2],
}

impl MemoryBatch<'_> {
    /// Whether memory `µ` keeps a usage profile: only a bounded memory
    /// does, since nothing reads the profile of an unbounded one.
    #[inline]
    fn keeps_profile(&self, mem: Memory) -> bool {
        !self.bounds[mem.index()].is_infinite()
    }

    /// Reserves `amount` units of memory `µ` from time `t` onwards
    /// (a file produced at `t` whose consumer is not scheduled yet).
    pub fn reserve_from(&mut self, mem: Memory, t: f64, amount: f64) {
        if amount != 0.0 && self.keeps_profile(mem) {
            self.used[mem.index()].add_from(t, amount);
        }
    }

    /// Reserves `amount` units of memory `µ` on `[t1, t2)` (a file that is
    /// known to be consumed at `t2`, e.g. an input file of the task being
    /// scheduled, or a file in transit during a cross-memory copy).
    pub fn reserve_range(&mut self, mem: Memory, t1: f64, t2: f64, amount: f64) {
        if amount != 0.0 && self.keeps_profile(mem) {
            self.used[mem.index()].add_range(t1, t2, amount);
        }
    }

    /// Releases `amount` units of memory `µ` from time `t` onwards (a file
    /// reserved with [`MemoryBatch::reserve_from`] whose consumer has now
    /// been scheduled to complete at `t`).
    pub fn release_from(&mut self, mem: Memory, t: f64, amount: f64) {
        if amount != 0.0 && self.keeps_profile(mem) {
            self.used[mem.index()].add_from(t, -amount);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mals_util::approx_eq;

    fn bounded(blue: f64, red: f64) -> MemoryState {
        MemoryState::new(&Platform::single_pair(blue, red))
    }

    #[test]
    fn initial_state_is_empty() {
        let m = bounded(10.0, 20.0);
        assert_eq!(m.used_at(Memory::Blue, 0.0), 0.0);
        assert_eq!(m.free_at(Memory::Blue, 5.0), 10.0);
        assert_eq!(m.free_at(Memory::Red, 5.0), 20.0);
        assert!(m.check_invariants().is_ok());
    }

    #[test]
    fn reserve_and_release() {
        let mut m = bounded(10.0, 10.0);
        m.batch().reserve_from(Memory::Blue, 2.0, 4.0);
        assert_eq!(m.used_at(Memory::Blue, 1.0), 0.0);
        assert_eq!(m.used_at(Memory::Blue, 3.0), 4.0);
        assert_eq!(m.free_at(Memory::Blue, 3.0), 6.0);
        m.batch().release_from(Memory::Blue, 6.0, 4.0);
        assert_eq!(m.used_at(Memory::Blue, 7.0), 0.0);
        // The peak: 4 units on [2, 6).
        assert_eq!(m.used_at(Memory::Blue, 2.0), 4.0);
        assert_eq!(m.used_at(Memory::Blue, 5.9), 4.0);
        assert!(m.check_invariants().is_ok());
        // The red memory was never touched.
        assert_eq!(m.used_at(Memory::Red, 3.0), 0.0);
    }

    #[test]
    fn reserve_range_is_transient() {
        let mut m = bounded(10.0, 10.0);
        m.batch().reserve_range(Memory::Red, 3.0, 8.0, 6.0);
        assert_eq!(m.used_at(Memory::Red, 2.0), 0.0);
        assert_eq!(m.used_at(Memory::Red, 5.0), 6.0);
        assert_eq!(m.used_at(Memory::Red, 8.0), 0.0);
    }

    #[test]
    fn earliest_fit_waits_for_release() {
        let mut m = bounded(10.0, 10.0);
        // 8 used until t=6.
        m.batch().reserve_range(Memory::Blue, 0.0, 6.0, 8.0);
        // Need 5: must wait until t=6.
        assert_eq!(m.earliest_fit(Memory::Blue, 0.0, 5.0), Some(6.0));
        // Need 2: fits right away.
        assert_eq!(m.earliest_fit(Memory::Blue, 0.0, 2.0), Some(0.0));
        assert!(m.fits(Memory::Blue, 0.0, 2.0));
        assert!(!m.fits(Memory::Blue, 0.0, 5.0));
        assert!(m.fits(Memory::Blue, 6.0, 5.0));
    }

    #[test]
    fn earliest_fit_within_answers_for_that_bound() {
        let mut m = bounded(10.0, 10.0);
        m.batch().reserve_range(Memory::Blue, 0.0, 6.0, 8.0);
        for bound in [4.0, 9.0, 10.0, 13.0, f64::INFINITY] {
            let mut other = bounded(bound, 10.0);
            other.batch().reserve_range(Memory::Blue, 0.0, 6.0, 8.0);
            for amount in [0.0, 2.0, 5.0, 11.0] {
                assert_eq!(
                    m.earliest_fit_within(Memory::Blue, 0.0, amount, bound),
                    other.earliest_fit(Memory::Blue, 0.0, amount),
                    "bound {bound}, amount {amount}"
                );
            }
        }
        // Re-bounding keeps the profile: 8 units until t = 6.
        m.rebound([4.0, 10.0]);
        assert_eq!(m.bound(Memory::Blue), 4.0);
        assert_eq!(m.earliest_fit(Memory::Blue, 0.0, 2.0), Some(6.0));
        assert_eq!(m.earliest_fit(Memory::Blue, 0.0, 5.0), None);
    }

    #[test]
    fn earliest_fit_never_when_over_capacity() {
        let m = bounded(10.0, 10.0);
        assert_eq!(m.earliest_fit(Memory::Blue, 0.0, 11.0), None);
        let mut m2 = bounded(10.0, 10.0);
        m2.batch().reserve_from(Memory::Blue, 0.0, 7.0); // 7 used forever
        assert_eq!(m2.earliest_fit(Memory::Blue, 0.0, 5.0), None);
    }

    #[test]
    fn unbounded_memory_always_fits() {
        let m = bounded(f64::INFINITY, f64::INFINITY);
        assert_eq!(m.earliest_fit(Memory::Blue, 3.0, 1e12), Some(3.0));
        assert!(m.fits(Memory::Red, 0.0, 1e12));
    }

    #[test]
    fn zero_amount_always_fits() {
        let mut m = bounded(5.0, 5.0);
        m.batch().reserve_from(Memory::Blue, 0.0, 5.0);
        assert_eq!(m.earliest_fit(Memory::Blue, 2.0, 0.0), Some(2.0));
    }

    #[test]
    fn invariant_violation_detected() {
        let mut m = bounded(5.0, 5.0);
        m.batch().reserve_from(Memory::Blue, 0.0, 7.0);
        assert!(m.check_invariants().is_err());
        let mut m2 = bounded(5.0, 5.0);
        m2.batch().release_from(Memory::Red, 0.0, 1.0);
        assert!(m2.check_invariants().is_err());
    }

    #[test]
    fn peak_usage_tracks_maximum() {
        let mut m = bounded(100.0, 100.0);
        let mut batch = m.batch();
        batch.reserve_range(Memory::Blue, 0.0, 10.0, 30.0);
        batch.reserve_range(Memory::Blue, 5.0, 8.0, 50.0);
        drop(batch);
        // The peak instant is the overlap [5, 8).
        assert!(approx_eq(m.used_at(Memory::Blue, 5.0), 80.0));
        assert!(approx_eq(m.used_at(Memory::Blue, 9.0), 30.0));
    }

    #[test]
    fn unbounded_memory_keeps_no_profile() {
        let mut m = bounded(f64::INFINITY, 10.0);
        let mut batch = m.batch();
        batch.reserve_from(Memory::Blue, 1.0, 5.0);
        batch.reserve_range(Memory::Blue, 0.0, 4.0, 3.0);
        batch.release_from(Memory::Blue, 2.0, 9.0);
        drop(batch);
        assert_eq!(m.used_at(Memory::Blue, 3.0), 0.0);
        assert_eq!(m.free_at(Memory::Blue, 3.0), f64::INFINITY);
        assert!(m.check_invariants().is_ok());
        // The bounded memory still tracks its usage.
        m.batch().reserve_range(Memory::Red, 0.0, 4.0, 3.0);
        assert_eq!(m.used_at(Memory::Red, 1.0), 3.0);
    }
}
