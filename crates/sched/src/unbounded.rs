//! The generic memory-oblivious adapter and the HEFT / MinMin baselines.
//!
//! The paper's memory-oblivious baselines are *literally* the memory-aware
//! heuristics run with both capacities set to `+∞`: HEFT is MemHEFT on the
//! unbounded platform, MinMin is MemMinMin on the unbounded platform. This
//! used to be two copy-pasted wrapper structs; [`Unbounded`] is the one
//! generic adapter that replaces them — it forwards every solve to its inner
//! scheduler with [`Platform::unbounded`] substituted, under a display name
//! of its own.
//!
//! [`Heft`] and [`MinMin`] are type aliases over the adapter, with inherent
//! constructors so existing call sites (`Heft::new()`, `MinMin::new()`)
//! keep working unchanged. The solver
//! registry builds its `"heft"` / `"minmin"` entries from the same adapter.

use crate::error::ScheduleError;
use crate::memheft::MemHeft;
use crate::memminmin::MemMinMin;
use crate::traits::Scheduler;
use mals_dag::TaskGraph;
use mals_platform::Platform;
use mals_sim::Schedule;

/// Runs any scheduler with both memory capacities set to `+∞`, under its own
/// display name.
#[derive(Debug, Clone, Copy)]
pub struct Unbounded<S> {
    inner: S,
    name: &'static str,
}

impl<S> Unbounded<S> {
    /// Wraps `inner`, reporting `name` as the scheduler name.
    pub fn of(inner: S, name: &'static str) -> Self {
        Unbounded { inner, name }
    }

    /// The wrapped scheduler.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The display name of the adapter (`"HEFT"`, `"MinMin"`, …).
    pub fn display_name(&self) -> &'static str {
        self.name
    }
}

impl<S: Scheduler> Scheduler for Unbounded<S> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn schedule(&self, graph: &TaskGraph, platform: &Platform) -> Result<Schedule, ScheduleError> {
        self.inner.schedule(graph, &platform.unbounded())
    }
}

/// The memory-oblivious HEFT baseline (Topcuoglu et al. 2002): MemHEFT on
/// the unbounded platform. The schedule it produces ignores the platform's
/// memory bounds; the experiment drivers measure its memory peaks with
/// `mals_sim::memory_peaks` and use them as the normalisation baseline of
/// Figures 10 and 12.
pub type Heft = Unbounded<MemHeft>;

/// The memory-oblivious MinMin baseline (Braun et al. 2001): MemMinMin on
/// the unbounded platform.
pub type MinMin = Unbounded<MemMinMin>;

impl Unbounded<MemHeft> {
    /// Creates a HEFT scheduler.
    pub fn new() -> Heft {
        Unbounded::of(MemHeft::new(), "HEFT")
    }
}

impl Default for Unbounded<MemHeft> {
    fn default() -> Self {
        Heft::new()
    }
}

impl Unbounded<MemMinMin> {
    /// Creates a MinMin scheduler.
    pub fn new() -> MinMin {
        Unbounded::of(MemMinMin::new(), "MinMin")
    }
}

impl Default for Unbounded<MemMinMin> {
    fn default() -> Self {
        MinMin::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mals_gen::{dex, DaggenParams, WeightRanges};
    use mals_sim::{memory_peaks, validate};
    use mals_util::Pcg64;

    #[test]
    fn heft_ignores_memory_bounds() {
        let (g, _) = dex();
        // A bound of 1 makes the graph impossible for MemHEFT, but HEFT does
        // not care: it always succeeds.
        let platform = Platform::single_pair(1.0, 1.0);
        let s = Heft::new().schedule(&g, &platform).unwrap();
        assert!(s.is_complete(&g));
        // Validation against the *unbounded* platform passes; against the
        // bounded one the memory constraint is (expectedly) violated.
        let unbounded_report = validate(&g, &platform.unbounded(), &s);
        assert!(unbounded_report.is_valid(), "{:?}", unbounded_report.errors);
    }

    #[test]
    fn minmin_ignores_memory_bounds() {
        let (g, _) = dex();
        let platform = Platform::single_pair(1.0, 1.0);
        let s = MinMin::new().schedule(&g, &platform).unwrap();
        assert!(s.is_complete(&g));
        assert!(validate(&g, &platform.unbounded(), &s).is_valid());
    }

    #[test]
    fn heft_equals_memheft_with_infinite_memory() {
        let mut rng = Pcg64::new(5);
        let g = mals_gen::daggen::generate(
            &DaggenParams::small_rand(),
            &WeightRanges::small_rand(),
            &mut rng,
        );
        let platform = Platform::new(2, 1, 40.0, 40.0).unwrap();
        let heft = Heft::new().schedule(&g, &platform).unwrap();
        let memheft_unbounded = MemHeft::new().schedule(&g, &platform.unbounded()).unwrap();
        assert_eq!(heft, memheft_unbounded);
    }

    #[test]
    fn minmin_equals_memminmin_with_infinite_memory() {
        let (g, _) = dex();
        let platform = Platform::single_pair(3.0, 3.0);
        let a = MinMin::new().schedule(&g, &platform).unwrap();
        let b = MemMinMin::new()
            .schedule(&g, &platform.unbounded())
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn heft_memory_peaks_are_positive_for_dex() {
        let (g, _) = dex();
        let platform = Platform::single_pair(f64::INFINITY, f64::INFINITY);
        let s = Heft::new().schedule(&g, &platform).unwrap();
        let peaks = memory_peaks(&g, &platform, &s);
        assert!(peaks.max() > 0.0);
        // The total file volume of D_ex is 6: no schedule can exceed that.
        assert!(peaks.blue <= 6.0 && peaks.red <= 6.0);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Heft::new().name(), "HEFT");
        assert_eq!(MinMin::new().name(), "MinMin");
        assert_eq!(Heft::default().name(), "HEFT");
        assert_eq!(MinMin::default().name(), "MinMin");
        assert_eq!(
            Unbounded::of(MemHeft::new(), "custom").display_name(),
            "custom"
        );
    }
}
