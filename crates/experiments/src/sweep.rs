//! Per-DAG memory sweeps.
//!
//! The experiments of the paper all have the same skeleton: take a DAG,
//! measure the memory footprint of the memory-oblivious HEFT schedule, then
//! re-schedule the DAG with the memory-aware solvers under increasingly
//! tight memory bounds and record the makespan (or the failure) of each
//! solver at each bound. Solvers are addressed through the unified
//! [`Solver`] interface, so heuristics and exact backends ride the same
//! sweeps.

use mals_dag::TaskGraph;
use mals_platform::Platform;
use mals_sched::{Heft, MinMin, Scheduler, SolveCtx, SolveOutcome, Solver};
use mals_sim::{memory_peaks, MemoryPeaks};
use mals_util::{parallel_map, ParallelConfig};

/// The memory-oblivious HEFT baseline of one DAG: the makespan and memory
/// peaks of the HEFT schedule (Topcuoglu et al.), which normalise both axes
/// of Figures 10 and 12 and set the `α = 1` memory bound.
#[derive(Debug, Clone, Copy)]
pub struct HeftBaseline {
    /// Makespan of the HEFT schedule (memory ignored).
    pub makespan: f64,
    /// Memory peaks of that schedule.
    pub peaks: MemoryPeaks,
}

/// Computes the HEFT baseline of a DAG on `platform` (the memory bounds of
/// `platform` are ignored). This is all a memory sweep needs; it skips the
/// MinMin half of [`heft_reference`].
pub fn heft_baseline(graph: &TaskGraph, platform: &Platform) -> HeftBaseline {
    let unbounded = platform.unbounded();
    let heft = Heft::new()
        .schedule(graph, &unbounded)
        .expect("HEFT cannot fail");
    HeftBaseline {
        makespan: heft.makespan(),
        peaks: memory_peaks(graph, &unbounded, &heft),
    }
}

/// The memory-oblivious references for one DAG: HEFT's and MinMin's
/// makespans and memory peaks.
///
/// Kept unchanged for library callers that read the MinMin half — the
/// `perfbench` benchmark crate builds a `Reference` literal and calls
/// [`heft_reference`]. Every in-repo sweep reads only the HEFT fields and
/// calls [`heft_baseline`] instead, which costs one schedule and one peaks
/// sweep instead of two.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    /// Makespan of the HEFT schedule (memory ignored).
    pub heft_makespan: f64,
    /// Memory peaks of that schedule.
    pub heft_peaks: MemoryPeaks,
    /// Makespan of the MinMin schedule (memory ignored).
    pub minmin_makespan: f64,
    /// Memory peaks of that schedule.
    pub minmin_peaks: MemoryPeaks,
}

/// Computes the HEFT / MinMin references of a DAG on `platform` (the memory
/// bounds of `platform` are ignored). Kept unchanged for the `perfbench`
/// crate and other library callers; callers that need only the HEFT
/// fields should use [`heft_baseline`], which skips the MinMin schedule.
pub fn heft_reference(graph: &TaskGraph, platform: &Platform) -> Reference {
    let heft = heft_baseline(graph, platform);
    let unbounded = platform.unbounded();
    let minmin = MinMin::new()
        .schedule(graph, &unbounded)
        .expect("MinMin cannot fail");
    Reference {
        heft_makespan: heft.makespan,
        heft_peaks: heft.peaks,
        minmin_makespan: minmin.makespan(),
        minmin_peaks: memory_peaks(graph, &unbounded, &minmin),
    }
}

/// Result of one solver at one memory bound.
#[derive(Debug, Clone)]
pub struct SchedulerOutcome {
    /// Solver display name.
    pub name: String,
    /// Makespan, or `None` when the solver failed within the bounds.
    pub makespan: Option<f64>,
}

/// One point of an absolute memory sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Memory bound applied to both memories.
    pub memory_bound: f64,
    /// Outcome of every solver at that bound.
    pub outcomes: Vec<SchedulerOutcome>,
}

impl SweepPoint {
    /// The outcome of a solver, looked up by display name.
    pub fn outcome(&self, name: &str) -> Option<&SchedulerOutcome> {
        self.outcomes.iter().find(|o| o.name == name)
    }
}

/// The makespan of `solver`'s `outcome`, distinguishing honest
/// infeasibility (`None`) from an instance the solver *rejected* (cyclic
/// graph, …), which panics with the recorded cause — a rejected instance
/// must never be reported as "infeasible at this memory bound" by the
/// experiment drivers.
pub(crate) fn checked(solver: &dyn Solver, outcome: &SolveOutcome) -> Option<f64> {
    if let Some(error) = &outcome.error {
        panic!("solver {} rejected the instance: {error}", solver.name());
    }
    outcome.makespan()
}

/// Sweeps absolute memory bounds for one DAG (the skeleton of Figures 11,
/// 13, 14 and 15), one point per bound in `memory_bounds` order: at each
/// bound the memory-aware solvers run under the bound, and the
/// memory-oblivious baselines are reported only where their own footprint
/// fits (this is how the HEFT / MinMin series are drawn: a baseline simply
/// cannot run below its own memory requirement).
///
/// A baseline schedules on the unbounded platform, so its schedule does not
/// depend on the bound: each one is solved once per sweep and only its
/// footprint check runs per bound. `parallel` spreads the bounds over
/// threads (every solve itself is sequential); the points are identical for
/// every thread count.
pub fn sweep_absolute(
    graph: &TaskGraph,
    platform: &Platform,
    memory_bounds: &[f64],
    memory_aware: &[&dyn Solver],
    memory_oblivious: &[&dyn Solver],
    ctx: &SolveCtx,
    parallel: ParallelConfig,
) -> Vec<SweepPoint> {
    let unbounded = platform.unbounded();
    let baselines: Vec<(String, Option<(f64, MemoryPeaks)>)> = memory_oblivious
        .iter()
        .map(|s| {
            let schedule = s.solve(graph, &unbounded, ctx).schedule;
            let result = schedule.map(|schedule| {
                (
                    schedule.makespan(),
                    memory_peaks(graph, &unbounded, &schedule),
                )
            });
            (s.name().to_string(), result)
        })
        .collect();
    parallel_map(memory_bounds, parallel, |&bound| {
        let bounded = platform.with_memory_bounds(bound, bound);
        let fits = |peaks: &MemoryPeaks| {
            peaks.blue <= bounded.mem_blue + mals_util::EPSILON
                && peaks.red <= bounded.mem_red + mals_util::EPSILON
        };
        let mut outcomes = Vec::with_capacity(baselines.len() + memory_aware.len());
        for (name, result) in &baselines {
            outcomes.push(SchedulerOutcome {
                name: name.clone(),
                makespan: result
                    .filter(|(_, peaks)| fits(peaks))
                    .map(|(makespan, _)| makespan),
            });
        }
        for s in memory_aware {
            outcomes.push(SchedulerOutcome {
                name: s.name().to_string(),
                makespan: checked(*s, &s.solve(graph, &bounded, ctx)),
            });
        }
        SweepPoint {
            memory_bound: bound,
            outcomes,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mals_gen::dex;
    use mals_sched::{MemHeft, MemMinMin};

    #[test]
    fn baseline_is_the_heft_half_of_the_reference() {
        let (g, _) = dex();
        let platform = Platform::single_pair(5.0, 5.0);
        let baseline = heft_baseline(&g, &platform);
        let reference = heft_reference(&g, &platform);
        assert_eq!(
            baseline.makespan.to_bits(),
            reference.heft_makespan.to_bits()
        );
        assert_eq!(baseline.peaks, reference.heft_peaks);
    }

    #[test]
    fn reference_of_dex() {
        let (g, _) = dex();
        let platform = Platform::single_pair(5.0, 5.0);
        let reference = heft_reference(&g, &platform);
        assert!(reference.heft_makespan > 0.0);
        assert!(reference.heft_peaks.max() > 0.0);
        assert!(reference.minmin_makespan > 0.0);
        // Total file volume bounds any peak.
        assert!(reference.heft_peaks.max() <= g.total_file_size());
    }

    #[test]
    fn memory_oblivious_baseline_gated_by_footprint() {
        let (g, _) = dex();
        let platform = Platform::single_pair(0.0, 0.0);
        let heft = Heft::new();
        let sweep = sweep_absolute(
            &g,
            &platform,
            &[1.0, 100.0],
            &[],
            &[&heft],
            &SolveCtx::sequential(),
            ParallelConfig::sequential(),
        );
        assert!(sweep[0].outcome("HEFT").unwrap().makespan.is_none());
        assert!(sweep[1].outcome("HEFT").unwrap().makespan.is_some());
    }

    #[test]
    fn sweep_absolute_monotone_success() {
        let (g, _) = dex();
        let platform = Platform::single_pair(0.0, 0.0);
        let ctx = SolveCtx::sequential();
        let memheft = MemHeft::new();
        let memminmin = MemMinMin::new();
        let heft = Heft::new();
        let minmin = MinMin::new();
        let bounds: Vec<f64> = (0..=10).map(|i| i as f64).collect();
        let sweep = sweep_absolute(
            &g,
            &platform,
            &bounds,
            &[&memheft, &memminmin],
            &[&heft, &minmin],
            &ctx,
            ParallelConfig::sequential(),
        );
        assert_eq!(sweep.len(), bounds.len());
        // Success is monotone in the memory bound for each solver.
        for name in ["MemHEFT", "MemMinMin", "HEFT", "MinMin"] {
            let mut seen_success = false;
            for point in &sweep {
                let ok = point.outcome(name).unwrap().makespan.is_some();
                if seen_success {
                    assert!(
                        ok,
                        "{name} succeeded at a smaller bound but failed at {}",
                        point.memory_bound
                    );
                }
                seen_success |= ok;
            }
            assert!(seen_success, "{name} should succeed with bound 10 on D_ex");
        }
        // With ample memory every solver matches or beats nothing smaller
        // than the critical path.
        let last = sweep.last().unwrap();
        for o in &last.outcomes {
            assert!(o.makespan.unwrap() >= 5.0 - 1e-9);
        }
    }

    #[test]
    fn makespan_non_increasing_with_memory_for_memory_aware() {
        let (g, _) = dex();
        let platform = Platform::single_pair(0.0, 0.0);
        let ctx = SolveCtx::sequential();
        let memheft = MemHeft::new();
        let bounds: Vec<f64> = (3..=12).map(|i| i as f64).collect();
        let sweep = sweep_absolute(
            &g,
            &platform,
            &bounds,
            &[&memheft],
            &[],
            &ctx,
            ParallelConfig::sequential(),
        );
        let mut last = f64::INFINITY;
        for point in &sweep {
            if let Some(mk) = point.outcome("MemHEFT").unwrap().makespan {
                assert!(
                    mk <= last + 1e-9,
                    "more memory should never slow MemHEFT down on D_ex (bound {})",
                    point.memory_bound
                );
                last = mk;
            }
        }
    }
}
