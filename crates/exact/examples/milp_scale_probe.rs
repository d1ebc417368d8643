//! Ad-hoc probe: MILP backend wall-clock versus instance size at three
//! memory regimes (ample / 70% / 50% of HEFT's requirement). Used to pick
//! the backend's size guard; not part of CI.
use mals_exact::{MilpBackend, SolveLimits};
use mals_gen::SetParams;
use mals_platform::Platform;
use mals_sched::{Heft, Scheduler, SolveCtx, Solver};
use mals_sim::memory_peaks;
use std::time::Instant;

fn main() {
    for size in [12usize, 14, 16, 18, 20] {
        let g = SetParams::small_rand()
            .scaled(1, size)
            .generate()
            .pop()
            .unwrap();
        let unbounded = Platform::single_pair(f64::INFINITY, f64::INFINITY);
        let heft = Heft::new().schedule(&g, &unbounded).unwrap();
        let need = memory_peaks(&g, &unbounded, &heft).max();
        for frac in [1.1, 0.7, 0.5] {
            let bound = frac * need;
            let platform = Platform::single_pair(bound, bound);
            let ctx = SolveCtx::with_limits(SolveLimits::with_node_limit(20_000));
            let t0 = Instant::now();
            let outcome = MilpBackend.solve(&g, &platform, &ctx);
            println!(
                "n={size:2} frac={frac:.1} {:>12?} nodes {:>7} proven={} makespan={:?}",
                t0.elapsed(),
                outcome.nodes,
                outcome.is_proven(),
                outcome.makespan()
            );
        }
    }
}
