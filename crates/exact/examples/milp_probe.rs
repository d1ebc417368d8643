//! Ad-hoc probe: times both exact backends per seed on the proptest-style
//! instance distribution (`--tight` switches to the 60%-of-total-volume
//! memory bound). Useful when tuning solver budgets; not part of CI.
use mals_exact::{BranchAndBound, MilpBackend};
use mals_gen::{DaggenParams, WeightRanges};
use mals_platform::Platform;
use mals_sched::{SolveCtx, Solver};
use mals_util::Pcg64;
use std::time::Instant;

fn main() {
    let tight: bool = std::env::args().any(|a| a == "--tight");
    for seed in 0..50u64 {
        let mut rng = Pcg64::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let size = 4 + (seed % 7) as usize; // 4..=10
        let g = mals_gen::daggen::generate(
            &DaggenParams {
                size,
                width: 0.5,
                density: 0.5,
                jumps: 1 + (seed % 3) as usize,
            },
            &WeightRanges::small_rand(),
            &mut rng,
        );
        let bound = if tight {
            (0.6 * g.total_file_size()).max(g.max_mem_req())
        } else {
            g.total_file_size().max(1.0)
        };
        let platform = Platform::single_pair(bound, bound);
        let ctx = SolveCtx::sequential();
        let t0 = Instant::now();
        let milp = MilpBackend.solve(&g, &platform, &ctx);
        let t_milp = t0.elapsed();
        let t1 = Instant::now();
        let bb = BranchAndBound.solve(&g, &platform, &ctx);
        let t_bb = t1.elapsed();
        println!(
            "seed {seed:2} n={size:2} milp {t_milp:>12?} nodes {:>7} -> {:?} | bb {t_bb:>10?} nodes {:>6} -> {:?}",
            milp.nodes,
            milp.makespan(),
            bb.nodes,
            bb.makespan()
        );
    }
}
