//! The in-tree MILP exact backend.
//!
//! [`MilpBackend`] solves the memory-constrained scheduling problem with the
//! workspace's own simplex + branch-and-bound MILP machinery. It does **not**
//! hand the paper's full § 4 ILP to the solver — that model carries
//! `O(m² + mn)` big-M binaries and its relaxation is far too weak for a
//! lightweight solver. Instead it works on a *compact disjunctive model*
//! over the real decisions, with the memory constraints enforced lazily:
//!
//! 1. **Compact relaxation**: one binary
//!    `b_i` per task (blue/red placement), one binary `y_{ij}` per unordered
//!    pair that is not already ordered by precedence, continuous start times
//!    `t_i` and the makespan `M`. Precedence rows charge the cross-memory
//!    transfer time through an XOR indicator; big-M disjunction rows
//!    serialise pairs that land on the same single-processor memory. Every
//!    valid schedule with makespan ≤ the incumbent satisfies these rows, so
//!    the LP relaxation is a true lower bound — but it knows nothing about
//!    memory capacities.
//! 2. **Integral nodes** are turned into real schedules: commit the tasks in
//!    LP start order onto their chosen memories with exact greedy timing,
//!    schedule transfers as late as possible, and run the **independent
//!    simulator validator** (including both memory peaks). A validated
//!    schedule whose makespan does not exceed the node's LP bound closes the
//!    node optimally.
//! 3. When the validator rejects the point (the memory bound bit), the
//!    backend runs an exhaustive **fixed-assignment repair** — the
//!    combinatorial search of [`crate::bb`] restricted to the integral
//!    memory assignment — which finds the best list schedule for that
//!    assignment, then excludes the assignment with a **no-good cut** and
//!    lets the MILP search continue. Enumerating assignments this way keeps
//!    the optimality proof: every assignment is either dominated by the LP
//!    bound or exactly searched.
//!
//! Like [`crate::bb::BranchAndBound`], the proof is relative to the
//! list-scheduling decision space once memory is tight (step 3); when the
//! certificate closes at a validated LP point (step 2) it holds for the full
//! schedule space. The two backends are completely independent implementations
//! and are cross-checked against each other in `tests/milp_vs_bb.rs`.

use crate::bounds::{
    makespan_lower_bound_with_memory, memory_feasibility, optimistic_bottom_levels,
};
use crate::milp::{IntegralDecision, MilpLimits, MilpSolver};
use crate::model::{LpModel, Sense, VarId, VarKind};
use crate::solvers::{heuristic_incumbent, reject_invalid, search_outcome};
use mals_dag::{algo, TaskGraph, TaskId};
use mals_platform::{Memory, Platform};
use mals_sched::{OptimalityStatus, PartialSchedule, SolveCtx, SolveLimits, SolveOutcome, Solver};
use mals_sim::{validate, CommPlacement, Schedule, TaskPlacement};
use mals_util::{CancelSignal, EPSILON};
use std::collections::HashSet;

/// `true` when every processing time and transfer time is an integer, in
/// which case every list-schedule makespan is an integer as well (start
/// times are maxima of sums of durations).
fn all_durations_integral(graph: &TaskGraph) -> bool {
    graph.task_ids().all(|t| {
        let task = graph.task(t);
        task.work_blue.fract() == 0.0 && task.work_red.fract() == 0.0
    }) && graph
        .edge_ids()
        .all(|e| graph.edge(e).comm_cost.fract() == 0.0)
}

/// Tolerance for accepting an extracted schedule against its LP bound.
const ACCEPT_TOL: f64 = 1e-6;

/// The in-tree MILP exact backend (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct MilpBackend;

impl MilpBackend {
    /// Above this many tasks the backend returns its heuristic incumbent as
    /// a best-effort [`OptimalityStatus::Feasible`] instead of attempting the
    /// MILP: the dense simplex basis grows with the square of the pair
    /// count, and in the tight-but-feasible memory band the assignment
    /// enumeration multiplies on top (measured: ≤ 16 tasks stays within
    /// seconds in every regime, 18 tasks can take minutes). Use
    /// [`crate::bb::BranchAndBound`] beyond this — its node budget degrades
    /// gracefully at any size. Drivers can consult this constant to warn
    /// when a workload exceeds the certification ceiling.
    pub const MAX_TASKS: usize = 16;
}

impl Solver for MilpBackend {
    fn name(&self) -> &str {
        "Optimal(MILP)"
    }

    /// The MILP search under `ctx.limits` (node budget = LP solves,
    /// iteration budget per LP), polling `ctx.cancel` once per node — in
    /// the outer MILP branch-and-bound, the heuristic incumbent seeding and
    /// the fixed-assignment repair searches alike.
    fn solve(&self, graph: &TaskGraph, platform: &Platform, ctx: &SolveCtx) -> SolveOutcome {
        if let Some(rejected) = reject_invalid(graph) {
            return rejected;
        }
        solve_milp(graph, platform, &ctx.limits, ctx.cancel)
    }
}

/// The compact disjunctive model plus the variable handles the extraction
/// needs to read a relaxation point back.
struct CompactModel {
    model: LpModel,
    start: Vec<VarId>,
    on_red: Vec<VarId>,
}

/// Builds the compact model for schedules with makespan at most `horizon`.
/// `lower_bound` seeds the makespan variable's lower bound; `forced` pins
/// placements dictated by the memory-feasibility analysis.
fn build_compact_model(
    graph: &TaskGraph,
    platform: &Platform,
    horizon: f64,
    lower_bound: f64,
    forced: &[Option<Memory>],
) -> CompactModel {
    let n = graph.n_tasks();
    let h = horizon;
    let mut model = LpModel::new();
    // Crossed bounds (lower_bound > horizon) are legitimate: they make the
    // relaxation infeasible, which correctly reports that nothing beats the
    // incumbent the horizon came from.
    let makespan = model.add_var("M", VarKind::Continuous(lower_bound, h));
    model.set_objective(vec![(1.0, makespan)]);

    // Time windows: a task cannot start before its optimistic top level nor
    // later than `horizon − bottom_level` (the remaining chain must still
    // fit). Tight variable bounds shrink every big-M row for free.
    let bottom = optimistic_bottom_levels(graph);
    let order = algo::topological_order(graph).expect("validated");
    let mut top = vec![0.0f64; n];
    for &t in &order {
        let i = t.index();
        for p in graph.parents(t) {
            let release = top[p.index()] + graph.task(p).min_work();
            top[i] = top[i].max(release);
        }
    }
    let start: Vec<VarId> = (0..n)
        .map(|i| {
            let latest = h - bottom[i];
            model.add_var(format!("t_{i}"), VarKind::Continuous(top[i], latest))
        })
        .collect();
    let on_red: Vec<VarId> = (0..n)
        .map(|i| model.add_var(format!("b_{i}"), VarKind::Binary))
        .collect();
    // dw_i = W_red − W_blue, so the processing time is W_blue + dw_i·b_i.
    let dw: Vec<f64> = graph
        .task_ids()
        .map(|t| graph.task(t).work_red - graph.task(t).work_blue)
        .collect();
    let w_blue: Vec<f64> = graph.task_ids().map(|t| graph.task(t).work_blue).collect();

    for (i, forced_mem) in forced.iter().enumerate() {
        // Forced placements from the peak-file-size bound.
        if let Some(mem) = forced_mem {
            let value = if mem.is_blue() { 0.0 } else { 1.0 };
            model.add_constraint(
                format!("force_{i}"),
                vec![(1.0, on_red[i])],
                Sense::Eq,
                value,
            );
        }
        // t_i + w_i ≤ M.
        model.add_constraint(
            format!("fin_{i}"),
            vec![(1.0, start[i]), (dw[i], on_red[i]), (-1.0, makespan)],
            Sense::Le,
            -w_blue[i],
        );
    }

    // Area (work-conservation) cuts: the work routed to each memory fits on
    // its processors within the makespan — `Σ W1_i (1 − b_i) ≤ P1·M` and
    // `Σ W2_i b_i ≤ P2·M`. These make the LP trade the speed gain of a
    // memory against its capacity to absorb work, which is where most of the
    // relaxation's strength comes from.
    let w_red: Vec<f64> = graph.task_ids().map(|t| graph.task(t).work_red).collect();
    let mut blue_terms: Vec<(f64, VarId)> = vec![(-(platform.blue_procs as f64), makespan)];
    let mut red_terms: Vec<(f64, VarId)> = vec![(-(platform.red_procs as f64), makespan)];
    for i in 0..n {
        blue_terms.push((-w_blue[i], on_red[i]));
        red_terms.push((w_red[i], on_red[i]));
    }
    model.add_constraint(
        "area_blue",
        blue_terms,
        Sense::Le,
        -w_blue.iter().sum::<f64>(),
    );
    model.add_constraint("area_red", red_terms, Sense::Le, 0.0);

    // Precedence rows, with the transfer time charged through an XOR
    // indicator (continuous: the two ≥ rows pin it to |b_i − b_j| once the
    // binaries are integral, and the objective pushes it down in between).
    for e in graph.edge_ids() {
        let edge = graph.edge(e);
        let (i, j) = (edge.src.index(), edge.dst.index());
        let mut terms = vec![(1.0, start[i]), (dw[i], on_red[i]), (-1.0, start[j])];
        if edge.comm_cost > 0.0 {
            let x = model.add_var(format!("x_{i}_{j}"), VarKind::Continuous(0.0, 1.0));
            model.add_constraint(
                format!("xor_a_{i}_{j}"),
                vec![(1.0, on_red[i]), (-1.0, on_red[j]), (-1.0, x)],
                Sense::Le,
                0.0,
            );
            model.add_constraint(
                format!("xor_b_{i}_{j}"),
                vec![(1.0, on_red[j]), (-1.0, on_red[i]), (-1.0, x)],
                Sense::Le,
                0.0,
            );
            terms.push((edge.comm_cost, x));
        }
        model.add_constraint(format!("prec_{i}_{j}"), terms, Sense::Le, -w_blue[i]);
    }

    // Disjunctive rows for pairs that may collide on a single-processor
    // memory. Pairs already ordered by precedence are serialised by the
    // precedence rows; memories with several processors are left to the
    // extraction step (the relaxation stays a valid lower bound).
    let closure = algo::transitive_closure(graph);
    let single_blue = platform.blue_procs == 1;
    let single_red = platform.red_procs == 1;
    if single_blue || single_red {
        for i in 0..n {
            for j in i + 1..n {
                if algo::closure_contains(&closure[i], j) || algo::closure_contains(&closure[j], i)
                {
                    continue;
                }
                let y = model.add_var(format!("y_{i}_{j}"), VarKind::Binary);
                // y = 1 ⇒ i before j; y = 0 ⇒ j before i — enforced only
                // when both tasks sit on the same single-processor memory
                // (the b-dependent guard terms disarm the row otherwise).
                if single_blue {
                    // Guard H·(b_i + b_j): zero exactly when both are blue.
                    model.add_constraint(
                        format!("blue_ij_{i}_{j}"),
                        vec![
                            (1.0, start[i]),
                            (dw[i] - h, on_red[i]),
                            (-1.0, start[j]),
                            (h, y),
                            (-h, on_red[j]),
                        ],
                        Sense::Le,
                        h - w_blue[i],
                    );
                    model.add_constraint(
                        format!("blue_ji_{i}_{j}"),
                        vec![
                            (1.0, start[j]),
                            (dw[j] - h, on_red[j]),
                            (-1.0, start[i]),
                            (-h, y),
                            (-h, on_red[i]),
                        ],
                        Sense::Le,
                        -w_blue[j],
                    );
                }
                if single_red {
                    // Guard H·(2 − b_i − b_j): zero exactly when both red.
                    model.add_constraint(
                        format!("red_ij_{i}_{j}"),
                        vec![
                            (1.0, start[i]),
                            (dw[i] + h, on_red[i]),
                            (-1.0, start[j]),
                            (h, y),
                            (h, on_red[j]),
                        ],
                        Sense::Le,
                        3.0 * h - w_blue[i],
                    );
                    model.add_constraint(
                        format!("red_ji_{i}_{j}"),
                        vec![
                            (1.0, start[j]),
                            (dw[j] + h, on_red[j]),
                            (-1.0, start[i]),
                            (-h, y),
                            (h, on_red[i]),
                        ],
                        Sense::Le,
                        2.0 * h - w_blue[j],
                    );
                }
            }
        }
    }

    CompactModel {
        model,
        start,
        on_red,
    }
}

/// Rebuilds a concrete schedule from an integral relaxation point: tasks are
/// processed in LP start order (precedence-consistent tie-break) on their
/// chosen memories, each starting at the exact greedy earliest time; cross
/// transfers are placed as late as possible. The timing is recomputed with
/// exact float arithmetic, so the result never inherits LP round-off.
fn extract_schedule(
    graph: &TaskGraph,
    platform: &Platform,
    topo_pos: &[usize],
    assignment: &[Memory],
    starts: &[f64],
) -> (Schedule, f64) {
    let mut order: Vec<TaskId> = graph.task_ids().collect();
    order.sort_by(|&a, &b| {
        starts[a.index()]
            .total_cmp(&starts[b.index()])
            .then(topo_pos[a.index()].cmp(&topo_pos[b.index()]))
    });

    let mut schedule = Schedule::for_graph(graph);
    let mut proc_avail = vec![0.0f64; platform.n_procs()];
    let mut finish = vec![0.0f64; graph.n_tasks()];
    let mut makespan = 0.0f64;
    for &task in &order {
        let mem = assignment[task.index()];
        let proc = platform
            .proc_range(mem)
            .min_by(|&a, &b| proc_avail[a].total_cmp(&proc_avail[b]))
            .expect("platforms have at least one processor per memory");
        let mut est = proc_avail[proc];
        for &e in graph.in_edges(task) {
            let edge = graph.edge(e);
            let arrival = if assignment[edge.src.index()] == mem {
                finish[edge.src.index()]
            } else {
                finish[edge.src.index()] + edge.comm_cost
            };
            est = est.max(arrival);
        }
        let eft = est + graph.task(task).work_on(mem.is_blue());
        proc_avail[proc] = eft;
        finish[task.index()] = eft;
        makespan = makespan.max(eft);
        schedule.place_task(TaskPlacement {
            task,
            proc,
            start: est,
            finish: eft,
        });
        for &e in graph.in_edges(task) {
            let edge = graph.edge(e);
            if assignment[edge.src.index()] != mem {
                schedule.place_comm(CommPlacement {
                    edge: e,
                    start: est - edge.comm_cost,
                    finish: est,
                });
            }
        }
    }
    (schedule, makespan)
}

/// Exhaustive search over commit orders with the memory assignment fixed:
/// the [`crate::bb`] search space restricted to one memory per task. Returns
/// the best schedule strictly better than `cutoff` (if any), the nodes
/// spent, and whether the space was fully explored within `budget`.
fn fixed_assignment_search(
    graph: &TaskGraph,
    platform: &Platform,
    assignment: &[Memory],
    cutoff: f64,
    budget: u64,
    cancel: CancelSignal<'_>,
) -> (Option<(Schedule, f64)>, u64, bool) {
    // Assignment-aware bottom levels: remaining work below each task at the
    // *assigned* speed.
    let order = algo::topological_order(graph).expect("validated");
    let mut bottom = vec![0.0f64; graph.n_tasks()];
    for &t in order.iter().rev() {
        let best_child = graph
            .children(t)
            .map(|c| bottom[c.index()])
            .fold(0.0, f64::max);
        let mem = assignment[t.index()];
        bottom[t.index()] = graph.task(t).work_on(mem.is_blue()) + best_child;
    }
    let mut search = FixedSearch {
        graph,
        assignment,
        bottom,
        best_makespan: cutoff,
        best_schedule: None,
        nodes: 0,
        budget,
        complete: true,
        cancel,
    };
    let root = PartialSchedule::new(graph, platform);
    search.explore(&root);
    let best = search.best_schedule.map(|s| {
        let makespan = s.makespan();
        (s, makespan)
    });
    (best, search.nodes, search.complete)
}

struct FixedSearch<'a> {
    graph: &'a TaskGraph,
    assignment: &'a [Memory],
    bottom: Vec<f64>,
    best_makespan: f64,
    best_schedule: Option<Schedule>,
    nodes: u64,
    budget: u64,
    complete: bool,
    cancel: CancelSignal<'a>,
}

impl FixedSearch<'_> {
    /// Node budget exhausted or cancel signal tripped: stop, lose the proof.
    fn out_of_budget(&mut self) -> bool {
        if self.nodes >= self.budget || self.cancel.is_cancelled() {
            self.complete = false;
            true
        } else {
            false
        }
    }
}

impl FixedSearch<'_> {
    fn lower_bound(&self, partial: &PartialSchedule<'_>) -> f64 {
        let mut lb = partial.makespan();
        for task in self.graph.task_ids() {
            if partial.is_scheduled(task) {
                continue;
            }
            let ready_after = self
                .graph
                .parents(task)
                .filter_map(|p| partial.finish_time(p))
                .fold(0.0, f64::max);
            lb = lb.max(ready_after + self.bottom[task.index()]);
        }
        lb
    }

    fn explore(&mut self, partial: &PartialSchedule<'_>) {
        if partial.is_complete() {
            let makespan = partial.makespan();
            if makespan < self.best_makespan - EPSILON {
                self.best_makespan = makespan;
                self.best_schedule = Some(partial.clone().into_schedule());
            }
            return;
        }
        if self.out_of_budget() {
            return;
        }
        self.nodes += 1;
        if self.lower_bound(partial) >= self.best_makespan - EPSILON {
            return;
        }
        let mut moves: Vec<(TaskId, mals_sched::EstBreakdown)> = Vec::new();
        for task in partial.ready_tasks() {
            let mem = self.assignment[task.index()];
            if let Some(bd) = partial.evaluate(task, mem) {
                moves.push((task, bd));
            }
        }
        moves.sort_by(|a, b| {
            let ka = a.1.eft + self.bottom[a.0.index()]
                - self
                    .graph
                    .task(a.0)
                    .work_on(self.assignment[a.0.index()].is_blue());
            let kb = b.1.eft + self.bottom[b.0.index()]
                - self
                    .graph
                    .task(b.0)
                    .work_on(self.assignment[b.0.index()].is_blue());
            ka.total_cmp(&kb)
        });
        for (task, bd) in moves {
            let mut child = partial.clone();
            child.commit(task, &bd);
            self.explore(&child);
            if self.out_of_budget() {
                return;
            }
        }
    }
}

/// The no-good cut excluding exactly one memory assignment:
/// `Σ_{i: b_i = 0} b_i + Σ_{i: b_i = 1} (1 − b_i) ≥ 1`.
fn no_good_cut(on_red: &[VarId], assignment: &[Memory]) -> (Vec<(f64, VarId)>, Sense, f64) {
    let mut terms = Vec::with_capacity(on_red.len());
    let mut rhs = 1.0;
    for (&var, mem) in on_red.iter().zip(assignment) {
        if mem.is_blue() {
            terms.push((1.0, var));
        } else {
            terms.push((-1.0, var));
            rhs -= 1.0;
        }
    }
    (terms, Sense::Ge, rhs)
}

/// The MILP backend's solve loop (see the module docs) on a valid graph.
fn solve_milp(
    graph: &TaskGraph,
    platform: &Platform,
    limits: &SolveLimits,
    cancel: CancelSignal<'_>,
) -> SolveOutcome {
    if graph.is_empty() {
        return SolveOutcome::with_schedule(
            Schedule::for_graph(graph),
            OptimalityStatus::Optimal,
            0,
        );
    }
    let feas = memory_feasibility(graph, platform);
    if feas.is_infeasible() {
        return SolveOutcome::without_schedule(OptimalityStatus::Infeasible, 0);
    }
    // A pre-tripped signal stops the solve before the incumbent seeding.
    if cancel.is_cancelled() {
        return SolveOutcome::without_schedule(OptimalityStatus::LimitHit, 0);
    }

    // Incumbent seeding, exactly like the combinatorial backend: the best of
    // the two memory-aware heuristics (when they succeed). The heuristics
    // observe the same cancel signal per commit.
    let (mut best_schedule, mut best_makespan) = heuristic_incumbent(graph, platform, cancel);
    // A mid-seeding trip keeps the incumbent (if any) but skips the search.
    if cancel.is_cancelled() {
        return search_outcome(best_schedule, false, 0);
    }
    let lower_bound = makespan_lower_bound_with_memory(graph, platform);

    // Instances beyond the MILP's reach: fall back to the heuristic
    // incumbent without any optimality claim (mirrors a truncated B&B).
    if graph.n_tasks() > MilpBackend::MAX_TASKS {
        return search_outcome(best_schedule, false, 0);
    }

    // Big-M horizon: only schedules at least as good as the incumbent are
    // interesting, so the incumbent makespan is a valid (and much tighter)
    // big-M than the naive work+comm horizon. With purely integral
    // durations every list-schedule makespan is integral (starts are sums
    // of works and transfer times), so "strictly better than U" tightens to
    // "≤ U − 1" and the lower bound rounds up — both shrink the proof gap
    // substantially.
    let integral = all_durations_integral(graph);
    let lower_bound = if integral {
        (lower_bound - 1e-9).ceil()
    } else {
        lower_bound
    };
    // Only an incumbent can meet the bound: without one both sides may be
    // +∞, and the search below decides.
    if best_makespan <= lower_bound + EPSILON {
        if let Some(schedule) = best_schedule {
            return SolveOutcome::with_schedule(schedule, OptimalityStatus::Optimal, 0);
        }
    }
    let horizon = if best_makespan.is_finite() {
        if integral {
            best_makespan - 1.0
        } else {
            best_makespan
        }
    } else {
        graph.makespan_horizon().max(1.0)
    };
    let cm = build_compact_model(graph, platform, horizon, lower_bound, &feas.forced);
    let topo_pos = {
        let order = algo::topological_order(graph).expect("validated");
        let mut pos = vec![0usize; graph.n_tasks()];
        for (k, &t) in order.iter().enumerate() {
            pos[t.index()] = k;
        }
        pos
    };

    // Branch memory assignments (class 0) before ordering binaries
    // (class 1): the b's drive both the area cuts and the task speeds.
    let mut priority = vec![1u8; cm.model.n_variables()];
    for v in &cm.on_red {
        priority[v.index()] = 0;
    }
    let solver = MilpSolver::new(MilpLimits {
        node_limit: limits.node_limit,
        lp_iteration_limit: limits.lp_iteration_limit,
    })
    .with_branch_priority(priority);
    let initial_cutoff = best_makespan.is_finite().then_some(best_makespan);
    let mut repaired: HashSet<Vec<bool>> = HashSet::new();
    let mut repair_nodes = 0u64;
    let mut repair_complete = true;

    let result = solver.solve_with_cancel(
        &cm.model,
        initial_cutoff,
        |x, lp_obj| {
            let assignment: Vec<Memory> = cm
                .on_red
                .iter()
                .map(|v| {
                    if x[v.index()] > 0.5 {
                        Memory::Red
                    } else {
                        Memory::Blue
                    }
                })
                .collect();
            let starts: Vec<f64> = cm.start.iter().map(|v| x[v.index()]).collect();
            let (schedule, makespan) =
                extract_schedule(graph, platform, &topo_pos, &assignment, &starts);
            let report = validate(graph, platform, &schedule);
            if report.is_valid() && makespan <= lp_obj + ACCEPT_TOL {
                if makespan < best_makespan {
                    best_makespan = makespan;
                    best_schedule = Some(schedule);
                }
                return IntegralDecision::Accept {
                    objective: makespan,
                };
            }
            // The point is memory-infeasible (or processor contention pushed the
            // greedy timing past the LP bound): search this assignment exactly,
            // then exclude it.
            let mut achieved = None;
            if report.is_valid() && makespan < best_makespan {
                best_makespan = makespan;
                best_schedule = Some(schedule);
                achieved = Some(makespan);
            }
            let key: Vec<bool> = assignment.iter().map(|m| !m.is_blue()).collect();
            if repaired.insert(key) {
                let budget = limits.node_limit.saturating_sub(repair_nodes);
                let (found, used, complete) = fixed_assignment_search(
                    graph,
                    platform,
                    &assignment,
                    best_makespan,
                    budget,
                    cancel,
                );
                repair_nodes += used;
                if !complete {
                    repair_complete = false;
                }
                if let Some((s, ms)) = found {
                    if ms < best_makespan {
                        best_makespan = ms;
                        best_schedule = Some(s);
                        achieved = Some(ms);
                    }
                }
            }
            IntegralDecision::Reject {
                cut: no_good_cut(&cm.on_red, &assignment),
                achieved,
            }
        },
        cancel,
    );

    let nodes = result.nodes + repair_nodes;
    search_outcome(best_schedule, result.proven && repair_complete, nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bb::BranchAndBound;
    use mals_gen::dex;

    /// A MILP solve under the default limits.
    fn milp(g: &TaskGraph, platform: &Platform) -> SolveOutcome {
        MilpBackend.solve(g, platform, &SolveCtx::sequential())
    }

    /// A B&B solve under the default limits.
    fn bb(g: &TaskGraph, platform: &Platform) -> SolveOutcome {
        BranchAndBound.solve(g, platform, &SolveCtx::sequential())
    }

    fn solve(platform: &Platform) -> SolveOutcome {
        let (g, _) = dex();
        milp(&g, platform)
    }

    #[test]
    fn dex_optimum_with_memory_5_is_6() {
        let (g, _) = dex();
        let platform = Platform::single_pair(5.0, 5.0);
        let outcome = solve(&platform);
        assert!(outcome.is_optimal(), "{outcome:?}");
        assert!((outcome.makespan().unwrap() - 6.0).abs() < 1e-9);
        let report = validate(&g, &platform, outcome.schedule.as_ref().unwrap());
        assert!(report.is_valid(), "{:?}", report.errors);
        assert!(report.peaks.blue <= 5.0 + 1e-9 && report.peaks.red <= 5.0 + 1e-9);
    }

    #[test]
    fn dex_optimum_with_memory_4_is_7() {
        // Tight memory exercises the repair path: the paper's optimal
        // makespan under symmetric bounds of 4 is 7.
        let (g, _) = dex();
        let platform = Platform::single_pair(4.0, 4.0);
        let outcome = solve(&platform);
        assert!(outcome.is_optimal(), "{outcome:?}");
        assert!((outcome.makespan().unwrap() - 7.0).abs() < 1e-9);
        let report = validate(&g, &platform, outcome.schedule.as_ref().unwrap());
        assert!(report.is_valid(), "{:?}", report.errors);
        assert!(report.peaks.blue <= 4.0 + 1e-9 && report.peaks.red <= 4.0 + 1e-9);
    }

    #[test]
    fn dex_infeasible_with_memory_2_is_proven() {
        let outcome = solve(&Platform::single_pair(2.0, 2.0));
        assert_eq!(outcome.status, OptimalityStatus::Infeasible);
        assert_eq!(outcome.nodes, 0);
    }

    #[test]
    fn empty_graph_is_trivially_optimal() {
        let g = TaskGraph::new();
        let outcome = milp(&g, &Platform::default());
        assert!(outcome.is_optimal());
        assert_eq!(outcome.makespan(), Some(0.0));
    }

    #[test]
    fn agrees_with_bb_on_dex_asymmetric_bounds() {
        let (g, _) = dex();
        for (blue, red) in [(4.0, 5.0), (5.0, 4.0), (3.0, 5.0), (10.0, 10.0)] {
            let platform = Platform::single_pair(blue, red);
            let milp = milp(&g, &platform);
            let bb = bb(&g, &platform);
            assert!(bb.is_proven());
            match (milp.makespan(), bb.makespan()) {
                (Some(a), Some(b)) => {
                    assert!(milp.is_optimal());
                    assert!((a - b).abs() < 1e-6, "({blue},{red}): milp {a} vs bb {b}");
                }
                (None, None) => assert!(milp.is_proven()),
                (a, b) => panic!("({blue},{red}): milp {a:?} vs bb {b:?}"),
            }
        }
    }

    #[test]
    fn forced_memories_are_respected() {
        // Red can hold nothing above 3.5: T3 (MemReq 4) is forced blue, and
        // the resulting optimum is still found and validated.
        let (g, _) = dex();
        let platform = Platform::single_pair(10.0, 3.5);
        let outcome = solve(&platform);
        assert!(outcome.is_optimal(), "{outcome:?}");
        let schedule = outcome.schedule.as_ref().unwrap();
        let report = validate(&g, &platform, schedule);
        assert!(report.is_valid(), "{:?}", report.errors);
        let bb = bb(&g, &platform);
        assert!((outcome.makespan().unwrap() - bb.makespan().unwrap()).abs() < 1e-6);
    }

    #[test]
    fn multi_processor_platform_small_instance() {
        // Two processors per memory: the pair disjunctions are relaxed and
        // the extraction handles the packing; cross-check against bb.
        let (g, _) = dex();
        let platform = Platform::new(2, 2, 6.0, 6.0).unwrap();
        let milp = milp(&g, &platform);
        let bb = bb(&g, &platform);
        assert!(bb.is_proven());
        let (a, b) = (milp.makespan().unwrap(), bb.makespan().unwrap());
        assert!((a - b).abs() < 1e-6, "milp {a} vs bb {b}");
        let report = validate(&g, &platform, milp.schedule.as_ref().unwrap());
        assert!(report.is_valid(), "{:?}", report.errors);
    }
}
