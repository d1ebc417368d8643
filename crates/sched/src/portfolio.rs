//! Anytime portfolio racing over the solver registry.
//!
//! No single heuristic dominates across instance classes (Braun et al.;
//! the paper's own MemHEFT/MemMinMin trade wins with the memory bound), so
//! instead of picking one registry key a caller can race a *portfolio*: every
//! member solves the same instance concurrently, mapped over scoped threads
//! by [`parallel_map_indexed`], the best result wins, and the losers are
//! cooperatively cancelled through the [`CancelToken`] layer.
//!
//! Determinism is preserved — the winner of a race is independent of thread
//! timing:
//!
//! * every member runs to completion unless (a) the shared deadline passes,
//!   (b) the caller's own token trips, or (c) an *earlier-index* member
//!   proves optimality. A proven-optimal makespan can only tie or beat every
//!   later member, and ties resolve to the smaller index anyway, so
//!   cancelling only later members never changes the winner;
//! * the winner is the smallest `(makespan, member index)` pair over the
//!   members whose schedule passes `mals_sim::validate` on the *bounded*
//!   platform — memory-oblivious members whose schedule overruns the bounds
//!   are reported but never win.
//!
//! Failure isolation: a panicking member is contained with
//! [`std::panic::catch_unwind`] and surfaced in its [`MemberReport::error`];
//! the race continues and the best surviving member still wins.

use crate::registry::SolverRegistry;
use crate::solver::{OptimalityStatus, SolveCtx, SolveOutcome, Solver};
use mals_dag::TaskGraph;
use mals_platform::Platform;
use mals_sim::validate;
use mals_util::{parallel_map_indexed, CancelSignal, CancelToken, ParallelConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The default member set: the paper's two memory-aware heuristics plus the
/// deterministic MemHEFT ablations. All default members are memory-aware, so
/// every produced schedule is eligible to win, and all are polynomial, so a
/// no-deadline race terminates quickly.
pub const DEFAULT_MEMBERS: &[&str] = &[
    "memheft",
    "memminmin",
    "memheft-cpsum",
    "memheft-memreq",
    "memheft-red",
];

/// The outcome of one portfolio member.
#[derive(Debug, Clone, PartialEq)]
pub struct MemberReport {
    /// Registry key the member was built from.
    pub key: String,
    /// The member's display name.
    pub name: String,
    /// The member's own claimed status ([`OptimalityStatus::LimitHit`] for a
    /// panicked member).
    pub status: OptimalityStatus,
    /// Makespan of the member's schedule, if it produced one.
    pub makespan: Option<f64>,
    /// Search effort (nodes) the member spent.
    pub nodes: u64,
    /// Wall time the member ran for, in milliseconds.
    pub wall_time_ms: u64,
    /// `true` when the member's cancel token was tripped (deadline, caller
    /// cancellation, or an earlier member's optimality proof).
    pub cancelled: bool,
    /// Why the member did not (or could not) win: a contained panic, a
    /// solver-reported error, or a schedule that failed validation on the
    /// bounded platform. `None` for clean outcomes.
    pub error: Option<String>,
}

/// The full result of a portfolio race: the winning outcome plus the
/// per-member breakdown.
#[derive(Debug, Clone)]
pub struct PortfolioReport {
    /// One report per member, in member (= priority) order.
    pub members: Vec<MemberReport>,
    /// Index into `members` of the winner, if any member produced a schedule
    /// that validates on the bounded platform.
    pub winner: Option<usize>,
    /// The aggregate outcome: the winner's schedule and status (nodes summed
    /// over all members), or `Infeasible`/`LimitHit` when nobody won.
    pub outcome: SolveOutcome,
    /// Wall time of the whole race, in milliseconds.
    pub wall_time_ms: u64,
}

impl PortfolioReport {
    /// The `(key, error)` pairs of every member that reported an error —
    /// contained panics included.
    pub fn errors(&self) -> Vec<(&str, &str)> {
        self.members
            .iter()
            .filter_map(|m| m.error.as_deref().map(|e| (m.key.as_str(), e)))
            .collect()
    }

    /// The winning member's registry key, if any.
    pub fn winner_key(&self) -> Option<&str> {
        self.winner.map(|i| self.members[i].key.as_str())
    }
}

/// The message of a caught panic: its `String` or `&str` payload, as
/// `panic!` produces them.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("unknown panic payload")
}

/// A solver set raced against each other (see the module docs).
pub struct Portfolio {
    members: Vec<(String, Box<dyn Solver>)>,
}

impl std::fmt::Debug for Portfolio {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Portfolio")
            .field(
                "members",
                &self
                    .members
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Portfolio {
    /// A portfolio over explicit `(key, solver)` members. Member order is
    /// the tie-break priority: on equal makespans the earliest member wins.
    pub fn new(members: Vec<(String, Box<dyn Solver>)>) -> Self {
        Portfolio { members }
    }

    /// Builds members from registry keys (empty `keys`: the
    /// [`DEFAULT_MEMBERS`] set). Fails with the offending key when one is
    /// not registered.
    pub fn from_registry<S: AsRef<str>>(
        registry: &SolverRegistry,
        keys: &[S],
        seed: u64,
    ) -> Result<Self, String> {
        let keys: Vec<&str> = if keys.is_empty() {
            DEFAULT_MEMBERS.to_vec()
        } else {
            keys.iter().map(|k| k.as_ref()).collect()
        };
        let mut members = Vec::with_capacity(keys.len());
        for key in keys {
            let solver = registry
                .build_seeded(key, seed)
                .ok_or_else(|| key.to_string())?;
            members.push((key.to_string(), solver));
        }
        Ok(Portfolio { members })
    }

    /// The default portfolio: [`DEFAULT_MEMBERS`] out of
    /// [`SolverRegistry::heuristics`].
    pub fn default_heuristics(seed: u64) -> Self {
        Portfolio::from_registry(&SolverRegistry::heuristics(), DEFAULT_MEMBERS, seed)
            .expect("default members are registered")
    }

    /// The member keys, in priority order.
    pub fn member_keys(&self) -> Vec<&str> {
        self.members.iter().map(|(k, _)| k.as_str()).collect()
    }

    /// Races the members and returns the full per-member breakdown.
    ///
    /// Members run concurrently on up to `ctx.threads` threads, the calling
    /// thread included, so a race spawns at most `min(threads, members) − 1`
    /// scoped threads and joins them before it returns. With one thread the
    /// members run in order on the caller; the shared deadline still bounds
    /// each member, so a race on a single-core host degrades to a
    /// deadline-bounded sequential sweep. Each member gets its own
    /// [`CancelToken`] child-linked to the caller's (`ctx.cancel.token`), a
    /// 1-thread context, and the caller's deadline.
    pub fn solve_race(
        &self,
        graph: &TaskGraph,
        platform: &Platform,
        ctx: &SolveCtx,
    ) -> PortfolioReport {
        let race_start = Instant::now();
        let n = self.members.len();
        let parent = ctx.cancel.token;
        let tokens: Vec<CancelToken> = (0..n)
            .map(|_| match parent {
                Some(p) => CancelToken::child(p),
                None => CancelToken::new(),
            })
            .collect();

        struct Raw {
            outcome: Option<SolveOutcome>,
            panic: Option<String>,
            wall_time_ms: u64,
            cancelled: bool,
        }

        let run_member = |i: usize, (_, solver): &(String, Box<dyn Solver>)| {
            let start = Instant::now();
            let member_ctx = SolveCtx {
                limits: ctx.limits,
                threads: 1,
                cancel: CancelSignal {
                    token: Some(&tokens[i]),
                    deadline: ctx.cancel.deadline,
                },
            };
            let result = catch_unwind(AssertUnwindSafe(|| {
                solver.solve(graph, platform, &member_ctx)
            }));
            let wall_time_ms = start.elapsed().as_millis() as u64;
            // Checked when the member finishes, so a member that completed
            // before the deadline (or any token trip) is not marked
            // cancelled.
            let cancelled = member_ctx.is_cancelled();
            match result {
                Ok(outcome) => {
                    // An optimality proof makes every *later* member
                    // redundant: it can only tie or lose, and a tie resolves
                    // to the smaller index anyway. Earlier members keep
                    // running — one of them could tie and win by index.
                    if outcome.status == OptimalityStatus::Optimal {
                        for token in &tokens[i + 1..] {
                            token.cancel();
                        }
                    }
                    Raw {
                        outcome: Some(outcome),
                        panic: None,
                        wall_time_ms,
                        cancelled,
                    }
                }
                Err(payload) => {
                    let message = panic_message(payload.as_ref());
                    Raw {
                        outcome: None,
                        panic: Some(format!("panicked: {message}")),
                        wall_time_ms,
                        cancelled,
                    }
                }
            }
        };

        let raws: Vec<Raw> = parallel_map_indexed(
            &self.members,
            ParallelConfig::with_threads(ctx.threads),
            run_member,
        );

        // Winner selection on the submitting thread: smallest (makespan,
        // index) over the members whose schedule validates on the bounded
        // platform — deterministic for any thread count and timing.
        let mut members = Vec::with_capacity(n);
        let mut winner: Option<(f64, usize)> = None;
        let mut schedules = Vec::with_capacity(n);
        let mut total_nodes = 0u64;
        let mut any_infeasible = false;
        for (i, raw) in raws.into_iter().enumerate() {
            let (key, solver) = &self.members[i];
            let mut report = MemberReport {
                key: key.clone(),
                name: solver.name().to_string(),
                status: OptimalityStatus::LimitHit,
                makespan: None,
                nodes: 0,
                wall_time_ms: raw.wall_time_ms,
                cancelled: raw.cancelled,
                error: raw.panic,
            };
            let mut schedule = None;
            if let Some(outcome) = raw.outcome {
                report.status = outcome.status;
                report.makespan = outcome.makespan();
                report.nodes = outcome.nodes;
                report.error = outcome.error;
                total_nodes += outcome.nodes;
                any_infeasible |= outcome.status == OptimalityStatus::Infeasible;
                if let Some(s) = outcome.schedule {
                    if validate(graph, platform, &s).is_valid() {
                        let makespan = s.makespan();
                        let better = winner.is_none_or(|(best, _)| makespan < best);
                        if better {
                            winner = Some((makespan, i));
                        }
                        schedule = Some(s);
                    } else {
                        report.error = Some(
                            "schedule violates the platform's memory bounds; \
                             excluded from the race"
                                .to_string(),
                        );
                    }
                }
            }
            schedules.push(schedule);
            members.push(report);
        }

        let outcome = match winner {
            Some((_, i)) => SolveOutcome {
                schedule: schedules.into_iter().nth(i).expect("winner index"),
                status: members[i].status,
                nodes: total_nodes,
                error: None,
            },
            None => SolveOutcome {
                schedule: None,
                // All-members-infeasible is a (heuristic-grade) infeasibility
                // signal; any other empty race is a limit/cancellation.
                status: if any_infeasible
                    && members
                        .iter()
                        .all(|m| m.status == OptimalityStatus::Infeasible)
                {
                    OptimalityStatus::Infeasible
                } else {
                    OptimalityStatus::LimitHit
                },
                nodes: total_nodes,
                error: None,
            },
        };

        PortfolioReport {
            members,
            winner: winner.map(|(_, i)| i),
            outcome,
            wall_time_ms: race_start.elapsed().as_millis() as u64,
        }
    }
}

impl Solver for Portfolio {
    fn name(&self) -> &str {
        "Portfolio"
    }

    /// Races the members and returns the aggregate outcome (use
    /// [`Portfolio::solve_race`] for the per-member breakdown).
    fn solve(&self, graph: &TaskGraph, platform: &Platform, ctx: &SolveCtx) -> SolveOutcome {
        self.solve_race(graph, platform, ctx).outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mals_gen::dex;
    use mals_util::Deadline;

    #[test]
    fn default_portfolio_wins_with_best_member() {
        let portfolio = Portfolio::default_heuristics(0);
        let (g, _) = dex();
        let platform = Platform::single_pair(6.0, 6.0);
        let ctx = SolveCtx::sequential();
        let report = portfolio.solve_race(&g, &platform, &ctx);
        let winner = report.winner.expect("dex is feasible at bound 6");
        assert_eq!(report.members.len(), DEFAULT_MEMBERS.len());
        // The aggregate equals the winner's own makespan, and no validating
        // member beats it.
        let best = report.outcome.makespan().unwrap();
        assert_eq!(report.members[winner].makespan, Some(best));
        for member in &report.members {
            if member.error.is_none() {
                if let Some(m) = member.makespan {
                    assert!(best <= m + 1e-12, "{} beat the winner", member.key);
                }
            }
        }
        assert_eq!(report.outcome.status, OptimalityStatus::Heuristic);
        assert_eq!(
            report.winner_key(),
            Some(report.members[winner].key.as_str())
        );
    }

    #[test]
    fn race_is_deterministic_across_thread_counts() {
        let portfolio = Portfolio::default_heuristics(0);
        let (g, _) = dex();
        let platform = Platform::single_pair(5.0, 5.0);
        let reference = portfolio.solve_race(&g, &platform, &SolveCtx::sequential());
        for threads in [2, 4] {
            let ctx = SolveCtx {
                threads,
                ..SolveCtx::sequential()
            };
            let report = portfolio.solve_race(&g, &platform, &ctx);
            assert_eq!(report.winner, reference.winner, "{threads} threads");
            assert_eq!(
                report.outcome.schedule, reference.outcome.schedule,
                "{threads} threads diverged"
            );
        }
    }

    #[test]
    fn pre_tripped_token_yields_limit_hit() {
        let portfolio = Portfolio::default_heuristics(0);
        let (g, _) = dex();
        let token = CancelToken::new();
        token.cancel();
        let ctx = SolveCtx::sequential().with_cancel_token(&token);
        let report = portfolio.solve_race(&g, &Platform::single_pair(6.0, 6.0), &ctx);
        assert_eq!(report.winner, None);
        assert_eq!(report.outcome.status, OptimalityStatus::LimitHit);
        assert!(report.members.iter().all(|m| m.cancelled));
    }

    #[test]
    fn expired_deadline_yields_limit_hit() {
        let portfolio = Portfolio::default_heuristics(0);
        let (g, _) = dex();
        let ctx = SolveCtx::sequential().with_deadline(Deadline::after_millis(0));
        let report = portfolio.solve_race(&g, &Platform::single_pair(6.0, 6.0), &ctx);
        assert_eq!(report.outcome.status, OptimalityStatus::LimitHit);
        assert!(report.outcome.schedule.is_none());
    }

    #[test]
    fn infeasible_instance_reports_infeasible() {
        let portfolio = Portfolio::default_heuristics(0);
        let (g, _) = dex();
        // Bound 2 is hopeless for every member.
        let report = portfolio.solve_race(
            &g,
            &Platform::single_pair(2.0, 2.0),
            &SolveCtx::sequential(),
        );
        assert_eq!(report.winner, None);
        assert_eq!(report.outcome.status, OptimalityStatus::Infeasible);
    }

    #[test]
    fn unknown_member_key_is_rejected() {
        let err = Portfolio::from_registry(&SolverRegistry::heuristics(), &["memheft", "cplex"], 0)
            .unwrap_err();
        assert_eq!(err, "cplex");
    }

    #[test]
    fn memory_oblivious_member_cannot_win_with_an_invalid_schedule() {
        // `heft` ignores the bounds; on a tight-but-feasible platform its
        // schedule may overrun and must then be excluded, not crowned.
        let portfolio =
            Portfolio::from_registry(&SolverRegistry::heuristics(), &["heft", "memheft"], 0)
                .unwrap();
        let (g, _) = dex();
        let platform = Platform::single_pair(5.0, 5.0);
        let report = portfolio.solve_race(&g, &platform, &SolveCtx::sequential());
        if let Some(i) = report.winner {
            let schedule = report.outcome.schedule.as_ref().unwrap();
            assert!(validate(&g, &platform, schedule).is_valid());
            // Whoever won, the aggregate must respect the bounds.
            let _ = i;
        }
    }
}
