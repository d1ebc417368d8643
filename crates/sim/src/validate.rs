//! Independent validation of schedules.
//!
//! Every scheduler in the workspace (heuristics and exact solvers) produces a
//! [`Schedule`]; this module re-checks such schedules against the model of
//! Section 3 of the paper without reusing any of the schedulers' internal
//! bookkeeping, so that a bug in a scheduler cannot hide itself:
//!
//! 1. completeness and well-formedness (every task placed, durations match
//!    the processing time on the chosen resource, processor indices valid);
//! 2. flow dependencies, including cross-memory transfer placements;
//! 3. resource exclusivity (a processor runs one task at a time);
//! 4. memory capacity on both memories, via the replay of
//!    [`crate::memory::memory_profiles`].

use crate::memory::{memory_peaks, MemoryPeaks};
use crate::schedule::Schedule;
use mals_dag::{EdgeId, TaskGraph, TaskId};
use mals_platform::{Memory, Platform};
use mals_util::{approx_eq, approx_le, EPSILON};

/// A single validation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ValidationError {
    /// A task has no placement.
    MissingTask(TaskId),
    /// A placement references a processor that does not exist.
    InvalidProcessor(TaskId),
    /// A task starts before time 0, has `finish < start`, or has a
    /// non-finite start or finish.
    NegativeTime(TaskId),
    /// A task's duration does not equal its processing time on the memory it
    /// was mapped to.
    DurationMismatch {
        /// The offending task.
        task: TaskId,
        /// Duration found in the schedule.
        actual: f64,
        /// Expected processing time on the assigned resource.
        expected: f64,
    },
    /// A same-memory dependency is violated (`finish(i) > start(j)`).
    FlowViolation {
        /// The offending edge.
        edge: EdgeId,
    },
    /// A cross-memory edge has no communication placement.
    MissingComm(EdgeId),
    /// A communication starts before its source task completes, finishes
    /// after its destination task starts, has the wrong duration, or has a
    /// non-finite start or finish.
    CommViolation {
        /// The offending edge.
        edge: EdgeId,
    },
    /// A communication is placed on an edge whose endpoints share a memory.
    SpuriousComm(EdgeId),
    /// Two tasks overlap on the same processor.
    ResourceOverlap {
        /// First task (earlier start).
        first: TaskId,
        /// Second task (overlapping start).
        second: TaskId,
    },
    /// The memory peak exceeds the capacity of a memory.
    MemoryExceeded {
        /// Which memory overflowed.
        memory: Memory,
        /// Peak usage found by the replay.
        peak: f64,
        /// Capacity of that memory.
        bound: f64,
    },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::MissingTask(t) => write!(f, "task {t} is not placed"),
            ValidationError::InvalidProcessor(t) => write!(f, "task {t} uses an invalid processor"),
            ValidationError::NegativeTime(t) => write!(f, "task {t} has an invalid time window"),
            ValidationError::DurationMismatch {
                task,
                actual,
                expected,
            } => {
                write!(f, "task {task} runs for {actual} instead of {expected}")
            }
            ValidationError::FlowViolation { edge } => write!(f, "flow violated on edge {edge}"),
            ValidationError::MissingComm(e) => write!(f, "cross-memory edge {e} has no transfer"),
            ValidationError::CommViolation { edge } => {
                write!(f, "transfer on edge {edge} violates timing constraints")
            }
            ValidationError::SpuriousComm(e) => {
                write!(
                    f,
                    "edge {e} has a transfer although both endpoints share a memory"
                )
            }
            ValidationError::ResourceOverlap { first, second } => {
                write!(
                    f,
                    "tasks {first} and {second} overlap on the same processor"
                )
            }
            ValidationError::MemoryExceeded {
                memory,
                peak,
                bound,
            } => {
                write!(f, "{memory} memory peak {peak} exceeds bound {bound}")
            }
        }
    }
}

/// Outcome of validating a schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    /// Makespan of the schedule.
    pub makespan: f64,
    /// Memory peaks measured by the replay.
    pub peaks: MemoryPeaks,
    /// All constraint violations found (empty for a valid schedule).
    pub errors: Vec<ValidationError>,
}

impl ValidationReport {
    /// Returns `true` if no violation was found.
    pub fn is_valid(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Validates `schedule` against the task graph, the platform's resources and
/// both memory capacities.
pub fn validate(graph: &TaskGraph, platform: &Platform, schedule: &Schedule) -> ValidationReport {
    let mut errors = Vec::new();

    // 1. Placement well-formedness.
    for task in graph.task_ids() {
        match schedule.task(task) {
            None => errors.push(ValidationError::MissingTask(task)),
            Some(p) => {
                if p.proc >= platform.n_procs() {
                    errors.push(ValidationError::InvalidProcessor(task));
                    continue;
                }
                // A non-finite time would pass the tolerant comparisons
                // below (∞ is "approximately" any finite duration).
                if !(p.start.is_finite() && p.finish.is_finite())
                    || p.start < -EPSILON
                    || p.finish < p.start - EPSILON
                {
                    errors.push(ValidationError::NegativeTime(task));
                }
                let mem = platform.memory_of(p.proc);
                let expected = graph.task(task).work_on(mem.is_blue());
                if !approx_eq(p.duration(), expected) {
                    errors.push(ValidationError::DurationMismatch {
                        task,
                        actual: p.duration(),
                        expected,
                    });
                }
            }
        }
    }

    // 2. Flow dependencies and communications.
    for edge_id in graph.edge_ids() {
        let edge = graph.edge(edge_id);
        let (Some(src), Some(dst)) = (schedule.task(edge.src), schedule.task(edge.dst)) else {
            continue; // already reported as MissingTask
        };
        if src.proc >= platform.n_procs() || dst.proc >= platform.n_procs() {
            continue; // already reported as InvalidProcessor
        }
        let cross = platform.memory_of(src.proc) != platform.memory_of(dst.proc);
        match (cross, schedule.comm(edge_id)) {
            (false, None) => {
                if !approx_le(src.finish, dst.start) {
                    errors.push(ValidationError::FlowViolation { edge: edge_id });
                }
            }
            (false, Some(_)) => {
                errors.push(ValidationError::SpuriousComm(edge_id));
                if !approx_le(src.finish, dst.start) {
                    errors.push(ValidationError::FlowViolation { edge: edge_id });
                }
            }
            (true, None) => errors.push(ValidationError::MissingComm(edge_id)),
            (true, Some(c)) => {
                let ok = c.start.is_finite()
                    && c.finish.is_finite()
                    && approx_le(src.finish, c.start)
                    && approx_le(c.finish, dst.start)
                    && approx_eq(c.duration(), edge.comm_cost);
                if !ok {
                    errors.push(ValidationError::CommViolation { edge: edge_id });
                }
            }
        }
    }

    // 3. Resource exclusivity.
    let mut per_proc: Vec<Vec<TaskId>> = vec![Vec::new(); platform.n_procs()];
    for task in graph.task_ids() {
        if let Some(p) = schedule.task(task) {
            if p.proc < platform.n_procs() {
                per_proc[p.proc].push(task);
            }
        }
    }
    for tasks in &mut per_proc {
        tasks.sort_by(|&a, &b| {
            let pa = schedule.task(a).unwrap();
            let pb = schedule.task(b).unwrap();
            pa.start
                .total_cmp(&pb.start)
                .then(pa.finish.total_cmp(&pb.finish))
        });
        for pair in tasks.windows(2) {
            let first = schedule.task(pair[0]).unwrap();
            let second = schedule.task(pair[1]).unwrap();
            if !approx_le(first.finish, second.start) {
                errors.push(ValidationError::ResourceOverlap {
                    first: pair[0],
                    second: pair[1],
                });
            }
        }
    }

    // 4. Memory capacity.
    let peaks = memory_peaks(graph, platform, schedule);
    for mem in Memory::BOTH {
        let bound = platform.memory_bound(mem);
        if !approx_le(peaks.get(mem), bound) {
            errors.push(ValidationError::MemoryExceeded {
                memory: mem,
                peak: peaks.get(mem),
                bound,
            });
        }
    }

    ValidationReport {
        makespan: schedule.makespan(),
        peaks,
        errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{CommPlacement, TaskPlacement};

    fn dex() -> (TaskGraph, [TaskId; 4]) {
        let mut g = TaskGraph::new();
        let t1 = g.add_task("T1", 3.0, 1.0);
        let t2 = g.add_task("T2", 2.0, 2.0);
        let t3 = g.add_task("T3", 6.0, 3.0);
        let t4 = g.add_task("T4", 1.0, 1.0);
        g.add_edge(t1, t2, 1.0, 1.0).unwrap();
        g.add_edge(t1, t3, 2.0, 1.0).unwrap();
        g.add_edge(t2, t4, 1.0, 1.0).unwrap();
        g.add_edge(t3, t4, 2.0, 1.0).unwrap();
        (g, [t1, t2, t3, t4])
    }

    fn s1(g: &TaskGraph, [t1, t2, t3, t4]: [TaskId; 4]) -> Schedule {
        let mut s = Schedule::for_graph(g);
        s.place_task(TaskPlacement {
            task: t1,
            proc: 1,
            start: 0.0,
            finish: 1.0,
        });
        s.place_task(TaskPlacement {
            task: t3,
            proc: 1,
            start: 1.0,
            finish: 4.0,
        });
        s.place_task(TaskPlacement {
            task: t2,
            proc: 0,
            start: 2.0,
            finish: 4.0,
        });
        s.place_task(TaskPlacement {
            task: t4,
            proc: 1,
            start: 5.0,
            finish: 6.0,
        });
        let e12 = g.edge_between(t1, t2).unwrap();
        let e24 = g.edge_between(t2, t4).unwrap();
        s.place_comm(CommPlacement {
            edge: e12,
            start: 1.0,
            finish: 2.0,
        });
        s.place_comm(CommPlacement {
            edge: e24,
            start: 4.0,
            finish: 5.0,
        });
        s
    }

    #[test]
    fn paper_schedule_s1_is_valid_with_bound_5() {
        let (g, t) = dex();
        let s = s1(&g, t);
        let platform = Platform::single_pair(5.0, 5.0);
        let report = validate(&g, &platform, &s);
        assert!(report.is_valid(), "unexpected errors: {:?}", report.errors);
        assert_eq!(report.makespan, 6.0);
        assert_eq!(report.peaks.blue, 2.0);
        assert_eq!(report.peaks.red, 5.0);
    }

    #[test]
    fn paper_schedule_s1_is_invalid_with_bound_4() {
        // The paper notes that with M_blue = M_red = 4, s1 is no longer
        // acceptable (its red peak is 5).
        let (g, t) = dex();
        let s = s1(&g, t);
        let platform = Platform::single_pair(4.0, 4.0);
        let report = validate(&g, &platform, &s);
        assert!(!report.is_valid());
        assert!(report.errors.iter().any(|e| matches!(
            e,
            ValidationError::MemoryExceeded {
                memory: Memory::Red,
                ..
            }
        )));
    }

    #[test]
    fn missing_task_detected() {
        let (g, t) = dex();
        let mut s = s1(&g, t);
        s = {
            // Rebuild without T4.
            let mut partial = Schedule::for_graph(&g);
            for &task in &t[..3] {
                partial.place_task(*s.task(task).unwrap());
            }
            partial
        };
        let platform = Platform::single_pair(10.0, 10.0);
        let report = validate(&g, &platform, &s);
        assert!(report
            .errors
            .iter()
            .any(|e| matches!(e, ValidationError::MissingTask(x) if *x == t[3])));
    }

    #[test]
    fn duration_mismatch_detected() {
        let (g, t) = dex();
        let mut s = s1(&g, t);
        // T1 on the red processor should take 1 unit; claim 2.
        s.place_task(TaskPlacement {
            task: t[0],
            proc: 1,
            start: 0.0,
            finish: 2.0,
        });
        let platform = Platform::single_pair(10.0, 10.0);
        let report = validate(&g, &platform, &s);
        assert!(report
            .errors
            .iter()
            .any(|e| matches!(e, ValidationError::DurationMismatch { task, .. } if *task == t[0])));
    }

    #[test]
    fn flow_violation_detected() {
        let (g, [t1, t2, t3, t4]) = dex();
        let mut s = Schedule::for_graph(&g);
        // T3 starts before its parent T1 finishes, both on blue.
        s.place_task(TaskPlacement {
            task: t1,
            proc: 0,
            start: 0.0,
            finish: 3.0,
        });
        s.place_task(TaskPlacement {
            task: t3,
            proc: 0,
            start: 2.0,
            finish: 8.0,
        });
        s.place_task(TaskPlacement {
            task: t2,
            proc: 1,
            start: 3.0,
            finish: 5.0,
        });
        s.place_task(TaskPlacement {
            task: t4,
            proc: 1,
            start: 9.0,
            finish: 10.0,
        });
        let platform = Platform::single_pair(100.0, 100.0);
        let report = validate(&g, &platform, &s);
        assert!(report
            .errors
            .iter()
            .any(|e| matches!(e, ValidationError::FlowViolation { .. })));
        // T1 -> T2 crosses memories without a transfer.
        assert!(report
            .errors
            .iter()
            .any(|e| matches!(e, ValidationError::MissingComm(_))));
        // T3 and T1 also overlap on processor 0.
        assert!(report
            .errors
            .iter()
            .any(|e| matches!(e, ValidationError::ResourceOverlap { .. })));
    }

    #[test]
    fn comm_violation_detected() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", 1.0, 1.0);
        let b = g.add_task("b", 1.0, 1.0);
        let e = g.add_edge(a, b, 1.0, 3.0).unwrap();
        let mut s = Schedule::for_graph(&g);
        s.place_task(TaskPlacement {
            task: a,
            proc: 0,
            start: 0.0,
            finish: 1.0,
        });
        s.place_task(TaskPlacement {
            task: b,
            proc: 1,
            start: 2.0,
            finish: 3.0,
        });
        // Transfer of duration 1 instead of 3, overlapping b's start.
        s.place_comm(CommPlacement {
            edge: e,
            start: 1.0,
            finish: 2.0,
        });
        let platform = Platform::single_pair(10.0, 10.0);
        let report = validate(&g, &platform, &s);
        assert!(report
            .errors
            .iter()
            .any(|e| matches!(e, ValidationError::CommViolation { .. })));
    }

    /// A transfer placed with NaN times is still placed: the validator
    /// rejects its times, it does not report the transfer missing.
    #[test]
    fn nan_comm_is_a_placed_comm() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", 1.0, 1.0);
        let b = g.add_task("b", 1.0, 1.0);
        let e = g.add_edge(a, b, 1.0, 1.0).unwrap();
        let mut s = Schedule::for_graph(&g);
        s.place_task(TaskPlacement {
            task: a,
            proc: 0,
            start: 0.0,
            finish: 1.0,
        });
        s.place_task(TaskPlacement {
            task: b,
            proc: 1,
            start: 2.0,
            finish: 3.0,
        });
        s.place_comm(CommPlacement {
            edge: e,
            start: f64::NAN,
            finish: f64::NAN,
        });
        let platform = Platform::single_pair(10.0, 10.0);
        let report = validate(&g, &platform, &s);
        assert!(report
            .errors
            .contains(&ValidationError::CommViolation { edge: e }));
        assert!(!report
            .errors
            .iter()
            .any(|er| matches!(er, ValidationError::MissingComm(_))));
    }

    #[test]
    fn spurious_comm_detected() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", 1.0, 1.0);
        let b = g.add_task("b", 1.0, 1.0);
        let e = g.add_edge(a, b, 1.0, 1.0).unwrap();
        let mut s = Schedule::for_graph(&g);
        s.place_task(TaskPlacement {
            task: a,
            proc: 0,
            start: 0.0,
            finish: 1.0,
        });
        s.place_task(TaskPlacement {
            task: b,
            proc: 0,
            start: 2.0,
            finish: 3.0,
        });
        s.place_comm(CommPlacement {
            edge: e,
            start: 1.0,
            finish: 2.0,
        });
        let platform = Platform::single_pair(10.0, 10.0);
        let report = validate(&g, &platform, &s);
        assert!(report
            .errors
            .iter()
            .any(|er| matches!(er, ValidationError::SpuriousComm(_))));
    }

    #[test]
    fn invalid_processor_detected() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", 1.0, 1.0);
        let mut s = Schedule::for_graph(&g);
        s.place_task(TaskPlacement {
            task: a,
            proc: 7,
            start: 0.0,
            finish: 1.0,
        });
        let platform = Platform::single_pair(10.0, 10.0);
        let report = validate(&g, &platform, &s);
        assert!(report
            .errors
            .iter()
            .any(|e| matches!(e, ValidationError::InvalidProcessor(_))));
    }

    #[test]
    fn negative_time_detected() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", 1.0, 1.0);
        let mut s = Schedule::for_graph(&g);
        s.place_task(TaskPlacement {
            task: a,
            proc: 0,
            start: -2.0,
            finish: -1.0,
        });
        let platform = Platform::single_pair(10.0, 10.0);
        let report = validate(&g, &platform, &s);
        assert!(report
            .errors
            .iter()
            .any(|e| matches!(e, ValidationError::NegativeTime(_))));
    }

    #[test]
    fn non_finite_times_are_flagged() {
        // ∞ − ∞ is NaN and ∞ is within any relative tolerance of a finite
        // duration, so only an explicit check catches these.
        let mut g = TaskGraph::new();
        let a = g.add_task("a", 1e308, 1e308);
        let b = g.add_task("b", 1e308, 1e308);
        let e = g.add_edge(a, b, 1.0, 1e308).unwrap();
        let mut s = Schedule::for_graph(&g);
        s.place_task(TaskPlacement {
            task: a,
            proc: 0,
            start: 0.0,
            finish: 1e308,
        });
        s.place_task(TaskPlacement {
            task: b,
            proc: 1,
            start: f64::INFINITY,
            finish: f64::INFINITY,
        });
        s.place_comm(CommPlacement {
            edge: e,
            start: 1e308,
            finish: f64::INFINITY,
        });
        let report = validate(&g, &Platform::single_pair(10.0, 10.0), &s);
        assert!(report.errors.contains(&ValidationError::NegativeTime(b)));
        assert!(report
            .errors
            .contains(&ValidationError::CommViolation { edge: e }));
        assert!(!report.is_valid());
    }

    #[test]
    fn zero_duration_tasks_may_share_an_instant() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", 0.0, 0.0);
        let b = g.add_task("b", 0.0, 0.0);
        g.add_edge(a, b, 0.0, 0.0).unwrap();
        let mut s = Schedule::for_graph(&g);
        s.place_task(TaskPlacement {
            task: a,
            proc: 0,
            start: 1.0,
            finish: 1.0,
        });
        s.place_task(TaskPlacement {
            task: b,
            proc: 0,
            start: 1.0,
            finish: 1.0,
        });
        let platform = Platform::single_pair(10.0, 10.0);
        let report = validate(&g, &platform, &s);
        assert!(report.is_valid(), "{:?}", report.errors);
    }

    #[test]
    fn error_messages_are_informative() {
        let e = ValidationError::MemoryExceeded {
            memory: Memory::Red,
            peak: 7.0,
            bound: 5.0,
        };
        assert!(e.to_string().contains("red"));
        assert!(e.to_string().contains('7'));
        let e2 = ValidationError::MissingTask(TaskId::from_index(3));
        assert!(e2.to_string().contains("T3"));
    }
}
