//! Sample statistics, process resource usage and the per-run outcome every
//! workload fills in.

use std::process::Child;
use std::time::{Duration, Instant};

/// Median of `values` (the mean of the middle pair for an even count; 0
/// for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Mean of `values` (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest of the percentiles 50, 90, 99, 99.9 that has at least ten
/// samples beyond it, as `(percentile, value)`; `None` below 20 samples.
/// Nearest-rank percentiles over the sorted samples.
pub fn supported_tail(values: &[f64]) -> Option<(f64, f64)> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    [99.9, 99.0, 90.0, 50.0].into_iter().find_map(|p| {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        (rank >= 1 && n - rank >= 10).then(|| (p, sorted[rank - 1]))
    })
}

/// Runs `request` repeatedly until `budget` has elapsed (always at least
/// `min_requests` times) and returns each request's wall time in seconds.
/// A request returns `false` to stop the loop early (a failure that would
/// repeat); its time is still recorded.
pub fn timed_loop(
    budget: Duration,
    min_requests: usize,
    mut request: impl FnMut() -> bool,
) -> Vec<f64> {
    let window = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < min_requests || window.elapsed() < budget {
        let started = Instant::now();
        let go_on = request();
        walls.push(started.elapsed().as_secs_f64());
        if !go_on {
            break;
        }
    }
    walls
}

/// Times `step` `reps` times and returns the median wall in seconds and
/// the last result: set-up is repeated so its time is a median, not one
/// draw.
pub fn median_setup<T>(reps: usize, mut step: impl FnMut() -> T) -> (f64, T) {
    let mut walls = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        last = Some(step());
        walls.push(started.elapsed().as_secs_f64());
    }
    (median(&walls), last.expect("at least one repetition"))
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of Linux on 64-bit targets.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    /// Peak resident set size in KiB.
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Exit status and peak memory of a reaped child process.
#[derive(Debug, Clone, Copy)]
pub struct ChildExit {
    /// `true` when the child exited normally with status 0.
    pub success: bool,
    /// Peak resident set size of the child, in MiB.
    pub peak_rss_mb: f64,
}

/// Waits for `child` and reads its peak resident set size, which
/// `Child::wait` does not report. The child is reaped here: do not call
/// `wait` on it afterwards.
pub fn wait_with_rusage(child: &mut Child) -> std::io::Result<ChildExit> {
    let pid = i32::try_from(child.id()).expect("pids fit in i32");
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // the C `int` and `struct rusage` that wait4 fills in; `pid` names
        // our own unreaped child, so no other process is affected.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let error = std::io::Error::last_os_error();
        if error.kind() != std::io::ErrorKind::Interrupted {
            return Err(error);
        }
    }
    // WIFEXITED && WEXITSTATUS == 0.
    let success = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Ok(ChildExit {
        success,
        peak_rss_mb: usage.maxrss as f64 / 1024.0,
    })
}

/// Peak resident set size of this process so far, in MiB.
pub fn self_peak_rss_mb() -> f64 {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage`; RUSAGE_SELF (0)
    // only reads this process's counters.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage.maxrss as f64 / 1024.0
}

/// One reported metric: value, unit and the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// What one run of one workload found: the operations it attempted, the
/// failed output checks, and its metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: usize,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Extra human-readable lines (tails, throughput, trace tables).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Records a failed output check (it fails the run).
    pub fn fail(&mut self, message: impl Into<String>) {
        self.failures.push(message.into());
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(supported_tail(&values), None);
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(supported_tail(&values), Some((90.0, 90.0)));
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(supported_tail(&values), Some((99.0, 990.0)));
    }
}
