//! A scoped parallel map: the one threading primitive of the workspace.
//!
//! The list schedulers are sequential; parallelism is only ever *across*
//! whole solves — the DAGs of a campaign, the memory bounds of one sweep,
//! the members of a portfolio race. [`parallel_map`] /
//! [`parallel_map_indexed`] cover all of them: each call spawns its
//! workers inside [`std::thread::scope`], maps a closure over a slice and
//! joins them again, so no thread outlives the call.
//!
//! * Results come back in input order, bit-identical to a sequential map
//!   for a pure closure, whatever the thread timing.
//! * The calling thread takes part, so a 1-thread call (or a 1-item slice)
//!   spawns nothing and runs inline.
//! * Items are claimed in contiguous blocks from one atomic index
//!   (self-scheduling, no work stealing); blocks grow with the input
//!   (`len / (threads·8)`) so large maps pay few synchronisations.
//! * A panic inside the closure is re-raised on the caller with its
//!   original payload, so a failing closure behaves the same under 1 or N
//!   threads.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Thread configuration of [`parallel_map`] and of the solver engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParallelConfig {
    /// Number of threads, the calling thread included. `0` means "use
    /// available parallelism", as reported by
    /// [`std::thread::available_parallelism`] at the point of use (never a
    /// hardcoded count).
    pub threads: usize,
}

impl ParallelConfig {
    /// A configuration that runs everything sequentially on the caller
    /// thread. Useful for deterministic debugging and in tests.
    pub fn sequential() -> Self {
        ParallelConfig { threads: 1 }
    }

    /// A configuration using `threads` threads. As everywhere else, `0`
    /// resolves to the machine's available parallelism.
    pub fn with_threads(threads: usize) -> Self {
        ParallelConfig { threads }
    }

    /// The configuration requested by the `MALS_THREADS` environment
    /// variable: `Ok(None)` when it is unset, and an error naming the
    /// variable when it is set to anything but a thread count (`0` = all
    /// cores), so a bad value is refused instead of silently ignored.
    pub fn env_override() -> Result<Option<Self>, String> {
        std::env::var_os("MALS_THREADS")
            .map(|value| Self::parse_env_value(&value.to_string_lossy()))
            .transpose()
    }

    fn parse_env_value(value: &str) -> Result<Self, String> {
        value
            .trim()
            .parse::<usize>()
            .map(Self::with_threads)
            .map_err(|_| {
                format!("MALS_THREADS expects a thread count (0 = all cores), got `{value}`")
            })
    }

    /// The actual number of threads this configuration resolves to: the
    /// requested count, or [`std::thread::available_parallelism`] when the
    /// request is `0`.
    pub fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }
}

/// Applies `f` to every element of `items` and collects the results in input
/// order, using the number of threads given by `cfg`.
///
/// The closure receives a reference to the item. Panics inside the closure
/// propagate to the caller with their original payload.
pub fn parallel_map<T, R, F>(items: &[T], cfg: ParallelConfig, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_indexed(items, cfg, |_, item| f(item))
}

/// Like [`parallel_map`] but the closure also receives the index of the item.
///
/// Spawns `min(threads, items.len()) − 1` scoped threads; the calling thread
/// is the remaining worker.
pub fn parallel_map_indexed<T, R, F>(items: &[T], cfg: ParallelConfig, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let len = items.len();
    let threads = cfg.resolved_threads().clamp(1, len.max(1));
    if threads == 1 {
        return items.iter().enumerate().map(|(i, it)| f(i, it)).collect();
    }
    let block = (len / (threads * 8)).max(1);
    let next = AtomicUsize::new(0);
    // One worker's share: the blocks it claimed, each tagged with its first
    // index. A panic stops further claims, so the other workers drain fast,
    // and then continues unwinding with its payload.
    let work = || {
        let mut done: Vec<(usize, Vec<R>)> = Vec::new();
        let claimed = panic::catch_unwind(AssertUnwindSafe(|| loop {
            let start = next.fetch_add(block, Ordering::Relaxed);
            if start >= len {
                break;
            }
            let end = (start + block).min(len);
            done.push((start, (start..end).map(|i| f(i, &items[i])).collect()));
        }));
        if let Err(payload) = claimed {
            next.store(len, Ordering::Relaxed);
            panic::resume_unwind(payload);
        }
        done
    };
    let mut blocks = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        // The caller's own panic leaves `scope` with its payload once every
        // worker has finished; a worker's is re-raised from its join, since
        // `scope` would replace an unjoined worker's payload with its own.
        let mut blocks = work();
        for handle in handles {
            match handle.join() {
                Ok(done) => blocks.extend(done),
                Err(payload) => panic::resume_unwind(payload),
            }
        }
        blocks
    });
    blocks.sort_unstable_by_key(|&(start, _)| start);
    let mut results = Vec::with_capacity(len);
    for (_, done) in blocks {
        results.extend(done);
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = parallel_map(&items, ParallelConfig::default(), |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_config_matches_parallel() {
        let items: Vec<u64> = (0..257).collect();
        let seq = parallel_map(&items, ParallelConfig::sequential(), |&x| x * x + 1);
        let par = parallel_map(&items, ParallelConfig::with_threads(4), |&x| x * x + 1);
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_input() {
        let items: Vec<u64> = Vec::new();
        let out: Vec<u64> = parallel_map(&items, ParallelConfig::default(), |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        let out = parallel_map(&[41u64], ParallelConfig::with_threads(8), |&x| x + 1);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn indexed_variant_gives_indices() {
        let items = ["a", "b", "c"];
        let out = parallel_map_indexed(&items, ParallelConfig::with_threads(2), |i, s| {
            format!("{i}:{s}")
        });
        assert_eq!(out, vec!["0:a", "1:b", "2:c"]);
    }

    #[test]
    fn every_item_processed_exactly_once() {
        static COUNT: AtomicUsize = AtomicUsize::new(0);
        let items: Vec<usize> = (0..5000).collect();
        let out = parallel_map(&items, ParallelConfig::with_threads(8), |&x| {
            COUNT.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out, items);
        assert_eq!(COUNT.load(Ordering::Relaxed), items.len());
    }

    #[test]
    fn more_threads_than_items() {
        let items: Vec<u32> = (0..3).collect();
        let out = parallel_map(&items, ParallelConfig::with_threads(32), |&x| x + 10);
        assert_eq!(out, vec![10, 11, 12]);
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(ParallelConfig::default().resolved_threads(), hw);
        assert_eq!(ParallelConfig::with_threads(0).resolved_threads(), hw);
        assert_eq!(ParallelConfig::with_threads(3).resolved_threads(), 3);
    }

    #[test]
    fn one_thread_runs_inline_on_the_caller() {
        let caller = std::thread::current().id();
        let items: Vec<usize> = (0..5).collect();
        let out = parallel_map(&items, ParallelConfig::sequential(), |&i| {
            assert_eq!(std::thread::current().id(), caller);
            i + 1
        });
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn env_values_parse_as_thread_counts_or_name_the_variable() {
        assert_eq!(ParallelConfig::parse_env_value(" 5 ").unwrap().threads, 5);
        assert_eq!(ParallelConfig::parse_env_value("0").unwrap().threads, 0);
        for bad in ["two", "-1", ""] {
            let err = ParallelConfig::parse_env_value(bad).unwrap_err();
            assert!(err.contains("MALS_THREADS"), "{err}");
        }
    }

    #[test]
    fn results_are_index_ordered_and_deterministic() {
        let items: Vec<u64> = (0..10_000).collect();
        let cfg = ParallelConfig::with_threads(8);
        let a = parallel_map(&items, cfg, |&i| i * 3 + 1);
        let b = parallel_map(&items, cfg, |&i| i * 3 + 1);
        assert_eq!(a, b);
        assert_eq!(a[1234], 1234 * 3 + 1);
    }

    #[test]
    fn parallel_map_propagates_worker_panics_with_payload() {
        let items: Vec<usize> = (0..100).collect();
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            parallel_map(&items, ParallelConfig::with_threads(4), |&i| {
                if i == 57 {
                    panic!("boom at {i}");
                }
                i
            })
        }))
        .expect_err("the panic must propagate");
        let message = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(message.contains("boom at 57"), "payload lost: {message}");
    }

    #[test]
    fn a_spawned_worker_panic_keeps_its_payload() {
        // Only spawned workers panic; the caller is slowed down so they
        // claim items while it works through its first block.
        let caller = std::thread::current().id();
        let items: Vec<usize> = (0..100).collect();
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            parallel_map(&items, ParallelConfig::with_threads(4), |&i| {
                if std::thread::current().id() == caller {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                } else {
                    panic!("boom on a worker at {i}");
                }
                i
            })
        }))
        .expect_err("the panic must propagate");
        let message = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            message.contains("boom on a worker"),
            "payload lost: {message}"
        );
    }

    #[test]
    fn parallel_map_propagates_panics() {
        let items: Vec<u32> = (0..64).collect();
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            parallel_map(&items, ParallelConfig::with_threads(4), |&x| {
                assert!(x != 13, "unlucky");
                x
            })
        }));
        assert!(caught.is_err());
    }
}
