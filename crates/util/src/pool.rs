//! A minimal scoped-thread parallel engine.
//!
//! Two layers are provided:
//!
//! * [`WorkerPool`] — a reusable pool of persistent worker threads. A pool is
//!   created once (e.g. per solver session) and then runs many batches of
//!   indexed work without re-spawning threads. Work is
//!   partitioned into contiguous chunks claimed from a shared atomic index
//!   (self-scheduling, no work stealing) and results are reduced in input
//!   order, so the output of [`WorkerPool::run_indexed`] is deterministic and
//!   independent of thread timing.
//! * [`parallel_map`] / [`parallel_map_indexed`] — a one-shot convenience
//!   wrapper that builds a transient pool, maps a closure over a slice and
//!   tears the pool down again. The experiment campaigns use it to spread
//!   whole DAGs (or the memory bounds of one sweep) over threads; the
//!   solver engine of `mals-sched` holds a [`WorkerPool`] instead because a
//!   session races portfolio members request after request.
//!
//! Rather than pulling in a full work-stealing runtime, this keeps the
//! dependency set empty: plain `std` threads, a condvar for batch hand-off
//! and an atomic index for chunk claiming are more than enough to saturate a
//! laptop-class machine for these workloads.
//!
//! Panics raised inside worker closures are caught, forwarded to the
//! submitting thread and re-raised there with their original payload, so a
//! failing closure behaves the same under 1 or N threads.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Configuration for [`WorkerPool`] and [`parallel_map`].
#[derive(Debug, Clone, Copy)]
pub struct ParallelConfig {
    /// Number of worker threads. `0` means "use available parallelism", as
    /// reported by [`std::thread::available_parallelism`] at the point of
    /// use (never a hardcoded count).
    pub threads: usize,
    /// Minimum work-claiming chunk size: each worker claims at least this
    /// many consecutive items at a time. Larger chunks reduce contention on
    /// the shared index but worsen load balance for heterogeneous item
    /// costs. The pool may claim larger blocks to amortise synchronisation
    /// on large inputs; partitioning never affects results.
    pub chunk: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            threads: 0,
            chunk: 1,
        }
    }
}

impl ParallelConfig {
    /// A configuration that runs everything sequentially on the caller
    /// thread. Useful for deterministic debugging and in tests.
    pub fn sequential() -> Self {
        ParallelConfig {
            threads: 1,
            chunk: usize::MAX,
        }
    }

    /// A configuration using `threads` workers and chunk size 1. As
    /// everywhere else, `0` resolves to the machine's available parallelism.
    pub fn with_threads(threads: usize) -> Self {
        ParallelConfig { threads, chunk: 1 }
    }

    /// The configuration requested by the `MALS_THREADS` environment
    /// variable, if set to a valid thread count (`0` = all cores).
    pub fn env_override() -> Option<Self> {
        let value = std::env::var("MALS_THREADS").ok()?;
        value.trim().parse::<usize>().ok().map(Self::with_threads)
    }

    /// [`ParallelConfig::env_override`] falling back to the default
    /// (all-cores) configuration.
    pub fn from_env() -> Self {
        Self::env_override().unwrap_or_default()
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

    fn effective_threads(&self, items: usize) -> usize {
        self.resolved_threads().clamp(1, items.max(1))
    }
}

/// The type-erased per-batch executor: called with a claimed index range
/// `[start, end)`.
type RangeRunner = dyn Fn(usize, usize) + Sync;

/// A batch published to the workers. The runner pointer borrows from the
/// submitting thread's stack frame; see the safety notes on
/// [`WorkerPool::run_batch`].
struct Batch {
    runner: *const RangeRunner,
    len: usize,
    chunk: usize,
}

// SAFETY: the raw runner pointer is only dereferenced while the submitting
// thread is blocked inside `run_batch`, which keeps the referent alive.
unsafe impl Send for Batch {}

struct Control {
    /// Incremented once per published batch; workers detect new work by
    /// comparing against the last generation they processed.
    generation: u64,
    batch: Option<Batch>,
    /// Workers that have not yet finished the current generation.
    active: usize,
    shutdown: bool,
}

struct Shared {
    control: Mutex<Control>,
    work_ready: Condvar,
    work_done: Condvar,
    /// Next unclaimed item index of the current batch.
    next: AtomicUsize,
    /// First panic payload captured from a worker (or the submitter's own
    /// share of the batch), re-raised once the batch has drained.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// A reusable pool of persistent worker threads executing indexed batches.
///
/// The pool spawns `resolved_threads - 1` OS threads on construction (the
/// submitting thread itself works on every batch, so a 1-thread pool spawns
/// nothing and runs inline). Batches are submitted with
/// [`WorkerPool::run_indexed`]; the pool partitions `0..len` into contiguous
/// chunks, workers claim chunks from a shared atomic counter, and the results
/// are collected in index order — the returned `Vec` is bit-identical to a
/// sequential `(0..len).map(f).collect()` whenever `f` is a pure function of
/// its index.
///
/// Batches are serialised: concurrent `run_indexed` calls on one pool queue
/// behind an internal lock, and a batch closure must not re-enter the pool.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
    min_chunk: usize,
    /// Serialises batch submission (one batch in flight at a time).
    submit: Mutex<()>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .field("min_chunk", &self.min_chunk)
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool for `cfg` (resolving `threads == 0` to the available
    /// parallelism) and spawns its persistent workers.
    pub fn new(cfg: ParallelConfig) -> Self {
        let threads = cfg.resolved_threads().max(1);
        let shared = Arc::new(Shared {
            control: Mutex::new(Control {
                generation: 0,
                batch: None,
                active: 0,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            work_done: Condvar::new(),
            next: AtomicUsize::new(0),
            panic: Mutex::new(None),
        });
        let workers = (1..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        WorkerPool {
            shared,
            workers,
            threads,
            min_chunk: if cfg.chunk == usize::MAX {
                1
            } else {
                cfg.chunk.max(1)
            },
            submit: Mutex::new(()),
        }
    }

    /// The number of threads participating in each batch (including the
    /// submitting thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every index in `0..len` and returns the results in
    /// index order. `f` runs concurrently on the pool's threads; the result
    /// is identical to `(0..len).map(f).collect()` for pure `f`.
    ///
    /// Panics raised by `f` on any thread are re-raised here with their
    /// original payload once the batch has drained.
    pub fn run_indexed<R, F>(&self, len: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if len == 0 {
            return Vec::new();
        }
        if self.workers.is_empty() || len == 1 {
            return (0..len).map(f).collect();
        }
        let chunk = self.claim_size(len);
        let results: Mutex<Vec<Option<R>>> = Mutex::new((0..len).map(|_| None).collect());
        let runner = |start: usize, end: usize| {
            // Compute the whole claimed range before taking the results
            // lock, so the lock is held for a plain memcpy-like splice.
            let mut local = Vec::with_capacity(end - start);
            for i in start..end {
                local.push((i, f(i)));
            }
            let mut slots = results.lock().expect("worker pool results poisoned");
            for (i, r) in local {
                slots[i] = Some(r);
            }
        };
        self.run_batch(&runner, len, chunk);
        results
            .into_inner()
            .expect("worker pool results poisoned")
            .into_iter()
            .map(|slot| slot.expect("every index must have been processed"))
            .collect()
    }

    /// Chunks claimed per synchronisation: at least the configured minimum,
    /// scaled up on large inputs so each thread performs a bounded number of
    /// claims per batch.
    fn claim_size(&self, len: usize) -> usize {
        let amortised = len / (self.threads * 8);
        self.min_chunk.max(amortised).max(1)
    }

    /// Publishes one batch and blocks until every thread has finished it.
    fn run_batch<'a>(
        &self,
        runner: &'a (dyn Fn(usize, usize) + Sync + 'a),
        len: usize,
        chunk: usize,
    ) {
        // A panicking batch unwinds through this guard and poisons the lock;
        // the pool stays usable, so tolerate the poison on re-entry.
        let _exclusive = self
            .submit
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        // SAFETY: the runner reference is smuggled to the workers with its
        // lifetime erased. This function does not return (even on panic —
        // the submitter's own share runs under `catch_unwind`) until every
        // worker has decremented `active` for this generation, i.e. until no
        // thread can touch the pointer again, so the borrow outlives all
        // uses.
        let runner_ptr: *const RangeRunner = unsafe {
            std::mem::transmute::<&'a (dyn Fn(usize, usize) + Sync + 'a), &'static RangeRunner>(
                runner,
            )
        };
        {
            let mut control = self.shared.control.lock().expect("worker pool poisoned");
            debug_assert!(control.batch.is_none(), "batch already in flight");
            control.batch = Some(Batch {
                runner: runner_ptr,
                len,
                chunk,
            });
            control.generation = control.generation.wrapping_add(1);
            control.active = self.workers.len();
            self.shared.next.store(0, Ordering::Relaxed);
            self.shared.work_ready.notify_all();
        }
        // The submitting thread is a full participant.
        run_chunks(&self.shared, runner_ptr, len, chunk);
        let mut control = self.shared.control.lock().expect("worker pool poisoned");
        while control.active > 0 {
            control = self
                .shared
                .work_done
                .wait(control)
                .expect("worker pool poisoned");
        }
        control.batch = None;
        drop(control);
        let payload = self
            .shared
            .panic
            .lock()
            .expect("worker pool poisoned")
            .take();
        if let Some(payload) = payload {
            panic::resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut control = self
                .shared
                .control
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            control.shutdown = true;
            self.shared.work_ready.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut seen = 0u64;
    loop {
        let (runner, len, chunk) = {
            let mut control = shared.control.lock().expect("worker pool poisoned");
            loop {
                if control.shutdown {
                    return;
                }
                if control.generation != seen {
                    seen = control.generation;
                    let batch = control
                        .batch
                        .as_ref()
                        .expect("generation bumped without a batch");
                    break (batch.runner, batch.len, batch.chunk);
                }
                control = shared
                    .work_ready
                    .wait(control)
                    .expect("worker pool poisoned");
            }
        };
        run_chunks(shared, runner, len, chunk);
        let mut control = shared.control.lock().expect("worker pool poisoned");
        control.active -= 1;
        if control.active == 0 {
            shared.work_done.notify_all();
        }
    }
}

/// Claims and executes chunks of the current batch until none remain. Panics
/// inside the runner are captured (first payload wins) and abort the rest of
/// the batch so the other threads drain quickly.
fn run_chunks(shared: &Shared, runner: *const RangeRunner, len: usize, chunk: usize) {
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| loop {
        let start = shared.next.fetch_add(chunk, Ordering::Relaxed);
        if start >= len {
            break;
        }
        let end = (start + chunk).min(len);
        // SAFETY: see `run_batch` — the submitter keeps the runner alive
        // until every participant has finished the batch.
        unsafe { (*runner)(start, end) };
    }));
    if let Err(payload) = outcome {
        // Stop further claims so the batch drains as fast as possible.
        shared.next.store(len, Ordering::Relaxed);
        let mut slot = shared.panic.lock().expect("worker pool poisoned");
        slot.get_or_insert(payload);
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
pub fn parallel_map_indexed<T, R, F>(items: &[T], cfg: ParallelConfig, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = cfg.effective_threads(n);
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, it)| f(i, it)).collect();
    }
    let pool = WorkerPool::new(ParallelConfig {
        threads,
        chunk: cfg.chunk,
    });
    pool.run_indexed(n, |i| f(i, &items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

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
        let cfg = ParallelConfig {
            threads: 8,
            chunk: 7,
        };
        let out = parallel_map(&items, cfg, |&x| {
            COUNT.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), items.len());
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
    fn pool_is_reusable_across_batches() {
        let pool = WorkerPool::new(ParallelConfig::with_threads(4));
        for round in 0..50usize {
            let out = pool.run_indexed(round + 1, |i| i * round);
            assert_eq!(out, (0..=round).map(|i| i * round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn pool_results_are_index_ordered_and_deterministic() {
        let pool = WorkerPool::new(ParallelConfig::with_threads(8));
        let a = pool.run_indexed(10_000, |i| i as u64 * 3 + 1);
        let b = pool.run_indexed(10_000, |i| i as u64 * 3 + 1);
        assert_eq!(a, b);
        assert_eq!(a[1234], 1234 * 3 + 1);
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = WorkerPool::new(ParallelConfig::sequential());
        assert_eq!(pool.threads(), 1);
        let out = pool.run_indexed(5, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn pool_propagates_worker_panics_with_payload() {
        let pool = WorkerPool::new(ParallelConfig::with_threads(4));
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_indexed(100, |i| {
                if i == 57 {
                    panic!("boom at {i}");
                }
                i
            })
        }))
        .expect_err("the panic must propagate");
        let message = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(message.contains("boom at 57"), "payload lost: {message}");
        // The pool survives a panicking batch and keeps working.
        assert_eq!(pool.run_indexed(3, |i| i), vec![0, 1, 2]);
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

    #[test]
    fn env_override_parses_thread_counts() {
        // Only exercise the parser indirectly: with_threads semantics are
        // what `MALS_THREADS` resolves to, and `from_env` falls back to the
        // default when the variable is unset or invalid (not asserted here —
        // tests must not mutate the process environment).
        assert_eq!(ParallelConfig::with_threads(5).resolved_threads(), 5);
        let fallback = ParallelConfig::from_env();
        assert!(fallback.resolved_threads() >= 1);
    }
}
