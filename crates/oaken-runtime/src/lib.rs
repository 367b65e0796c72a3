//! Deterministic fork-join parallelism for the Oaken reproduction — the
//! software analogue of the paper's many parallel quantization engines
//! (§5.2: one quantize/dequantize unit per memory channel, all working on
//! independent shards of the same iteration).
//!
//! Oaken's hardware gets throughput by pointing many small engines at
//! disjoint pieces of work — heads, channels, batch slots — and merging the
//! results in a fixed order. This crate reproduces that execution model on
//! CPU threads without giving up the repository's central invariant,
//! **bit-exactness**: a parallel run must produce exactly the bits of the
//! serial run, for every thread count, every time.
//!
//! # The determinism discipline
//!
//! [`Runtime::run`] executes a *fixed task decomposition*: `n_tasks` tasks,
//! each a pure function of its index with effects disjoint from every other
//! task (disjoint output rows, disjoint batch slots, disjoint accumulators).
//! Scheduling — which thread runs which task, in which order — is the only
//! nondeterministic ingredient, and under that discipline it is
//! unobservable:
//!
//! * floating-point results are fixed because every accumulation chain
//!   lives *inside* one task (the same per-row / per-head chains the serial
//!   code uses — no cross-task reductions, no atomics on floats);
//! * merged outputs are fixed because tasks write disjoint index ranges
//!   that are concatenated in index order ([`Runtime::map`],
//!   [`chunk_range`]);
//! * control flow is fixed because the decomposition depends only on the
//!   problem shape, never on timing.
//!
//! `Runtime::new(1)` (or [`Runtime::serial`]) runs every task inline on the
//! calling thread — byte-for-byte the pre-parallel code path — so one
//! thread reproduces single-threaded behaviour exactly, and the serving
//! engine's property tests can diff any thread count against it.
//!
//! # Usage
//!
//! ```
//! use oaken_runtime::Runtime;
//!
//! let rt = Runtime::new(4);
//! // Each task owns one output slot: deterministic under any schedule.
//! let squares = rt.map(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```
//!
//! The thread count for the serving stack defaults to
//! [`default_threads`], the machine's
//! [`std::thread::available_parallelism`]. Nothing in this crate reads the
//! process environment: a thread or rank count is always a value the
//! caller passes.

pub mod comm;
mod pool;
mod shard;

pub use comm::{Comm, CommStats};
pub use pool::WorkerPool;
pub use shard::chunk_range;

use std::sync::{Arc, Mutex};

/// The default worker count for parallel stages: the machine's available
/// parallelism (and `1` when even that is unknown).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A cheap, cloneable handle to a fork-join execution context: either the
/// serial inline executor or a shared [`WorkerPool`].
///
/// Clones share the same pool, so one engine-owned runtime can be handed
/// down through the forward pass, the tensor kernels, and the paged pool
/// without re-spawning threads.
#[derive(Clone, Debug, Default)]
pub struct Runtime {
    pool: Option<Arc<WorkerPool>>,
}

impl Runtime {
    /// The serial runtime: every task runs inline on the calling thread,
    /// in index order — exactly the loop the parallel path shards.
    pub fn serial() -> Self {
        Self { pool: None }
    }

    /// A runtime executing on `threads` threads (the calling thread
    /// participates). `threads <= 1` yields the serial runtime; worker
    /// threads are spawned eagerly and parked between jobs.
    pub fn new(threads: usize) -> Self {
        if threads <= 1 {
            Self::serial()
        } else {
            Self {
                pool: Some(Arc::new(WorkerPool::new(threads))),
            }
        }
    }

    /// Threads that execute a job (1 for the serial runtime).
    pub fn threads(&self) -> usize {
        self.pool.as_ref().map_or(1, |p| p.threads())
    }

    /// Runs `task(i)` for every `i in 0..n_tasks` and returns when all
    /// have finished. Serial runtimes run the plain `for` loop; pooled
    /// runtimes fork-join across the workers. Under the crate's task
    /// discipline (independent tasks, disjoint effects) both produce
    /// identical bits.
    ///
    /// # Panics
    ///
    /// Re-throws the first panic raised by any task.
    pub fn run(&self, n_tasks: usize, task: impl Fn(usize) + Sync) {
        match &self.pool {
            None => {
                for i in 0..n_tasks {
                    task(i);
                }
            }
            Some(pool) => pool.run(n_tasks, &task),
        }
    }

    /// Runs `task(i)` for every `i in 0..n_tasks` and collects the results
    /// **in index order** — the deterministic merge for stages whose tasks
    /// produce owned values.
    ///
    /// # Panics
    ///
    /// Re-throws the first panic raised by any task, after dropping the
    /// results the other tasks produced.
    pub fn map<T: Send>(&self, n_tasks: usize, task: impl Fn(usize) -> T + Sync) -> Vec<T> {
        match &self.pool {
            None => (0..n_tasks).map(task).collect(),
            Some(pool) => {
                // One slot per task, each locked once, by its own task.
                let slots: Vec<Mutex<Option<T>>> = (0..n_tasks).map(|_| Mutex::new(None)).collect();
                pool.run(n_tasks, &|i| {
                    let value = task(i);
                    *slots[i].lock().expect("a slot is never locked by a panic") = Some(value);
                });
                (slots.into_iter())
                    .map(|slot| {
                        let value = slot
                            .into_inner()
                            .expect("a slot is never locked by a panic");
                        value.expect("every task completed")
                    })
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn serial_runtime_runs_inline_in_order() {
        let rt = Runtime::serial();
        assert_eq!(rt.threads(), 1);
        let order = std::sync::Mutex::new(Vec::new());
        rt.run(5, |i| order.lock().unwrap().push(i));
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn one_thread_is_serial() {
        assert_eq!(Runtime::new(1).threads(), 1);
        assert_eq!(Runtime::new(0).threads(), 1);
        assert_eq!(Runtime::new(2).threads(), 2);
    }

    #[test]
    fn map_preserves_index_order_under_any_schedule() {
        let rt = Runtime::new(4);
        for _ in 0..20 {
            let v = rt.map(97, |i| i * 3 + 1);
            assert_eq!(v, (0..97).map(|i| i * 3 + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_handles_non_copy_values() {
        let rt = Runtime::new(3);
        let v = rt.map(10, |i| vec![i; i]);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(x.len(), i);
        }
    }

    #[test]
    fn map_drops_finished_results_when_a_task_panics() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        let rt = Runtime::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.map(8, |i| {
                assert_ne!(i, 5, "task 5 fails");
                Counted
            })
        }));
        assert!(result.is_err(), "the task's panic reaches the caller");
        // The job drains before the panic is re-thrown: the seven other
        // tasks produced a value each, and each was dropped.
        assert_eq!(DROPS.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn clones_share_one_pool() {
        let rt = Runtime::new(4);
        let rt2 = rt.clone();
        let count = AtomicUsize::new(0);
        rt.run(8, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        rt2.run(8, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 16);
        assert_eq!(rt2.threads(), 4);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
