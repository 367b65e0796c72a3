//! The hand-rolled scoped worker pool behind [`crate::Runtime`].
//!
//! Design constraints (see the crate docs for the determinism argument):
//!
//! * **std only** — no rayon/crossbeam in the offline vendor tree, so the
//!   pool is a `Mutex` + two `Condvar`s and plain `std::thread` workers.
//! * **Scoped borrows** — a fork-join call borrows its closure (and
//!   everything the closure captures) only for the duration of
//!   [`WorkerPool::run`]; the lifetime is erased into a raw pointer while
//!   the job is in flight and `run` does not return until every task has
//!   finished, so the borrow can never dangle.
//! * **Claim-under-lock scheduling** — a worker claims `(job pointer,
//!   task index)` together under the job mutex, so a late-waking worker
//!   can never pair a fresh index with a stale closure. Task bodies run
//!   outside the lock; with task granularities of microseconds and up the
//!   per-claim lock cost is noise.
//! * **Allocation-free dispatch** — publishing a job stores one raw fat
//!   pointer and three counters; no per-call boxing, so hot paths that
//!   must stay allocation-free in steady state (the paged pool's batch
//!   append) can fork-join freely.
//! * **Panic propagation** — a panicking task is caught in the worker,
//!   the job still drains, and the first payload is re-thrown from `run`
//!   on the calling thread (so `should_panic` tests and engine assertions
//!   behave identically under any thread count).

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// The type-erased fork-join task: invoked once per index in `0..n_tasks`.
type RawTask = *const (dyn Fn(usize) + Sync);

/// Shared pool state guarded by [`Shared::state`].
struct JobState {
    /// The in-flight job's closure, while one is active.
    task: Option<RawTask>,
    /// Next unclaimed task index of the in-flight job.
    next: usize,
    /// Total tasks of the in-flight job.
    n_tasks: usize,
    /// Tasks claimed but not yet finished plus tasks not yet claimed.
    remaining: usize,
    /// Id of the most recently published job (monotonic). Claim loops and
    /// completion waits are keyed on it, so a caller can never claim
    /// indices of — or wait on, or take panics from — someone else's job
    /// when multiple threads share one pool.
    job_id: u64,
    /// Highest job id that has fully drained.
    completed_id: u64,
    /// First panic payload of each drained-with-panic job, keyed by job
    /// id; the publishing caller removes and re-throws its own entry.
    panics: Vec<(u64, Box<dyn Any + Send>)>,
    /// Tells workers to exit (pool drop).
    shutdown: bool,
}

// SAFETY: the raw task pointer is only dereferenced while the publishing
// `run` call is blocked waiting for the job to drain, so the pointee (a
// caller-stack closure) is alive for every dereference; the closure itself
// is `Sync`, making concurrent shared calls sound.
unsafe impl Send for JobState {}

struct Shared {
    state: Mutex<JobState>,
    /// Workers park here between jobs.
    work: Condvar,
    /// The publishing caller parks here until `remaining == 0`.
    done: Condvar,
}

/// A fixed-size pool of parked worker threads executing deterministic
/// fork-join jobs. Construct through [`crate::Runtime`] unless you need
/// the pool directly.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl WorkerPool {
    /// Creates a pool that executes jobs on `threads` threads total: the
    /// calling thread participates, so `threads - 1` workers are spawned.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "a pool needs at least the calling thread");
        let shared = Arc::new(Shared {
            state: Mutex::new(JobState {
                task: None,
                next: 0,
                n_tasks: 0,
                remaining: 0,
                job_id: 0,
                completed_id: 0,
                panics: Vec::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("oaken-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        Self {
            shared,
            workers,
            threads,
        }
    }

    /// Threads that execute a job (including the caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `task(i)` for every `i in 0..n_tasks` across the pool and the
    /// calling thread, returning when all tasks have finished.
    ///
    /// The task decomposition is part of the caller's contract: tasks must
    /// be independent (disjoint effects), and each `task(i)` must compute
    /// the same values regardless of which thread runs it — under that
    /// discipline the result is bit-identical to the serial loop
    /// `for i in 0..n_tasks { task(i) }` for every thread count and every
    /// scheduling order.
    ///
    /// Reentrancy: if a job is already in flight on this pool (a task that
    /// itself forks, or a second thread sharing the pool), the call simply
    /// degrades to the serial loop on the calling thread — same bits, no
    /// deadlock.
    ///
    /// # Panics
    ///
    /// Re-throws the first panic raised by any task, after the job drains.
    pub fn run(&self, n_tasks: usize, task: &(dyn Fn(usize) + Sync)) {
        if n_tasks == 0 {
            return;
        }
        let shared = &self.shared;
        let mut state = shared.state.lock().expect("pool mutex");
        if state.task.is_some() {
            // Busy pool: degrade to the serial loop (bit-identical).
            drop(state);
            for i in 0..n_tasks {
                task(i);
            }
            return;
        }
        // Lifetime erasure: `RawTask` is the task pointer with its borrow
        // forgotten.
        let raw: RawTask =
            // SAFETY: the pointer is dereferenced only while this call is
            // blocked draining the job, which keeps `task` alive.
            unsafe { std::mem::transmute::<*const (dyn Fn(usize) + Sync + '_), RawTask>(task) };
        state.task = Some(raw);
        state.next = 0;
        state.n_tasks = n_tasks;
        state.remaining = n_tasks;
        state.job_id += 1;
        let my_id = state.job_id;
        shared.work.notify_all();
        // The caller participates: claim and execute until no unclaimed
        // task of *its own* job is left, then wait for the stragglers.
        // The job-id guard matters when clones share the pool: once this
        // job drains, another thread may publish a new job before we
        // re-acquire the lock, and we must not claim its indices.
        loop {
            if state.job_id != my_id || state.next >= state.n_tasks {
                break;
            }
            let idx = state.next;
            state.next += 1;
            drop(state);
            let result = catch_unwind(AssertUnwindSafe(|| task(idx)));
            state = shared.state.lock().expect("pool mutex");
            finish_task(&mut state, result, &shared.done);
        }
        while state.completed_id < my_id {
            state = shared.done.wait(state).expect("pool mutex");
        }
        let panic = state
            .panics
            .iter()
            .position(|(id, _)| *id == my_id)
            .map(|pos| state.panics.swap_remove(pos).1);
        drop(state);
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }
}

/// Book-keeping after one task body returns: record a panic, decrement the
/// drain counter, and on the last task retire the job and wake the caller.
///
/// Runs strictly before the job drains (`remaining > 0` on entry), and a
/// new job cannot be published until the drain, so `state.job_id` is
/// always the id of the job this task belonged to.
fn finish_task(state: &mut JobState, result: Result<(), Box<dyn Any + Send>>, done: &Condvar) {
    if let Err(payload) = result {
        let id = state.job_id;
        if !state.panics.iter().any(|(j, _)| *j == id) {
            state.panics.push((id, payload));
        }
    }
    state.remaining -= 1;
    if state.remaining == 0 {
        state.task = None;
        state.completed_id = state.job_id;
        done.notify_all();
    }
}

fn worker_loop(shared: &Shared) {
    let mut state = shared.state.lock().expect("pool mutex");
    loop {
        if state.shutdown {
            return;
        }
        match state.task {
            // Claim the job pointer and an index *together* under the
            // lock: a stale pointer can never meet a fresh index.
            Some(task) if state.next < state.n_tasks => {
                let idx = state.next;
                state.next += 1;
                drop(state);
                // SAFETY: `remaining` cannot hit zero until this task
                // finishes, and the publishing `run` call does not return
                // before `remaining == 0`, so the closure is alive.
                let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*task)(idx) }));
                state = shared.state.lock().expect("pool mutex");
                finish_task(&mut state, result, &shared.done);
            }
            _ => {
                state = shared.work.wait(state).expect("pool mutex");
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool mutex");
            state.shutdown = true;
            self.shared.work.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_every_task_exactly_once() {
        let pool = WorkerPool::new(4);
        let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        pool.run(100, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn pool_is_reusable_across_jobs() {
        let pool = WorkerPool::new(3);
        for round in 0..50usize {
            let sum = AtomicUsize::new(0);
            pool.run(round + 1, &|i| {
                sum.fetch_add(i + 1, Ordering::Relaxed);
            });
            let n = round + 1;
            assert_eq!(sum.load(Ordering::Relaxed), n * (n + 1) / 2);
        }
    }

    #[test]
    fn zero_tasks_is_a_noop() {
        let pool = WorkerPool::new(2);
        pool.run(0, &|_| panic!("must not run"));
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let sum = AtomicUsize::new(0);
        pool.run(10, &|i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 45);
    }

    #[test]
    fn nested_run_degrades_to_serial() {
        let pool = WorkerPool::new(4);
        let count = AtomicUsize::new(0);
        pool.run(4, &|_| {
            pool.run(4, &|_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 16);
    }

    /// Two threads hammering one shared pool concurrently: each caller
    /// must execute exactly its own tasks and see exactly its own panics
    /// (regression test for the job-identity race where a second
    /// publisher could capture a draining job's indices or panic).
    #[test]
    fn concurrent_callers_never_cross_jobs() {
        let pool = std::sync::Arc::new(WorkerPool::new(3));
        let mut handles = Vec::new();
        for caller in 0..2u64 {
            let pool = std::sync::Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                for round in 0..200usize {
                    let sum = AtomicUsize::new(0);
                    let n = 1 + (round + caller as usize) % 7;
                    pool.run(n, &|i| {
                        sum.fetch_add(i + 1, Ordering::Relaxed);
                    });
                    assert_eq!(
                        sum.load(Ordering::Relaxed),
                        n * (n + 1) / 2,
                        "caller {caller} round {round}"
                    );
                    // Odd callers also throw periodically; the panic must
                    // come back to *this* caller, never the other one.
                    if caller == 1 && round % 10 == 0 {
                        let err = catch_unwind(AssertUnwindSafe(|| {
                            pool.run(4, &|i| {
                                if i == 3 {
                                    panic!("caller-one panic");
                                }
                            });
                        }));
                        assert!(err.is_err(), "round {round}: panic must propagate");
                    }
                }
            }));
        }
        for h in handles {
            h.join().expect("no caller may observe a foreign panic");
        }
    }

    #[test]
    fn task_panic_propagates_to_caller() {
        let pool = WorkerPool::new(4);
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.run(16, &|i| {
                if i == 7 {
                    panic!("task seven failed");
                }
            });
        }))
        .expect_err("panic must propagate");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "task seven failed");
        // The pool survives a panicked job.
        let sum = AtomicUsize::new(0);
        pool.run(8, &|i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 28);
    }
}
