//! Proves the paged pool's **parallel batched append path** is
//! allocation-free in steady state: once buffers have grown to their
//! working capacity, a window of `append_batch` calls on a multi-threaded
//! runtime performs **zero** heap allocations — the fork-join dispatch,
//! the pool's batch scratch, the per-slot row appends, and the MMU page
//! commit all run on reused storage (the software analogue of the
//! hardware engines' fixed SRAM buffers).
//!
//! The pool under test stores exact f32 rows. That choice is deliberate:
//! quantizers whose streams retain per-row *encoded* payloads (Oaken's
//! `FusedVector`s) allocate for the stored state itself on every append —
//! inherent storage growth, not overhead of the append path. Exact
//! storage appends into pre-grown flat buffers, so any allocation observed
//! here would be genuine overhead introduced by the batched/parallel
//! machinery.

use oaken_model::{
    BatchAppend, BatchKvCache, ModelConfig, PagedKvPool, PoolBatchView, RankedPools, SeqRowAppend,
};
use oaken_runtime::Runtime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

struct CountingAllocator;

/// Allocations made by enrolled threads.
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread's allocations count. The append path under test
    /// forks across a runtime, so the test thread *and* that runtime's
    /// workers are enrolled ([`enroll`]); libtest's main thread is not,
    /// and this file's tests take turns ([`ONE_WINDOW`]), so nothing else
    /// can land inside a counting window. Const-initialised with no
    /// destructor, which is what makes it legal to touch from inside
    /// `GlobalAlloc`.
    static ENROLLED: Cell<bool> = const { Cell::new(false) };
}

/// One test at a time: every test here enrolls its threads into the one
/// [`ALLOCATIONS`] counter, so a neighbour's set-up must not run inside
/// another's counting window.
static ONE_WINDOW: Mutex<()> = Mutex::new(());

fn count_one() {
    if ENROLLED.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Enrolls every thread of `rt` (the caller included): one task per
/// thread, each held at a barrier until all of them have started, so no
/// thread can take two and leave another out.
fn enroll(rt: &Runtime) {
    let barrier = Barrier::new(rt.threads());
    rt.run(rt.threads(), |_| {
        ENROLLED.with(|e| e.set(true));
        barrier.wait();
    });
    // Self-check: one allocation on each thread, every one of them seen.
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    rt.run(rt.threads(), |i| {
        drop(std::hint::black_box(Box::new(i)));
        barrier.wait();
    });
    let seen = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(seen, rt.threads(), "every runtime thread must be counted");
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn kv_row(d: usize, seed: u64) -> Vec<f32> {
    (0..d)
        .map(|i| {
            let u = ((i as u64)
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(seed * 7_919)
                >> 33) as f32
                / (1u64 << 31) as f32;
            (u - 0.5) * 6.0
        })
        .collect()
}

#[test]
fn steady_state_parallel_append_batch_makes_zero_allocations() {
    let _alone = ONE_WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    let layers = 2;
    let d = 64;
    let mut cfg = ModelConfig::llama2_7b().proxy(layers, d);
    cfg.num_heads = 2;
    cfg.num_kv_heads = 2;
    // Big pages so the measured window never crosses a page boundary: the
    // point is the append path's own overhead, not page-list growth.
    let mut pool = PagedKvPool::for_model(&cfg, None, 512, 65_536);
    let rt = Runtime::new(4);
    enroll(&rt);
    let seqs = [
        pool.alloc_seq(),
        pool.alloc_seq(),
        pool.alloc_seq(),
        pool.alloc_seq(),
    ];

    // Pre-generate every row (input generation is allowed to allocate;
    // the append path is what must not).
    let warm_tokens = 96usize;
    let measured_tokens = 8usize;
    let total = warm_tokens + measured_tokens;
    let rows: Vec<Vec<Vec<f32>>> = (0..total)
        .map(|t| {
            (0..seqs.len() * layers * 2)
                .map(|j| kv_row(d, (t * 97 + j) as u64))
                .collect()
        })
        .collect();
    let row = |t: usize, s: usize, layer: usize, kind: usize| -> &[f32] {
        &rows[t][(s * layers + layer) * 2 + kind]
    };

    // Warm-up: buffers (views, MMU tables, batch scratch) grow to their
    // steady-state capacity, worker threads spawn and park.
    for t in 0..warm_tokens {
        for layer in 0..layers {
            let items = [
                SeqRowAppend {
                    seq: seqs[0],
                    k: row(t, 0, layer, 0),
                    v: row(t, 0, layer, 1),
                },
                SeqRowAppend {
                    seq: seqs[1],
                    k: row(t, 1, layer, 0),
                    v: row(t, 1, layer, 1),
                },
                SeqRowAppend {
                    seq: seqs[2],
                    k: row(t, 2, layer, 0),
                    v: row(t, 2, layer, 1),
                },
                SeqRowAppend {
                    seq: seqs[3],
                    k: row(t, 3, layer, 0),
                    v: row(t, 3, layer, 1),
                },
            ];
            pool.append_batch(&rt, layer, &items).unwrap();
        }
    }

    // Measured window: the batched parallel append path must not allocate.
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for t in warm_tokens..total {
        for layer in 0..layers {
            let items = [
                SeqRowAppend {
                    seq: seqs[0],
                    k: row(t, 0, layer, 0),
                    v: row(t, 0, layer, 1),
                },
                SeqRowAppend {
                    seq: seqs[1],
                    k: row(t, 1, layer, 0),
                    v: row(t, 1, layer, 1),
                },
                SeqRowAppend {
                    seq: seqs[2],
                    k: row(t, 2, layer, 0),
                    v: row(t, 2, layer, 1),
                },
                SeqRowAppend {
                    seq: seqs[3],
                    k: row(t, 3, layer, 0),
                    v: row(t, 3, layer, 1),
                },
            ];
            pool.append_batch(&rt, layer, &items).unwrap();
        }
    }
    let delta = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(
        delta,
        0,
        "steady-state parallel append_batch performed {delta} heap allocations \
         over {measured_tokens} tokens x {layers} layers x {} sequences",
        seqs.len()
    );
    // Sanity: the rows actually landed.
    for &s in &seqs {
        assert_eq!(pool.seq_len(s, 0), total);
    }

    // The engine's slot-mapped adapter (`PoolBatchView::append_batch`,
    // the path the forward pass actually drives) must be equally
    // allocation-free: it translates slots through the accessor form
    // instead of materializing a mapped item list.
    let seq_list: Vec<_> = seqs.to_vec();
    let k0 = kv_row(d, 9_001);
    let v0 = kv_row(d, 9_002);
    let mut pools = RankedPools::single(&cfg, pool);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    {
        let mut view = PoolBatchView::new(&mut pools, &seq_list);
        for layer in 0..layers {
            let items = [
                BatchAppend {
                    slot: 0,
                    k: &k0,
                    v: &v0,
                },
                BatchAppend {
                    slot: 1,
                    k: &k0,
                    v: &v0,
                },
                BatchAppend {
                    slot: 2,
                    k: &k0,
                    v: &v0,
                },
                BatchAppend {
                    slot: 3,
                    k: &k0,
                    v: &v0,
                },
            ];
            view.append_batch(&rt, layer, &items);
        }
    }
    let delta = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(
        delta, 0,
        "PoolBatchView::append_batch performed {delta} heap allocations"
    );
    for &s in &seqs {
        assert_eq!(pools.lead().seq_len(s, 0), total + 1);
    }
}

/// The scheduler's reservation bound is asked up to twice per active
/// sequence per engine step, so it must not allocate either — least of all
/// on *planned* sequences, whose next rows straddle pending prompt blocks
/// and the private tail.
#[test]
fn steady_state_page_bound_over_pending_blocks_makes_zero_allocations() {
    let _alone = ONE_WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    let layers = 2;
    let d = 64;
    let mut cfg = ModelConfig::llama2_7b().proxy(layers, d);
    cfg.num_heads = 2;
    cfg.num_kv_heads = 2;
    let mut pool = PagedKvPool::for_model(&cfg, None, 512, 4096);
    pool.set_block_tokens(4);
    enroll(&Runtime::new(1));

    // Three sequences mid-prefill at different offsets into a five-block
    // plan: a bound over the next `n` rows walks up to five owners.
    let prompt: Vec<u32> = (0..23).collect();
    let seqs: Vec<_> = [1usize, 6, 11]
        .into_iter()
        .map(|fed| {
            let seq = pool.alloc_seq_with_prefix(&prompt).seq;
            for t in 0..fed {
                for layer in 0..layers {
                    let (k, v) = (kv_row(d, t as u64), kv_row(d, 500 + t as u64));
                    pool.append(seq, layer, &k, &v).unwrap();
                }
            }
            seq
        })
        .collect();

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let mut pages = 0u32;
    for _ in 0..16 {
        for &seq in &seqs {
            for n in [1usize, 3, 8, 20] {
                pages += pool.pages_possibly_needed_n(seq, n).unwrap();
            }
        }
    }
    let delta = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(
        delta, 0,
        "pages_possibly_needed_n performed {delta} heap allocations"
    );
    assert!(std::hint::black_box(pages) > 0, "the bounds were computed");
}
