//! Proves the paged pool's **append path** is allocation-free in steady
//! state: once buffers have grown to their working capacity, a window of
//! [`PoolBatchView::append`] calls — the one write path, which the forward
//! pass's KV stage drives once per step and layer — performs **zero** heap
//! allocations at one rank and at two: the page bound, the per-slot row
//! appends and the MMU page commit all run on reused storage (the software
//! analogue of the hardware engines' fixed SRAM buffers).
//!
//! Those pools store exact f32 rows, which append into pre-grown flat
//! buffers, so any allocation observed would be genuine overhead of the
//! append path. A quantized stream's store (Oaken's `EncodedStore`) grows
//! with the rows it keeps: a warm Oaken pool's run allocates only where a
//! 16-row store segment seals (its shared copy), and nothing between.

use oaken_core::{KvKind, KvQuantizer, OakenConfig, OakenQuantizer, OfflineProfiler};
use oaken_model::{BatchKvCache, KernelMode, ModelConfig, PagedKvPool, PoolBatchView};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct CountingAllocator;

thread_local! {
    /// Heap allocations made by this thread. Nothing under test leaves the
    /// calling thread and every test runs on its own, so a window's count
    /// is exactly its own work. Const-initialised with no destructor,
    /// which is what makes it legal to touch from inside `GlobalAlloc`.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

/// Heap allocations `work` makes on this thread, after checking that the
/// counter sees one.
fn allocations_of(work: impl FnOnce()) -> usize {
    let before = allocations();
    drop(std::hint::black_box(Box::new(0u64)));
    assert_eq!(allocations() - before, 1, "the counter sees this thread");
    let before = allocations();
    work();
    allocations() - before
}

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the arguments it was
// given, so the allocator upholds exactly `System`'s contract.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // upholds `realloc`'s contract for `new_size`.
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

/// A two-layer geometry with two KV heads of 32 channels.
fn geometry() -> ModelConfig {
    let mut cfg = ModelConfig::llama2_7b().proxy(2, 64);
    cfg.num_heads = 2;
    cfg.num_kv_heads = 2;
    cfg
}

#[test]
fn steady_state_pool_batch_view_append_makes_zero_allocations() {
    let cfg = geometry();
    let (layers, d) = (cfg.num_layers, cfg.kv_dim());
    let slots = 4;
    // Pre-generate every row (input generation is allowed to allocate;
    // the append path is what must not).
    let warm_tokens = 96usize;
    let measured_tokens = 8usize;
    let total = warm_tokens + measured_tokens;
    let rows: Vec<Vec<f32>> = (0..total * slots * layers * 2)
        .map(|j| kv_row(d, j as u64))
        .collect();
    // One step's row of `(slot, layer, kind)`, as the one-step run a
    // view appends.
    let row = |t: usize, slot: usize, layer: usize, kind: usize| -> &[Vec<f32>] {
        std::slice::from_ref(&rows[((t * slots + slot) * layers + layer) * 2 + kind])
    };

    for ranks in [1usize, 2] {
        // Big pages so the measured window never crosses a page boundary:
        // the point is the append path's own overhead, not page-list
        // growth.
        let mut pools = PagedKvPool::for_model(&cfg, None, 512, 65_536);
        pools.set_ranks(ranks);
        let seqs: Vec<_> = (0..slots)
            .map(|_| pools.alloc_seq_with_prefix(&[]).seq)
            .collect();
        // One view per token, as the engine makes one per iteration; each
        // step appends its rows layer by layer through it.
        let feed = |pools: &mut PagedKvPool, tokens: std::ops::Range<usize>| {
            for t in tokens {
                let mut view = PoolBatchView::new(pools, &seqs);
                for layer in 0..layers {
                    for slot in 0..slots {
                        view.append(slot, layer, row(t, slot, layer, 0), row(t, slot, layer, 1));
                    }
                }
            }
        };

        // Warm-up: views and MMU tables grow to their steady-state
        // capacity.
        feed(&mut pools, 0..warm_tokens);
        let delta = allocations_of(|| feed(&mut pools, warm_tokens..total));
        assert_eq!(
            delta, 0,
            "steady-state PoolBatchView::append performed {delta} heap allocations over \
             {measured_tokens} tokens x {layers} layers x {slots} slots at {ranks} ranks"
        );
        // Sanity: the rows actually landed on every rank.
        for &s in &seqs {
            assert_eq!(pools.seq_len(s, layers - 1), total);
        }
    }
}

/// The scheduler's reservation bound is asked up to twice per active
/// sequence per engine step, so it must not allocate either — least of all
/// on *planned* sequences, whose next rows straddle pending prompt blocks
/// and the private tail. Nor must the page figures the engine reads each
/// step, which the page ledger counts from those same owners.
#[test]
fn steady_state_page_bound_over_pending_blocks_makes_zero_allocations() {
    let cfg = geometry();
    let (layers, d) = (cfg.num_layers, cfg.kv_dim());
    let mut pool = PagedKvPool::for_model(&cfg, None, 512, 4096);
    pool.set_block_tokens(4);

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

    let mut pages = 0u32;
    let delta = allocations_of(|| {
        for _ in 0..16 {
            for &seq in &seqs {
                for n in [1usize, 3, 8, 20] {
                    pages += pool.pages_possibly_needed_n(seq, n).unwrap();
                }
            }
        }
    });
    assert_eq!(
        delta, 0,
        "pages_possibly_needed_n performed {delta} heap allocations"
    );
    assert!(std::hint::black_box(pages) > 0, "the bounds were computed");

    pool.suspend_seq(seqs[2]).unwrap();
    let mut figures = 0u32;
    let delta = allocations_of(|| {
        for _ in 0..16 {
            figures += pool.shared_block_pages() + pool.page_accounting().private;
            figures += pool.seq_pages(seqs[1]) + pool.suspended_seq_pages(seqs[2]);
        }
    });
    assert_eq!(
        delta, 0,
        "the page figures performed {delta} heap allocations"
    );
    assert!(std::hint::black_box(figures) > 0, "the figures were read");
}

/// A warm Oaken pool's run allocates only at its stores' seals. A sealed
/// 16-row segment is copied once into its shared allocation: the `Arc`,
/// then its buffers sized to its rows — column words, coefficient lanes,
/// masks, outlier values, and its log's COO bytes, row ends, block counts
/// and scales: at most nine allocations per sealed segment. The emptied
/// open segment keeps every buffer, its coefficient lanes zeroed; the
/// pool's encoder and the page streams are warm too: a 64-row run seals
/// four segments per kind and makes at most 72 allocations, and a 15-row
/// run right after it, which seals none, makes none.
#[test]
fn warm_oaken_pool_run_allocates_only_at_seals() {
    const PER_SEAL: usize = 9;
    let cfg = geometry();
    let d = cfg.kv_dim();
    let config = OakenConfig::default();
    let mut profiler = OfflineProfiler::new(config.clone(), cfg.num_layers);
    for s in 0..24 {
        for layer in 0..cfg.num_layers {
            for kind in KvKind::ALL {
                profiler.observe(layer, kind, &kv_row(d, s * 3 + layer as u64));
            }
        }
    }
    let q: Arc<dyn KvQuantizer> =
        Arc::new(OakenQuantizer::new(config, profiler.try_finish().unwrap()));
    let mut pool = PagedKvPool::for_model(&cfg, Some(q), 512, 65_536);
    pool.set_kernel_mode(KernelMode::Fused);
    let seq = pool.alloc_seq();
    // Rows cycle with period 64, so every measured group repeats a warm
    // one and no buffer meets a group with more outliers than before.
    let ks: Vec<Vec<f32>> = (0..64).map(|t| kv_row(d, t)).collect();
    let vs: Vec<Vec<f32>> = (0..64).map(|t| kv_row(d, 1_000 + t)).collect();
    // Warm: 144 rows, every buffer at its working size — the page
    // streams' size logs (two entries a row) with room for 128 more.
    for run in [&ks[..], &ks[..], &ks[..16]] {
        pool.append_run(seq, 0, run, &vs[..run.len()]).unwrap();
    }
    let segments = |pool: &PagedKvPool| {
        let (keys, values) = pool.encoded_kv(seq, 0).expect("a fused Oaken pool");
        keys.segments().len() + values.segments().len()
    };
    let before = segments(&pool);
    let made = allocations_of(|| pool.append_run(seq, 0, &ks, &vs).unwrap());
    let seals = segments(&pool) - before;
    assert_eq!(
        seals, 8,
        "64 rows from a segment edge seal four segments a kind"
    );
    assert!(
        made <= PER_SEAL * seals,
        "a 64-row run made {made} allocations for {seals} seals"
    );
    let made = allocations_of(|| pool.append_run(seq, 0, &ks[..15], &vs[..15]).unwrap());
    assert_eq!(made, 0, "a run that seals nothing allocates nothing");
    assert_eq!(pool.seq_len(seq, 0), 223);
}
