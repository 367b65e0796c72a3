//! Proves prefix adoption copies no rows: a sequence admitted over a
//! sealed chain of trie blocks takes each block's store segments by
//! reference, so [`PagedKvPool::alloc_seq_with_prefix`] allocates the
//! sequence's own bookkeeping — its slots, streams and prompt plan — and
//! nothing that grows with the rows it adopts.

use oaken_core::{KvKind, OakenConfig, OakenQuantizer, OfflineProfiler};
use oaken_model::{ModelConfig, PagedKvPool};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct CountingAllocator;

thread_local! {
    /// Heap allocations and bytes requested by this thread. Nothing under
    /// test leaves the calling thread and every test runs on its own, so a
    /// window's counts are exactly its own work. Const-initialised with no
    /// destructor, which is what makes them legal to touch from inside
    /// `GlobalAlloc`.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    BYTES.with(|n| n.set(n.get() + bytes));
}

/// `(allocations, bytes)` `work` makes on this thread, after checking
/// that the counters see one.
fn allocated_by(work: impl FnOnce()) -> (usize, usize) {
    let now = || (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    let before = now();
    drop(std::hint::black_box(Box::new(0u64)));
    assert_eq!(
        now(),
        (before.0 + 1, before.1 + 8),
        "the counters see this thread"
    );
    let before = now();
    work();
    let after = now();
    (after.0 - before.0, after.1 - before.1)
}

// SAFETY: every method forwards to `System` with the arguments it was
// given, so the allocator upholds exactly `System`'s contract.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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
            let base = (u - 0.5) * 6.0;
            match i % 19 {
                0 => base * 9.0,
                1 => base * 0.02,
                _ => base,
            }
        })
        .collect()
}

fn oaken(d: usize, layers: usize) -> OakenQuantizer {
    let config = OakenConfig::default();
    let mut p = OfflineProfiler::new(config.clone(), layers);
    for s in 0..24 {
        for layer in 0..layers {
            for kind in KvKind::ALL {
                p.observe(layer, kind, &kv_row(d, s * 3 + layer as u64));
            }
        }
    }
    OakenQuantizer::new(config, p.try_finish().unwrap())
}

/// A second sequence adopting a sealed 12-block chain (16-token blocks,
/// two layers of 256-wide K and V rows) allocates under 1 KiB per block:
/// copying the rows instead would take about 16 rows' store segment
/// per block, layer and kind — some 5 KiB each.
#[test]
fn adopting_a_sealed_chain_allocates_no_rows() {
    let cfg = ModelConfig::llama2_7b().proxy(2, 256);
    let (layers, d) = (cfg.num_layers, cfg.kv_dim());
    assert_eq!(d, 256);
    let mut pool = PagedKvPool::for_model(&cfg, Some(Arc::new(oaken(d, layers))), 1024, 4096);
    let blocks = 12;
    let prompt: Vec<u32> = (0..=(16 * blocks) as u32).collect();
    let sealer = pool.alloc_seq_with_prefix(&prompt).seq;
    for t in 0..16 * blocks {
        for layer in 0..layers {
            let (k, v) = (kv_row(d, 2 * t as u64), kv_row(d, 2 * t as u64 + 1));
            pool.append(sealer, layer, &k, &v).unwrap();
        }
    }
    assert_eq!(pool.prefix_stats().trie_hits, 0);
    let mut matched = 0;
    let (calls, bytes) = allocated_by(|| {
        matched = pool.alloc_seq_with_prefix(&prompt).matched_tokens;
    });
    assert_eq!(matched, 16 * blocks, "the whole chain is adopted");
    assert!(
        bytes < 1024 * blocks,
        "adopting {blocks} blocks allocated {bytes} bytes in {calls} allocations"
    );
}
