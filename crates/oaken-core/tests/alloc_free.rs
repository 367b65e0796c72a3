//! Proves the scratch quantize/dequantize paths are allocation-free: a
//! 1k-token decode loop through `roundtrip_vector_into` and
//! `dequantize_vector_into` with reused buffers performs **zero** heap
//! allocations after warm-up (acceptance criterion of the incremental
//! cache work — the hardware engine's fixed SRAM buffers, in software).

use oaken_core::{FusedVector, KvKind, OakenConfig, OakenQuantizer, OakenScratch, OfflineProfiler};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    /// Allocations made by *this* thread: libtest's main thread and
    /// concurrently running tests allocate on their own counters, so a
    /// counting window sees only the code it brackets. Const-initialised
    /// with no destructor, which is what makes it legal to touch from
    /// inside `GlobalAlloc`.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
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
            match i % 29 {
                0 => base * 10.0,
                1 => base * 0.01,
                _ => base,
            }
        })
        .collect()
}

#[test]
fn thousand_token_decode_loop_makes_zero_allocations() {
    let d = 256;
    let tokens = 1_000;
    let config = OakenConfig::default();
    let mut profiler = OfflineProfiler::new(config.clone(), 1);
    for s in 0..16 {
        profiler.observe(0, KvKind::Key, &kv_row(d, s));
        profiler.observe(0, KvKind::Value, &kv_row(d, s));
    }
    let q = OakenQuantizer::new(config, profiler.try_finish().unwrap());

    // Pre-generate inputs and pre-encode fused vectors (storage allocation
    // is allowed to allocate; the scratch paths are what must not).
    let rows: Vec<Vec<f32>> = (0..tokens).map(|t| kv_row(d, 100 + t as u64)).collect();
    let fused: Vec<FusedVector> = rows
        .iter()
        .map(|r| q.quantize_vector(r, 0, KvKind::Key).unwrap())
        .collect();

    let mut scratch = OakenScratch::new();
    let mut out = Vec::new();

    // Warm-up pass over every row: scratch and output buffers grow to
    // their steady-state capacity (max outlier count across the rows).
    for (row, fv) in rows.iter().zip(&fused) {
        out.clear();
        q.roundtrip_vector_into(row, 0, KvKind::Key, &mut scratch, &mut out)
            .unwrap();
        out.clear();
        q.dequantize_vector_into(fv, 0, KvKind::Key, &mut out)
            .unwrap();
    }

    // Measured pass: the full 1k-token loop must not allocate at all.
    let before = allocations();
    let mut checksum = 0.0f32;
    for (row, fv) in rows.iter().zip(&fused) {
        out.clear();
        q.roundtrip_vector_into(row, 0, KvKind::Key, &mut scratch, &mut out)
            .unwrap();
        checksum += out[0];
        out.clear();
        q.dequantize_vector_into(fv, 0, KvKind::Key, &mut out)
            .unwrap();
        checksum += out[d - 1];
    }
    let delta = allocations() - before;
    assert!(checksum.is_finite());
    assert_eq!(
        delta, 0,
        "scratch decode loop performed {delta} heap allocations over {tokens} tokens"
    );
}
