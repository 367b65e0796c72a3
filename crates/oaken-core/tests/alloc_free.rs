//! Proves the scratch quantize/dequantize paths are allocation-free: a
//! 1k-token decode loop through `dequantize_vector_into` with a reused
//! buffer performs **zero** heap allocations after warm-up (acceptance
//! criterion of the incremental cache work — the hardware engine's fixed
//! SRAM buffers, in software), and so does `OakenScratch::quantize_into`
//! into a warm run. And an Oaken row stream's `held_bytes` is exactly
//! the heap it owns.

use oaken_core::{
    KvKind, KvQuantizer, KvRowStream, OakenConfig, OakenQuantizer, OakenScratch, OfflineProfiler,
    PackedRows,
};
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
    /// Bytes allocated by this thread less those it freed: the live heap
    /// of whatever this thread builds and drops itself.
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
}

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

fn live_bytes() -> isize {
    LIVE_BYTES.with(Cell::get)
}

fn count(allocated: usize, freed: usize) {
    LIVE_BYTES.with(|n| n.set(n.get() + allocated as isize - freed as isize));
}

// SAFETY: every method forwards to `System` with the arguments it was
// given, so the allocator upholds exactly `System`'s contract.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            count(layout.size(), 0);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, layout.size());
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // upholds `realloc`'s contract for `new_size`.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            count(new_size, layout.size());
        }
        moved
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

    // Pre-encode the rows into one run (storage allocation is allowed to
    // allocate; the decode path is what must not).
    let params = q.fused_read_params(0, KvKind::Key).unwrap();
    let (mut scratch, mut fused) = (OakenScratch::new(), PackedRows::new(d));
    for t in 0..tokens {
        scratch.quantize_into(&kv_row(d, 100 + t as u64), &params, &mut fused);
    }

    let mut out = Vec::new();

    // Warm-up pass over every row: the output buffer grows to its
    // steady-state capacity.
    for fv in fused.iter() {
        out.clear();
        q.dequantize_vector_into(fv, 0, KvKind::Key, &mut out)
            .unwrap();
    }

    // Measured pass: the full 1k-token loop must not allocate at all.
    let before = allocations();
    let mut checksum = 0.0f32;
    for fv in fused.iter() {
        out.clear();
        q.dequantize_vector_into(fv, 0, KvKind::Key, &mut out)
            .unwrap();
        checksum += out[0] + out[d - 1];
    }
    let delta = allocations() - before;
    assert!(checksum.is_finite());
    assert_eq!(
        delta, 0,
        "scratch decode loop performed {delta} heap allocations over {tokens} tokens"
    );
}

/// Once its scratch and the run it writes into are warm, the quantizer
/// allocates nothing: a row's passes, nibbles, COO bytes, per-block
/// counts, row end and scales all land in buffers already sized. A
/// scratch or a run that regrew per row would show here.
#[test]
fn warm_quantizer_allocates_nothing() {
    let config = OakenConfig::default();
    let mut profiler = OfflineProfiler::new(config.clone(), 1);
    for s in 0..16 {
        profiler.observe(0, KvKind::Key, &kv_row(256, s));
        profiler.observe(0, KvKind::Value, &kv_row(256, s));
    }
    let q = OakenQuantizer::new(config, profiler.try_finish().unwrap());
    let params = q.fused_read_params(0, KvKind::Value).unwrap();
    // Widths off the 16-element chunk edge and a shrinking order: the
    // scratch warms once at the widest row, each width's run at its rows.
    let widths = [256, 200, 97, 16, 1];
    let rows: Vec<Vec<f32>> = (widths.iter())
        .flat_map(|&d| (0..50).map(move |t| kv_row(d, 300 + t)))
        .collect();
    let mut runs = widths.map(PackedRows::new);
    let mut scratch = OakenScratch::new();
    for warm in [false, true] {
        for row in &rows {
            let run = (runs.iter_mut()).find(|run| run.dim() == row.len());
            let run = run.expect("a run per width");
            run.clear();
            let before = allocations();
            scratch.quantize_into(row, &params, run);
            let made = allocations() - before;
            assert!(
                !warm || made == 0,
                "a {}-wide row with {} outliers made {made} allocations",
                row.len(),
                run.row(0).outliers().len()
            );
        }
    }
}

/// An Oaken stream's `held_bytes` is exactly the heap it owns — every
/// buffer of its store and scratch, and nothing it keeps that the count
/// misses (such as a copy of the model's thresholds): after 0, 1, 15, 16,
/// 17 and 100 appends, for keys and values, at a served width and one
/// ending mid-byte, and after a reset, it equals the live bytes the
/// stream's own allocations leave, its own box aside.
#[test]
fn stream_held_bytes_are_its_live_heap_bytes() {
    let config = OakenConfig::default();
    let layers = 4;
    let mut profiler = OfflineProfiler::new(config.clone(), layers);
    for s in 0..16 {
        for layer in 0..layers {
            profiler.observe(layer, KvKind::Key, &kv_row(256, s));
            profiler.observe(layer, KvKind::Value, &kv_row(256, s));
        }
    }
    let q = OakenQuantizer::new(config, profiler.try_finish().unwrap());
    for d in [97, 128] {
        let rows: Vec<Vec<f32>> = (0..100).map(|t| kv_row(d, 500 + t)).collect();
        for kind in KvKind::ALL {
            let before = live_bytes();
            let mut stream = q.row_stream(d, 1, kind).expect("oaken streams");
            let owned = |s: &dyn KvRowStream| {
                let own = live_bytes() - before - std::mem::size_of_val(s) as isize;
                (own, s.held_bytes() as isize)
            };
            let mut appended = 0;
            for n in [0, 1, 15, 16, 17, 100] {
                for row in &rows[appended..n] {
                    assert!(stream.append_row_encoded(row));
                }
                appended = n;
                let (own, held) = owned(&*stream);
                assert_eq!(held, own, "{kind:?} width {d} after {n} rows");
            }
            stream.reset();
            let (own, held) = owned(&*stream);
            assert_eq!(held, own, "{kind:?} width {d} after a reset");
            drop(stream);
            assert_eq!(
                live_bytes(),
                before,
                "{kind:?} width {d}: a dropped stream frees all"
            );
        }
    }
}
