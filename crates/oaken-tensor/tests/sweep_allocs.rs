//! Bounds the heap allocations of one weight sweep
//! ([`Tensor::matvec_batch_shards`] on a serial runtime): the outputs it
//! returns, the interleaved-input scratch, and a constant — nothing per
//! weight row, and no task list when there is one task.

use oaken_runtime::Runtime;
use oaken_tensor::Tensor;
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

#[test]
fn a_sweep_allocates_its_outputs_its_scratch_and_a_constant() {
    let rt = Runtime::serial();
    let k = 48;
    for width in [1usize, 8, 19] {
        let xs = vec![vec![0.5f32; k]; width];
        let refs: Vec<&[f32]> = xs.iter().map(Vec::as_slice).collect();
        for m in [5usize, 64, 1024] {
            let a = Tensor::full(&[m, k], 0.25);
            let count = |shards: &[std::ops::Range<usize>]| {
                let before = allocations();
                let out = a.matvec_batch_shards(&rt, &refs, shards).unwrap();
                let made = allocations() - before;
                assert_eq!(out.len(), shards.len());
                made
            };
            // One task: `width` output vectors, the two vectors that hold
            // them, and the interleaved inputs.
            let whole = 0..m;
            let one = count(std::slice::from_ref(&whole));
            assert_eq!(one, width + 3, "width {width}, {m} rows");
            // Two shards: a task list and its results on top, each at most
            // once per shard.
            let two = count(&[0..m / 3, m / 3..m]);
            assert!(
                two <= 2 * (width + 3) + 2,
                "width {width}, {m} rows: {two} allocations"
            );
        }
    }
}
