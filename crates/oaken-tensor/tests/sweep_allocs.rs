//! Bounds the heap allocations of one weight sweep
//! ([`Tensor::matvec_batch_shards`] on a serial runtime): the outputs it
//! returns and a constant — no scratch, nothing per weight panel, and no
//! task list when there is one task.

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

// SAFETY: every method forwards to `System` with the arguments it was
// given, so the allocator upholds exactly `System`'s contract.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn a_sweep_allocates_its_outputs_and_a_constant() {
    let rt = Runtime::serial();
    let k = 48;
    for width in [1usize, 8, 19] {
        let xs = vec![vec![0.5f32; k]; width];
        let refs: Vec<&[f32]> = xs.iter().map(Vec::as_slice).collect();
        for m in [5usize, 64, 1024] {
            let a = Tensor::from_vec(vec![0.25; m * k], &[m, k]).unwrap();
            let count = |shards: &[std::ops::Range<usize>]| {
                let before = allocations();
                let out = a.matvec_batch_shards(&rt, &refs, shards).unwrap();
                let made = allocations() - before;
                assert_eq!(out.len(), shards.len());
                made
            };
            // One task: `width` output vectors and the two vectors that
            // hold them.
            let whole = 0..m;
            let one = count(std::slice::from_ref(&whole));
            assert_eq!(one, width + 2, "width {width}, {m} rows");
            // Two shards: each task's outputs and the vector holding them,
            // then the task list, the list of task results and the list
            // of shards.
            let two = count(&[0..m / 3, m / 3..m]);
            assert_eq!(two, 2 * (width + 1) + 3, "width {width}, {m} rows");
        }
    }
}
