//! Proves the attention kernels are **allocation-free in steady state**:
//! once an [`AttentionScratch`] and an output buffer have grown to working
//! capacity, a window of `attend_one_into` / `attend_one_fused_into` calls
//! (decode steps) and of 64-query `attend_run_fused_into` calls (a prefill
//! chunk, two query tiles) performs **zero** heap allocations — the score
//! rows, the decoded row block, and the context vectors all live in
//! caller-owned reused storage. This is the scratch-reuse guarantee the
//! forward passes rely on for every `(task, layer)` of an iteration.
//!
//! The same harness proves that **dead steps cost the tail stage
//! nothing**: a last-layer pass over a chunk makes as many allocations for
//! its one live step whether 63 dead steps or none share the chunk — no
//! zero-filled context rows, no empty per-step logits vectors.

use oaken_core::{KvKind, KvQuantizer, OakenConfig, OakenQuantizer, OfflineProfiler};
use oaken_model::{
    attend_one_fused_into, attend_one_into, attend_run_fused_into, AttentionScratch,
    AttentionShape, BatchStep, EncodedKv, Model, ModelConfig, PagedKvPool, PoolBatchView, RankPlan,
    RankedPools, StepBatch,
};
use oaken_runtime::{Comm, Runtime};
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
            match i % 19 {
                0 => base * 9.0,
                1 => base * 0.02,
                _ => base,
            }
        })
        .collect()
}

fn oaken(d: usize) -> OakenQuantizer {
    let config = OakenConfig::default();
    let mut p = OfflineProfiler::new(config.clone(), 1);
    for s in 0..24 {
        for kind in KvKind::ALL {
            p.observe(0, kind, &kv_row(d.max(64), s * 3 + 1));
        }
    }
    OakenQuantizer::new(config, p.try_finish().unwrap())
}

#[test]
fn steady_state_attention_kernels_make_zero_allocations() {
    // Full register blocks; then a GQA group of 4, a column tail (35 = two
    // 16-column blocks and 3 single columns) and a sliding window shorter
    // than the chunk, so every query of a tile sees its own row range: the
    // accumulators of every block width live on the stack, and the
    // per-member ranges grow no scratch.
    for (num_heads, num_kv_heads, head_dim, window) in [(4, 2, 16, None), (8, 2, 35, Some(40))] {
        steady_state(AttentionShape {
            num_heads,
            num_kv_heads,
            head_dim,
            window,
        });
    }
}

fn steady_state(shape: AttentionShape) {
    let d = shape.kv_dim();
    let seq_len = 200usize;
    let q: Vec<f32> = kv_row(shape.q_dim(), 99);
    // A 64-token prefill chunk ending at the last cached row.
    let chunk: Vec<Vec<f32>> = (0..64).map(|i| kv_row(shape.q_dim(), 500 + i)).collect();
    let chunk_qs: Vec<&[f32]> = chunk.iter().map(|q| q.as_slice()).collect();
    let chunk_limits: Vec<usize> = (0..64).map(|i| seq_len - 63 + i).collect();
    let mut chunk_out = vec![0.0f32; 64 * shape.q_dim()];

    // Exact-path inputs: flat f32 K/V matrices.
    let mut keys = Vec::new();
    let mut values = Vec::new();
    for t in 0..seq_len as u64 {
        keys.extend(kv_row(d, 2 * t + 1));
        values.extend(kv_row(d, 1_000 + 2 * t));
    }

    // Fused-path inputs: the same rows in encoded form, via the real
    // Oaken row streams (storage growth happens here, during setup).
    let quant = oaken(d);
    let mut k_stream = quant.row_stream(d, 0, KvKind::Key).expect("oaken streams");
    let mut v_stream = quant
        .row_stream(d, 0, KvKind::Value)
        .expect("oaken streams");
    let mut scratch_view = Vec::new();
    for t in 0..seq_len {
        k_stream.append_row(&keys[t * d..(t + 1) * d], &mut scratch_view);
        v_stream.append_row(&values[t * d..(t + 1) * d], &mut scratch_view);
    }
    let ek = EncodedKv {
        plan: k_stream.read_plan().expect("oaken keeps a read plan"),
    };
    let ev = EncodedKv {
        plan: v_stream.read_plan().expect("oaken keeps a read plan"),
    };

    let mut scratch = AttentionScratch::default();
    let mut out = Vec::new();

    let mut run = |scratch: &mut AttentionScratch, out: &mut Vec<f32>| {
        attend_one_into(&q, &keys, &values, seq_len, &shape, scratch, out);
        attend_one_fused_into(&q, &ek, &ev, seq_len, &shape, scratch, out);
        let all = 0..shape.num_kv_heads;
        attend_run_fused_into(
            &chunk_qs,
            &chunk_limits,
            &ek,
            &ev,
            &shape,
            all,
            scratch,
            &mut chunk_out,
        );
    };

    // Warm-up: grow the scratch and output to working capacity.
    run(&mut scratch, &mut out);

    // Measured window: all three kernels, warm buffers, zero allocations.
    let before = allocations();
    for _ in 0..32 {
        run(&mut scratch, &mut out);
    }
    let delta = allocations() - before;
    assert!(out.iter().chain(&chunk_out).all(|v| v.is_finite()));
    assert_eq!(
        delta, 0,
        "steady-state attention kernels must not allocate ({delta} allocations in the window)"
    );
}

/// Allocations of one forward pass of a `steps`-token chunk, of which the
/// last step is live or none is, over a fresh exact pool of a one-layer
/// model — the first layer is the last, so dead steps end at its append.
fn last_layer_pass(model: &Model, steps: usize, live: &[usize]) -> usize {
    let cfg = model.config();
    let mut pools = RankedPools::single(cfg, PagedKvPool::for_model(cfg, None, 256, 4096));
    let seqs = [pools.alloc_seq_with_prefix(&[]).seq];
    let steps: Vec<BatchStep> = (0..steps)
        .map(|pos| BatchStep {
            slot: 0,
            pos,
            token: (pos * 29 + 3) as u32 % 256,
        })
        .collect();
    let (rt, plan, mut comm) = (Runtime::serial(), RankPlan::new(cfg, 1), Comm::new(1));
    let mut view = PoolBatchView::new(&mut pools, &seqs);
    let before = allocations();
    let logits = model.forward_batch_sharded(
        &rt,
        &plan,
        &mut comm,
        &mut view,
        StepBatch::new(&steps, live),
        None,
    );
    let delta = allocations() - before;
    assert_eq!(logits.len(), live.len(), "one logits vector per live step");
    assert!(logits.iter().flatten().all(|v| v.is_finite()));
    delta
}

#[test]
fn dead_steps_cost_the_tail_stage_nothing() {
    let model = Model::synthetic(ModelConfig::llama2_7b().proxy(1, 32), 42);
    // Warm-up: grow this thread's attention scratch to the widest shape.
    last_layer_pass(&model, 64, &[63]);

    // The tail stage and LM head of one live step: what the pass with it
    // allocates beyond the same pass without it.
    let tail_after_63_dead = last_layer_pass(&model, 64, &[63]) - last_layer_pass(&model, 64, &[]);
    let tail_alone = last_layer_pass(&model, 1, &[0]) - last_layer_pass(&model, 1, &[]);
    assert!(tail_alone > 0, "a live step's tail allocates its outputs");
    assert_eq!(
        tail_after_63_dead, tail_alone,
        "the tail stage of one live step must not allocate per dead step"
    );
}
