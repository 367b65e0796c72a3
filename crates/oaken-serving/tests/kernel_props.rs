//! Kernel-mode guarantees of the serving engine: a fused-kernel engine
//! serves every request reading **only encoded rows** (no dequantized f32
//! views anywhere on the attention path), an exact-kernel engine reads
//! only f32 views, and the fused read path's per-token traffic is a small
//! fraction of the exact path's — the storage win carried through to read
//! bandwidth.

mod support;

use oaken_model::{KernelMode, PagedKvPool};
use oaken_serving::{BatchEngine, EngineConfig, EngineRequest, TokenScheduler};
use support::*;

fn run_with_kernel(kernel: KernelMode) -> oaken_serving::EngineStats {
    let model = tiny_model();
    let pool = PagedKvPool::for_model(model.config(), Some(profiled_oaken(&model)), 1024, 512);
    let mut engine = BatchEngine::new(
        &model,
        pool,
        TokenScheduler::new(4),
        // Unsharded: this test calibrates the encoded row's per-row byte
        // traffic against full-width f32 rows. Sharding splits each row
        // across ranks and re-pays the fixed encoding header per slice,
        // which shifts the ratio without changing the representation
        // under test.
        EngineConfig {
            max_batch: 3,
            kernel,
            ..REFERENCE
        },
    );
    assert_eq!(engine.kernel_mode(), kernel, "oaken streams support fused");
    for (id, prompt) in [vec![1, 2, 3, 4, 5], vec![9, 8, 7], vec![20, 21, 22, 23]]
        .into_iter()
        .enumerate()
    {
        engine.submit(EngineRequest::new(id as u64, prompt, 6));
    }
    engine.run();
    let stats = engine.stats().clone();
    assert_eq!(stats.retired, 3, "all requests served under {kernel:?}");
    stats
}

#[test]
fn fused_engine_reads_encoded_rows_only() {
    let fused = run_with_kernel(KernelMode::Fused);
    assert!(fused.kv_reads.fused_rows > 0, "fused engine reads encoded");
    assert_eq!(
        fused.kv_reads.exact_rows, 0,
        "fused engine must never materialize f32 views"
    );

    let exact = run_with_kernel(KernelMode::Exact);
    assert!(
        exact.kv_reads.exact_rows > 0,
        "exact engine reads f32 views"
    );
    assert_eq!(
        exact.kv_reads.fused_rows, 0,
        "exact engine must not touch the encoded read path"
    );

    // Prompt chunks share one sweep over their sequence's rows; the
    // single-token decode steps sweep for themselves.
    assert!(
        fused.kv_reads.fused_rows_swept < fused.kv_reads.fused_rows,
        "chunked prefill must walk fewer rows than its tokens attend"
    );
    assert_eq!(exact.kv_reads.fused_rows_swept, 0);

    // Same schedule, same rows read — the fused path just reads them in
    // their encoded form, at a fraction of the f32 byte traffic.
    assert_eq!(fused.kv_reads.fused_rows, exact.kv_reads.exact_rows);
    let per_row_fused = fused.kv_reads.fused_bytes as f64 / fused.kv_reads.fused_rows as f64;
    let per_row_exact = exact.kv_reads.exact_bytes as f64 / exact.kv_reads.exact_rows as f64;
    assert!(
        per_row_fused < 0.25 * per_row_exact,
        "fused rows must stream <25% of the f32 bytes \
         (fused {per_row_fused:.1} B/row vs exact {per_row_exact:.1} B/row)"
    );
}

/// The dead tail cannot silently return: a `P`-token prompt fed in
/// `C`-token chunks ends every unsampled step at its last-layer K/V
/// append, so on an `L`-layer fused pool the layers below the last sweep
/// the full chunk-tiled schedule and the last layer sweeps exactly the
/// rows of the one query that is sampled — the prompt's final token.
#[test]
fn unsampled_prompt_steps_read_nothing_on_the_last_layer() {
    use oaken_model::{Model, ModelConfig, QUERY_TILE};
    let (prompt_len, chunk) = (150usize, 64usize);
    for layers in [1usize, 2, 3] {
        let model = Model::synthetic(ModelConfig::llama2_7b().proxy(layers, 32), 7);
        let pool = PagedKvPool::for_model(model.config(), Some(profiled_oaken(&model)), 1024, 512);
        let mut engine = BatchEngine::new(
            &model,
            pool,
            TokenScheduler::new(4),
            EngineConfig {
                prefill_token_budget: chunk,
                kernel: KernelMode::Fused,
                ..REFERENCE
            },
        );
        // One new token: it is sampled from the prompt's last step, so no
        // decode step is ever fed.
        engine.submit(request_for(0, prompt_len, 1));
        engine.run();
        let stats = engine.stats();
        assert_eq!((stats.retired, stats.decode_tokens), (1, 1));
        assert_eq!(stats.prefill_chunks, prompt_len.div_ceil(chunk) as u64);

        // A layer where every step attends: per chunk, one sweep per query
        // tile up to the rows its last query sees; logically, query `t`
        // attends `t + 1` K and V rows.
        let mut tiled = 0usize;
        for from in (0..prompt_len).step_by(chunk) {
            let n = chunk.min(prompt_len - from);
            tiled += (0..n)
                .step_by(QUERY_TILE)
                .map(|a| 2 * (from + (a + QUERY_TILE).min(n)))
                .sum::<usize>();
        }
        let attended = prompt_len * (prompt_len + 1);
        // The last layer: the final query alone, over every row.
        let last = 2 * prompt_len;
        let reads = stats.kv_reads;
        assert_eq!(
            reads.fused_rows_swept,
            ((layers - 1) * tiled + last) as u64,
            "{layers} layers: rows swept"
        );
        assert_eq!(
            reads.fused_rows,
            ((layers - 1) * attended + last) as u64,
            "{layers} layers: rows attended"
        );
    }
}
