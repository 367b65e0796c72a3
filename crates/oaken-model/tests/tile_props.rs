//! Chunking invariance of the forward pass over a fused paged pool: the
//! same prompt fed as chunks of any size — one token at a time, a few,
//! whole query tiles, or the entire prompt in one pass — yields
//! bit-identical logits and leaves bit-identical pool state, on the serial
//! and the parallel runtime, at one rank and rank-sharded (the same
//! forward pass, N ranks ≡ 1 rank). This is the fused
//! kernel's width-invariance contract observed end to end: which queries
//! shared a sweep over the encoded rows never shows in any output bit.

use oaken_core::{KvKind, KvQuantizer, OakenConfig, OakenQuantizer, OfflineProfiler};
use oaken_model::{
    BatchStep, KernelMode, Model, ModelConfig, PagedKvPool, PoolBatchView, RankedPools,
};
use oaken_runtime::{Comm, Runtime};
use proptest::prelude::*;
use std::sync::Arc;

fn kv_row(d: usize, seed: u64) -> Vec<f32> {
    (0..d)
        .map(|i| {
            let u = ((i as u64)
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(seed * 7919)
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

fn oaken(d: usize, layers: usize) -> Arc<dyn KvQuantizer> {
    let config = OakenConfig::default();
    let mut p = OfflineProfiler::new(config.clone(), layers);
    for s in 0..24 {
        for layer in 0..layers {
            for kind in KvKind::ALL {
                p.observe(layer, kind, &kv_row(d.max(64), s * 3 + layer as u64));
            }
        }
    }
    Arc::new(OakenQuantizer::new(config, p.try_finish().unwrap()))
}

/// Bits of everything observable after a prefill: every step's logits,
/// then every rank's decoded K and V rows per layer.
type Observed = Vec<Vec<u32>>;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Feeds `prompt` to a fresh fused pool in chunks of `chunk` tokens.
fn prefill(
    model: &Model,
    quantizer: &Arc<dyn KvQuantizer>,
    prompt: &[u32],
    chunk: usize,
    threads: usize,
    ranks: usize,
) -> Observed {
    let cfg = model.config();
    let rt = Runtime::new(threads);
    let mut donor = PagedKvPool::for_model(cfg, Some(quantizer.clone()), 2048, 4096);
    assert_eq!(donor.set_kernel_mode(KernelMode::Fused), KernelMode::Fused);
    let mut pools = RankedPools::split(cfg, donor, ranks);
    let mut comm = Comm::new(ranks);
    let seqs = vec![pools.alloc_seq_with_prefix(&[]).seq];
    let mut observed = Observed::new();
    for (c, tokens) in prompt.chunks(chunk).enumerate() {
        let steps: Vec<BatchStep> = tokens
            .iter()
            .enumerate()
            .map(|(j, &token)| BatchStep {
                slot: 0,
                pos: c * chunk + j,
                token,
            })
            .collect();
        let plan = pools.plan().clone();
        let mut view = PoolBatchView::new(&mut pools, &seqs);
        let logits = model.forward_batch_sharded(&rt, &plan, &mut comm, &mut view, &steps, None);
        assert!(
            view.take_poisoned().is_empty(),
            "fault-free run poisons nothing"
        );
        observed.extend(logits.iter().map(|l| bits(l)));
    }
    let reads = pools.kv_read_stats();
    assert_eq!(reads.exact_rows, 0, "fused prefill reads no f32 view");
    if chunk == 1 {
        assert_eq!(
            reads.fused_rows_swept, reads.fused_rows,
            "token-by-token, every attended row is swept for it alone"
        );
    } else {
        assert!(
            reads.fused_rows_swept < reads.fused_rows,
            "a chunk shares its sweeps ({} swept, {} attended)",
            reads.fused_rows_swept,
            reads.fused_rows
        );
    }
    // Physical sweeps over the 91-token prompt's rows (2 layers, K and V,
    // per rank), as recorded before the kernel's arithmetic passes were
    // register-blocked: one sweep per query tile, whatever the blocking —
    // no narrow-group path may add sweeps of its own.
    let per_rank = match chunk {
        1 => 16_744,
        3 => 5_944,
        16 => 1_324,
        64 | 91 => 748,
        _ => panic!("no recorded sweep count for chunk {chunk}"),
    };
    assert_eq!(reads.fused_rows_swept, per_rank * ranks as u64);
    for pool in pools.ranks_mut() {
        for layer in 0..cfg.num_layers {
            observed.push(bits(pool.keys(seqs[0], layer)));
            observed.push(bits(pool.values(seqs[0], layer)));
        }
    }
    observed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn chunked_prefill_is_bit_identical_at_every_chunk_size(
        seed in 0u64..1_000,
        // Sliding window (64 rows on the proxy) shorter than the prompt.
        windowed in 0usize..2,
        // 8 MHA heads, or 8 query heads over 2 KV heads.
        gqa in 0usize..2,
    ) {
        let mut cfg = if windowed == 1 {
            ModelConfig::mistral_7b().proxy(2, 32)
        } else {
            ModelConfig::llama2_7b().proxy(2, 32)
        };
        if gqa == 1 {
            cfg.num_kv_heads = 2;
        }
        let model = Model::synthetic(cfg.clone(), 42);
        let quantizer = oaken(cfg.kv_dim(), cfg.num_layers);
        let prompt: Vec<u32> = (0..91u64)
            .map(|i| ((seed * 31 + i * 131 + i * i) % cfg.vocab_size as u64) as u32)
            .collect();
        let reference = prefill(&model, &quantizer, &prompt, 1, 1, 1);
        for ranks in [1, 2] {
            let want: &[Vec<u32>] = if ranks == 1 {
                &reference
            } else {
                // Rank shards store channel slices; logits must still match.
                &reference[..prompt.len()]
            };
            let mut sharded_state = None;
            for threads in [1, 4] {
                for chunk in [1, 3, 16, 64, prompt.len()] {
                    let got = prefill(&model, &quantizer, &prompt, chunk, threads, ranks);
                    prop_assert!(
                        got[..want.len()] == *want,
                        "chunk {} on {} threads, {} ranks diverged from token-by-token",
                        chunk, threads, ranks
                    );
                    let state = sharded_state.get_or_insert_with(|| got.clone());
                    prop_assert!(
                        got == *state,
                        "pool state depends on chunk {} / {} threads at {} ranks",
                        chunk, threads, ranks
                    );
                }
            }
        }
    }
}
