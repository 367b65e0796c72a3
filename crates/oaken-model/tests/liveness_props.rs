//! Liveness is unobservable in the bits: which steps of a forward pass
//! have their logits read ([`StepBatch`]) changes what the pass computes —
//! a dead step ends at its last-layer K/V append — and nothing else.
//! Random prompts fed as random chunkings through
//! `Model::forward_batch_sharded` on a paged pool, once with every step
//! live and once with only each chunk's last step live, yield bit-identical
//! logits for the live steps and leave identical pool state (row counts,
//! decoded rows, page tables and page ids, trie blocks, size tables and
//! their checksum) — over the exact and fused kernels, one and two ranks,
//! one and four threads, MHA, GQA, a sliding window and the MoE proxy.

use oaken_core::{KvKind, KvQuantizer, OakenConfig, OakenQuantizer, OfflineProfiler};
use oaken_mmu::PageId;
use oaken_model::{
    BatchStep, KernelMode, Model, ModelConfig, PagedKvPool, PoolBatchView, RankedPools, StepBatch,
};
use oaken_runtime::{Comm, Runtime};
use proptest::prelude::*;
use std::sync::Arc;

fn kv_row(d: usize, seed: u64) -> Vec<f32> {
    (0..d)
        .map(|i| {
            let u = ((i as u64 ^ seed.wrapping_mul(0xD1B5_4A32_D192_ED03))
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
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

/// The structural variants: MHA, GQA, a sliding window short enough to
/// bite inside a chunk, and mixture-of-experts layers.
fn variants() -> Vec<(&'static str, ModelConfig)> {
    let mha = ModelConfig::llama2_7b().proxy(2, 32);
    let mut gqa = mha.clone();
    gqa.num_kv_heads = 2;
    let mut windowed = ModelConfig::mistral_7b().proxy(2, 32);
    windowed.sliding_window = Some(12);
    let moe = ModelConfig::mixtral_8x7b().proxy(2, 32);
    assert!(moe.moe.is_some(), "mixtral proxy keeps its experts");
    vec![
        ("mha", mha),
        ("gqa", gqa),
        ("windowed", windowed),
        ("moe", moe),
    ]
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Everything observable of one rank's pool once the prompts are in.
#[derive(Debug, PartialEq)]
struct PoolState {
    /// Per sequence and layer: cached rows, decoded K bits, decoded V bits.
    rows: Vec<(usize, Vec<u32>, Vec<u32>)>,
    /// Reference count of every physical page: which page ids are held,
    /// and by how many owners.
    refcounts: Vec<u32>,
    /// Per sequence owner and stream: every token's `(address, size)`.
    tables: Vec<Vec<(u64, u32)>>,
    trie_blocks: usize,
    shared_block_pages: u32,
    prefix: oaken_model::PrefixStats,
    /// Per sequence, its exported size tables: `(bytes, checksum)`.
    exports: Vec<(u64, u64)>,
}

/// The logits of each chunk's last step, in step order, and every rank's
/// pool state.
type Observed = (Vec<Vec<u32>>, Vec<PoolState>);

struct Setup<'a> {
    model: &'a Model,
    quantizer: &'a Arc<dyn KvQuantizer>,
    kernel: KernelMode,
    ranks: usize,
    threads: usize,
}

/// Feeds `prompts` (one slot each, all slots every iteration) in the
/// chunk sizes `chunks` deals out cyclically. With `dead_tails`, only each
/// chunk's last step is live; otherwise every step is, and the logits of
/// the same steps are picked from the full output.
fn prefill(
    setup: &Setup<'_>,
    prompts: &[Vec<u32>],
    chunks: &[usize],
    dead_tails: bool,
) -> Observed {
    let cfg = setup.model.config();
    let rt = Runtime::new(setup.threads);
    let mut donor = PagedKvPool::for_model(cfg, Some(setup.quantizer.clone()), 2048, 512);
    donor.set_block_tokens(8);
    assert_eq!(donor.set_kernel_mode(setup.kernel), setup.kernel);
    let mut pools = RankedPools::split(cfg, donor, setup.ranks);
    let plan = pools.plan().clone();
    let mut comm = Comm::new(setup.ranks);
    let seqs: Vec<_> = prompts
        .iter()
        .map(|p| {
            let alloc = pools.alloc_seq_with_prefix(p);
            assert_eq!(alloc.matched_tokens, 0, "nothing is sealed yet");
            alloc.seq
        })
        .collect();

    let mut fed = vec![0usize; prompts.len()];
    let mut deal = chunks.iter().cycle();
    let mut logits = Vec::new();
    while fed.iter().zip(prompts).any(|(f, p)| *f < p.len()) {
        let mut steps = Vec::new();
        let mut tails = Vec::new();
        for (slot, prompt) in prompts.iter().enumerate() {
            let upto = (fed[slot] + deal.next().unwrap()).min(prompt.len());
            if upto == fed[slot] {
                continue;
            }
            steps.extend((fed[slot]..upto).map(|pos| BatchStep {
                slot,
                pos,
                token: prompt[pos],
            }));
            tails.push(steps.len() - 1);
            fed[slot] = upto;
        }
        let mut view = PoolBatchView::new(&mut pools, &seqs);
        if dead_tails {
            let batch = StepBatch::new(&steps, &tails);
            let out = setup
                .model
                .forward_batch_sharded(&rt, &plan, &mut comm, &mut view, batch, None);
            assert_eq!(out.len(), tails.len(), "one logits vector per live step");
            logits.extend(out.iter().map(|l| bits(l)));
        } else {
            let out = setup
                .model
                .forward_batch_sharded(&rt, &plan, &mut comm, &mut view, &steps, None);
            assert_eq!(out.len(), steps.len(), "one logits vector per step");
            logits.extend(tails.iter().map(|&i| bits(&out[i])));
        }
        assert!(view.take_poisoned().is_empty(), "ample pool, no faults");
    }

    let states = pools
        .ranks_mut()
        .iter_mut()
        .map(|pool| {
            let mut rows = Vec::new();
            for &seq in &seqs {
                for layer in 0..cfg.num_layers {
                    rows.push((
                        pool.seq_len(seq, layer),
                        bits(pool.keys(seq, layer)),
                        bits(pool.values(seq, layer)),
                    ));
                }
            }
            let mmu = pool.mmu();
            let refcounts = (0..pool.capacity_pages())
                .map(|p| mmu.allocator().refcount(PageId(p)))
                .collect();
            let tables = seqs
                .iter()
                .flat_map(|seq| mmu.request_stream_sizes(seq.0))
                .map(|(key, _)| {
                    let table = mmu.table(&key).expect("listed streams are live");
                    table.iter().map(|e| (e.addr.0, e.size)).collect()
                })
                .collect();
            let mut state = PoolState {
                rows,
                refcounts,
                tables,
                trie_blocks: pool.trie_blocks(),
                shared_block_pages: pool.shared_block_pages(),
                prefix: pool.prefix_stats(),
                exports: Vec::new(),
            };
            for &seq in &seqs {
                let transfer = pool.export_seq(seq).expect("live sequence exports");
                let payload = transfer.payload();
                state.exports.push((payload.bytes, payload.checksum));
            }
            state
        })
        .collect();
    (logits, states)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn who_is_live_never_shows_in_logits_or_pool_state(
        seed in 0u64..1_000,
        lens in prop::collection::vec(9usize..44, 2),
        // Up to 40 > `QUERY_TILE`, so some runs span two query tiles.
        chunks in prop::collection::vec(1usize..41, 1..7),
        // How much of the second prompt repeats the first: the shared
        // 8-token blocks dedup when they seal.
        shared in 0usize..20,
    ) {
        for (name, cfg) in variants() {
            let model = Model::synthetic(cfg.clone(), 42);
            let quantizer = oaken(cfg.kv_dim(), cfg.num_layers);
            let mut prompts: Vec<Vec<u32>> = lens
                .iter()
                .enumerate()
                .map(|(s, &len)| {
                    (0..len as u64)
                        .map(|i| {
                            ((seed * 31 + (s as u64 + 1) * 977 + i * 131 + i * i)
                                % cfg.vocab_size as u64) as u32
                        })
                        .collect()
                })
                .collect();
            let shared = shared.min(lens[0]).min(lens[1]);
            let (head, tail) = prompts.split_at_mut(1);
            tail[0][..shared].copy_from_slice(&head[0][..shared]);

            for kernel in [KernelMode::Exact, KernelMode::Fused] {
                for (ranks, threads) in [(1, 1), (1, 4), (2, 1), (2, 4)] {
                    let setup = Setup { model: &model, quantizer: &quantizer, kernel, ranks, threads };
                    let (want_logits, want_state) = prefill(&setup, &prompts, &chunks, false);
                    let (got_logits, got_state) = prefill(&setup, &prompts, &chunks, true);
                    prop_assert!(
                        got_logits == want_logits,
                        "{} {:?} {} ranks {} threads: a live step's logits depend on who else is live",
                        name, kernel, ranks, threads
                    );
                    prop_assert!(
                        got_state == want_state,
                        "{} {:?} {} ranks {} threads: pool state depends on who is live",
                        name, kernel, ranks, threads
                    );
                }
            }
        }
    }
}
